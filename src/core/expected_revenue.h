#ifndef SSA_CORE_EXPECTED_REVENUE_H_
#define SSA_CORE_EXPECTED_REVENUE_H_

#include <vector>

#include "core/bids_table.h"
#include "core/click_model.h"
#include "core/compiled_bids.h"
#include "util/common.h"

namespace ssa {

class ThreadPool;

/// The expected-revenue table of Theorem 2's proof: entry (i, j) is the
/// expected payment (assuming advertisers pay what they bid) from assigning
/// slot j to advertiser i, plus a per-advertiser *unassigned* baseline —
/// formulas like `!Slot1` are true when the advertiser gets no slot, so
/// leaving i out still yields expected revenue r_i(⊥).
///
/// Winner determination maximizes
///     sum_{matched i} r_i(slot(i)) + sum_{unmatched i} r_i(⊥)
///   = sum_i r_i(⊥)  +  sum_{matched i} (r_i(slot(i)) - r_i(⊥)),
/// so the matching runs on the *marginal* weights w_ij = r_i(j) - r_i(⊥)
/// (which may be negative; such assignments are avoided by leaving slots
/// empty), with `UnassignedTotal()` the additive constant.
class RevenueMatrix {
 public:
  RevenueMatrix(int num_advertisers, int num_slots);

  /// Re-shapes the matrix for a new fill, reusing the existing allocations
  /// when capacity suffices — the arena path for planning scratch that
  /// builds one matrix per auction (ROADMAP 6c). Entries are zeroed like a
  /// fresh construction, so a Reset matrix is indistinguishable from a new
  /// one.
  void Reset(int num_advertisers, int num_slots);

  int num_advertisers() const { return n_; }
  int num_slots() const { return k_; }

  /// Expected revenue from giving advertiser i slot j.
  double At(AdvertiserId i, SlotIndex j) const {
    return assigned_[Index(i, j)];
  }
  void Set(AdvertiserId i, SlotIndex j, double r) {
    assigned_[Index(i, j)] = r;
  }

  /// Expected revenue from advertiser i when unassigned.
  double AtUnassigned(AdvertiserId i) const { return unassigned_[Check(i)]; }
  void SetUnassigned(AdvertiserId i, double r) { unassigned_[Check(i)] = r; }

  /// Marginal matching weight w_ij = r_i(j) - r_i(⊥).
  double MarginalWeight(AdvertiserId i, SlotIndex j) const {
    return At(i, j) - AtUnassigned(i);
  }

  /// sum_i r_i(⊥): the revenue if no slot were sold at all.
  double UnassignedTotal() const;

  /// Row-major (advertiser-major) view of the assigned table, for the dense
  /// matching kernels.
  const std::vector<double>& assigned() const { return assigned_; }

  // -- Unchecked accessors for the dense kernels ----------------------------
  // Bounds are validated once at construction; the hot loops
  // (BuildRevenueMatrix, SelectTopPerSlotCandidates, the tree top-k leaves,
  // MarginalWeights) stream over raw rows without per-element SSA_CHECKs.
  // The checked At()/Set() accessors remain for construction boundaries and
  // tests.

  /// Pointer to advertiser i's k assigned-revenue entries.
  const double* Row(AdvertiserId i) const {
    return assigned_.data() + static_cast<size_t>(i) * k_;
  }
  double* MutableRow(AdvertiserId i) {
    return assigned_.data() + static_cast<size_t>(i) * k_;
  }
  /// Pointer to the n unassigned baselines r_i(⊥).
  const double* UnassignedData() const { return unassigned_.data(); }
  double* MutableUnassignedData() { return unassigned_.data(); }

 private:
  size_t Index(AdvertiserId i, SlotIndex j) const {
    SSA_CHECK(i >= 0 && i < n_ && j >= 0 && j < k_);
    return static_cast<size_t>(i) * k_ + j;
  }
  AdvertiserId Check(AdvertiserId i) const {
    SSA_CHECK(i >= 0 && i < n_);
    return i;
  }

  int n_;
  int k_;
  std::vector<double> assigned_;
  std::vector<double> unassigned_;
};

/// The (click, purchase) distribution of advertiser i fixed in `slot`
/// (kNoSlot allowed), written to `prob[4]` indexed by
/// (clicked << 1) | purchased — exactly the probabilities ExpectedPayment
/// marginalizes over. Shared by the tree-walking and compiled evaluators so
/// both perform identical arithmetic.
void OutcomeProbabilities(const ClickModel& model, AdvertiserId i,
                          SlotIndex slot, double prob[4]);

/// Expected payment of one advertiser's OR-bid given a fixed slot (or
/// kNoSlot), marginalizing over the click/purchase distribution of `model`.
/// Requires bids.DependsOnlyOnOwnPlacement() (heavyweight formulas take the
/// Section III-F path in core/heavyweight.h). Tree-walking reference
/// implementation; the hot paths use CompiledBids.
Money ExpectedPayment(const BidsTable& bids, const ClickModel& model,
                      AdvertiserId i, SlotIndex slot);

/// Builds the full n x k (+ unassigned) revenue matrix from every
/// advertiser's Bids table. Compiles each table to flat truth tables first,
/// then streams over contiguous arrays — bitwise-identical results to the
/// tree-walking baseline, at a fraction of the cost. With `pool` non-null
/// the per-advertiser rows are filled in parallel (the output is identical;
/// rows are disjoint).
RevenueMatrix BuildRevenueMatrix(const std::vector<BidsTable>& bids,
                                 const ClickModel& model,
                                 ThreadPool* pool = nullptr);

/// The pre-compilation tree-walking construction: one recursive
/// Formula::Evaluate walk per (row, slot, outcome). O(n * k * formula size)
/// with heavy pointer chasing — kept as the equivalence/benchmark baseline.
RevenueMatrix BuildRevenueMatrixBaseline(const std::vector<BidsTable>& bids,
                                         const ClickModel& model);

/// Dense construction over pre-compiled bids (the engine's cached-bids hot
/// path). Every entry of `bids` must be compiled for model.num_slots().
RevenueMatrix BuildRevenueMatrixCompiled(
    const std::vector<const CompiledBids*>& bids, const ClickModel& model,
    ThreadPool* pool = nullptr);

/// Fills advertiser i's row of `matrix` (its k assigned entries plus the
/// unassigned baseline) from its compiled rows — the per-advertiser unit of
/// BuildRevenueMatrixCompiled, exported so sharded engines can stream rows
/// straight out of per-shard compiled-bids caches. One
/// ClickModel::OutcomeDistributions call, then one walk of the compiled
/// rows for every slot state (CompiledBids::ExpectedPayments). Touches only
/// row i, so disjoint advertisers fill concurrently with
/// bitwise-deterministic output. `compiled` and `model` must both be for
/// matrix->num_slots() slots.
void FillRevenueRow(const CompiledBids& compiled, const ClickModel& model,
                    RevenueMatrix* matrix, AdvertiserId i);

}  // namespace ssa

#endif  // SSA_CORE_EXPECTED_REVENUE_H_
