#ifndef SSA_CORE_COMPILED_BIDS_H_
#define SSA_CORE_COMPILED_BIDS_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/bids_table.h"
#include "core/outcome.h"
#include "util/common.h"

namespace ssa {

/// Compiled form of one advertiser's BidsTable: every row's Formula tree is
/// flattened into a truth table over the 1-dependent outcome space — one
/// 4-bit (click, purchase) mask per slot state. The slot states are the k
/// slots plus "unassigned", so a row costs (k + 1) bytes plus its value.
///
/// This turns ExpectedPayment from a recursive shared_ptr tree walk (up to
/// one walk per (click, purchase) outcome) into a branch-free dot product of
/// contiguous row values against four accumulators, and makes the Theorem 2
/// revenue-matrix construction stream over flat arrays. Compilation itself
/// is a single bottom-up walk per row (each node costs O(k) byte ops), so it
/// amortizes after roughly one ExpectedPayment call.
///
/// The four outcome accumulators are the kernel's vector dimension: each
/// 4-bit mask indexes a 16-entry LUT of {0.0, 1.0} lane weights, and the
/// fixed 4-wide mul + add per row vectorizes without reassociating any
/// lane, so every build flavor produces identical bits. ExpectedPayments
/// fills all k + 1 slot states of an advertiser in one walk of its rows.
///
/// Numerical contract: the compiled evaluators reproduce the tree-walking
/// `BidsTable::Payment` / `ExpectedPayment` results *bit for bit* — values
/// accumulate in row order and the outcome probabilities are applied in the
/// same order with the same zero-skipping, so the compiled path is a pure
/// representation change (the equivalence tests assert exact equality).
class CompiledBids {
 public:
  CompiledBids() = default;

  /// Compiles `bids` for a page with `num_slots` slots. Requires
  /// bids.DependsOnlyOnOwnPlacement() (same precondition as ExpectedPayment);
  /// rows mentioning slots >= num_slots compile to "never true in that slot"
  /// exactly like the tree evaluation over in-range outcomes.
  static CompiledBids Compile(const BidsTable& bids, int num_slots);

  /// Section III-F variant: HeavyInSlot predicates are resolved against the
  /// fixed `heavy_mask` (bit j set => slot j holds a heavyweight), so the
  /// compiled rows are valid for per-subset evaluations under exactly that
  /// mask.
  static CompiledBids CompileHeavy(const BidsTable& bids, int num_slots,
                                   uint32_t heavy_mask);

  /// In-place recompilation reusing this object's buffers — the zero-
  /// allocation path for compile-and-discard loops (BuildRevenueMatrix over
  /// raw tables keeps one scratch CompiledBids per worker).
  void CompileFrom(const BidsTable& bids, int num_slots);
  void CompileHeavyFrom(const BidsTable& bids, int num_slots,
                        uint32_t heavy_mask);

  int num_slots() const { return k_; }
  size_t num_rows() const { return values_.size(); }

  /// Payment under a concrete outcome — bitwise equal to
  /// BidsTable::Payment for outcomes with slot in [0, num_slots) or kNoSlot
  /// (and, for CompileHeavy, outcome.heavy_slot_mask == the compiled mask).
  Money Payment(const AdvertiserOutcome& outcome) const;

  /// Expected payment given the advertiser's slot (kNoSlot allowed) and the
  /// (click, purchase) distribution `prob`, indexed by
  /// (clicked << 1) | purchased. Bitwise equal to the tree-walking
  /// ExpectedPayment when `prob` comes from OutcomeProbabilities /
  /// HeavyOutcomeProbabilities.
  Money ExpectedPayment(SlotIndex slot, const double prob[4]) const;

  /// ExpectedPayment for every slot state at once, in one walk of the rows
  /// per 16 states: `prob` holds num_slots() + 1 distributions of 4 entries
  /// in ClickModel::OutcomeDistributions order (slots, then unassigned);
  /// slot_out[j] receives slot j's payment and *unassigned_out the
  /// unassigned state's. Each result is bitwise ExpectedPayment's — both
  /// run the same accumulation routine.
  void ExpectedPayments(const double* prob, double* slot_out,
                        double* unassigned_out) const;

  /// Dense-kernel access: row values and the per-slot mask column
  /// (`slot == kNoSlot` selects the unassigned state). One byte per row.
  const double* values() const { return values_.data(); }
  const uint8_t* MasksForSlot(SlotIndex slot) const {
    return masks_.data() + static_cast<size_t>(StateIndex(slot)) * num_rows();
  }

 private:
  /// Overwrites values() on a cache hit, leaving the masks as they are.
  friend class CompiledBidsCache;

  void CompileImpl(const BidsTable& bids, int num_slots,
                   const uint32_t* heavy_mask);

  int StateIndex(SlotIndex slot) const {
    SSA_CHECK(slot == kNoSlot || (slot >= 0 && slot < k_));
    return slot == kNoSlot ? k_ : slot;
  }

  int k_ = 0;
  bool resolves_heavy_ = false;
  uint32_t heavy_mask_ = 0;
  std::vector<double> values_;  // one entry per row, in table order
  /// Truth tables, slot-state-major: masks_[s * num_rows + r] is row r's
  /// 4-bit (click, purchase) mask in state s (s == k_ is "unassigned").
  std::vector<uint8_t> masks_;
};

/// Expected payment of a bid table whose rows all hold +0.0 except one, of
/// value `value` >= 0, whose formula's truth mask in the slot state is
/// `mask` (CompiledBids::MasksForSlot), under that state's (click,
/// purchase) distribution `prob`. Bitwise CompiledBids' result for such a
/// table: a +0.0 row adds +0.0 to every lane, which leaves the lane as it
/// was, and the kernel runs this routine for one-row tables. It is not a
/// product of one weight and `value` in general: a Click bid under a
/// purchase model sums p(click, no purchase) * value and
/// p(click, purchase) * value. The RHTALU planner (auction/roi_planner.h)
/// scores its members with it.
Money OneFormulaPayment(uint8_t mask, Money value, const double prob[4]);

/// Per-advertiser cache of compiled bids — each ShardedAuctionEngine
/// planning lane keeps one across auctions so unchanged formulas are never
/// recompiled. Entries are keyed by *global* advertiser id, so a lane
/// shares one cache across its shards. A compilation's truth masks are a
/// function of (formulas, num_slots) alone; the row values only weight
/// them. So an entry hits when the new table has the compiled one's slot
/// count, row count and structurally equal formulas (node identity first),
/// and a hit reuses the masks and overwrites the entry's values with the
/// new rows' value bits: the result is bitwise a fresh Compile. A changed
/// formula recompiles. The cache is pure scratch: nothing of it is ever
/// checkpointed.
///
/// Threading: Get(i, ...) mutates only entry i (hit/miss counters included —
/// there is deliberately no cache-wide mutable state on the Get path), so
/// concurrent Gets for *distinct* ids are race-free **provided the entries
/// already exist** — call Reserve(population) up front; an unreserved Get
/// grows the deque, which must stay single-threaded.
class CompiledBidsCache {
 public:
  /// Pre-creates entries [0, n) so concurrent Get calls on distinct ids
  /// never reshape the container. Idempotent; never shrinks.
  void Reserve(size_t n);

  /// Returns the compiled form of `bids` for advertiser `i`, reusing the
  /// cached masks when the formulas and num_slots both match. The returned
  /// reference stays valid until the next Get(i, ...) call *for the same
  /// advertiser* (entries live in a deque, so growing the cache for other
  /// advertisers never moves them).
  const CompiledBids& Get(AdvertiserId i, const BidsTable& bids,
                          int num_slots);

  /// Counter sums over every entry (per-entry counters keep the Get path
  /// free of shared mutable state; summing is O(entries), fine for
  /// telemetry). A hit is a lookup that reused the masks.
  int64_t hits() const;
  int64_t misses() const;

 private:
  struct Entry {
    /// -1 until the entry's first compilation.
    int num_slots = -1;
    /// Per-entry counters: Get touches only its own entry, which is what
    /// makes disjoint-id concurrent lookups race-free.
    int64_t hits = 0;
    int64_t misses = 0;
    /// The compiled table's formulas, row for row.
    std::vector<Formula> formulas;
    CompiledBids compiled;
  };
  std::deque<Entry> entries_;
};

}  // namespace ssa

#endif  // SSA_CORE_COMPILED_BIDS_H_
