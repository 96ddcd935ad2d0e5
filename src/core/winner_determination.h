#ifndef SSA_CORE_WINNER_DETERMINATION_H_
#define SSA_CORE_WINNER_DETERMINATION_H_

#include <string>
#include <vector>

#include "core/expected_revenue.h"
#include "matching/allocation.h"
#include "util/common.h"

namespace ssa {

/// The four winner-determination methods compared in Section V.
enum class WdMethod {
  /// Solve the assignment linear program with the simplex method (the naive
  /// baseline; integral optimum by Chvátal's theorem).
  kLp,
  /// Straightforward Hungarian (classical cover-based Munkres) on the full
  /// advertiser x slot bipartite graph, O(nk(n+k)).
  kHungarian,
  /// The paper's algorithm (Section III-E): reduce to each slot's top-k
  /// bidders, then Hungarian on the reduced graph's <= k^2 edges (each slot
  /// to its own top k only, MaxWeightMatchingTopK): O(nk log k) for the
  /// selection plus O(k * edges) = O(k^3) per augmentation, O(k^4) for all
  /// k, against the paper's O(k^5) for Hungarian on the candidates' rows.
  kReducedHungarian,
  /// Exhaustive search; exponential, test oracle only.
  kBruteForce,
};

/// Human-readable method name ("LP", "H", "RH", "BF").
std::string WdMethodName(WdMethod method);

/// Outcome of winner determination over a revenue matrix.
struct WdResult {
  Allocation allocation;
  /// Objective of the matching on marginal weights w_ij = r_i(j) - r_i(⊥).
  double matching_weight = 0.0;
  /// Total expected revenue: matching_weight + sum_i r_i(⊥).
  double expected_revenue = 0.0;
};

/// Runs winner determination with the chosen method. All methods return an
/// optimal allocation (they differ only in cost); tests assert equal
/// objectives across methods.
WdResult DetermineWinners(const RevenueMatrix& revenue, WdMethod method);

/// The reduction step of Section III-E: for each slot, the `per_slot`
/// advertisers with the highest positive marginal weight (maintained with a
/// size-bounded min-heap: O(n k log per_slot)); returns the deduplicated
/// union, at most k * per_slot candidates. An advertiser outside every
/// slot's top-k can be exchanged out of any optimal matching, so matching on
/// this subset is exact when per_slot >= k. per_slot == 0 (top-0) is the
/// valid degenerate case: no candidates. Ties in marginal weight break by
/// advertiser id — the higher id is retained first (the strict (weight, id)
/// order of TopKHeapSet), so the selection is a pure function of the matrix.
std::vector<AdvertiserId> SelectTopPerSlotCandidates(
    const RevenueMatrix& revenue, int per_slot);

/// Solves the reduced problem on an explicit candidate set: builds each
/// slot's top-k heap over the candidates' positive marginal weights and
/// matches on those edges (MaxWeightMatchingTopK), the optimum over the
/// candidates alone. When they include every slot's top k (as
/// SelectTopPerSlotCandidates(revenue, k) does), the result is
/// DetermineWinners(revenue, kReducedHungarian) bit for bit.
WdResult SolveOnCandidates(const RevenueMatrix& revenue,
                           const std::vector<AdvertiserId>& candidates);

/// Marginal weights in the advertiser-major layout the matching kernels use.
std::vector<double> MarginalWeights(const RevenueMatrix& revenue);

}  // namespace ssa

#endif  // SSA_CORE_WINNER_DETERMINATION_H_
