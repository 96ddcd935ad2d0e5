#ifndef SSA_MATCHING_HUNGARIAN_H_
#define SSA_MATCHING_HUNGARIAN_H_

#include <vector>

#include "matching/allocation.h"
#include "util/common.h"

namespace ssa {

/// Maximum-weight bipartite matching between k slots and n advertisers via
/// the shortest-augmenting-path (Jonker-Volgenant) formulation of the
/// Hungarian algorithm, O(k^2 * n). Negative-weight edges are never forced:
/// each slot may instead match a zero-weight dummy, i.e. stay empty. This is
/// the kernel RH runs on the reduced bipartite graph (Section III-E), where
/// n <= k^2 and the cost is the paper's O(k^5) term (O(k^4) for this
/// variant).
///
/// `weights` is advertiser-major, weights[i * k + j] = w(advertiser i,
/// slot j).
Allocation MaxWeightMatchingDense(const std::vector<double>& weights, int n,
                                  int k);

/// Forced perfect matching of all k slots (used by the heavyweight solver,
/// where a heavy slot *must* receive a heavyweight advertiser even at
/// negative marginal weight). Requires candidates.size() >= k. Returns the
/// maximum-weight perfect-on-slots matching.
Allocation MaxWeightPerfectMatchingSubset(
    const std::vector<double>& weights, int n, int k,
    const std::vector<AdvertiserId>& candidates);

}  // namespace ssa

#endif  // SSA_MATCHING_HUNGARIAN_H_
