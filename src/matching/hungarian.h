#ifndef SSA_MATCHING_HUNGARIAN_H_
#define SSA_MATCHING_HUNGARIAN_H_

#include <vector>

#include "matching/allocation.h"
#include "util/common.h"
#include "util/topk_heap.h"

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

/// Reduced-Hungarian winner determination on the per-slot top-k edges
/// (Section III-E), k = heaps.num_heaps(). Heap j holds slot j's
/// highest-ranked advertisers under the strict (weight, id) order; its
/// edges are its top k entries (a heap holding k + 1 leaves out its root,
/// the (k+1)-th), and a non-positive weight is never an edge. By the
/// exchange argument an optimal matching uses only these edges: were slot
/// j given to an advertiser outside its top k, some member of that top k
/// would be unseated and could take the slot at no loss.
///
/// Shortest augmenting path (Jonker & Volgenant, Computing 38, 1987) with
/// rows = slots: each row has its <= k edges plus a private zero-weight
/// "leave empty" column, and each augmentation touches only the columns its
/// search reaches, O(k * edges) at most, against the dense kernel's
/// O(k * (m + k)) per augmentation on m candidate rows. Columns are the
/// distinct advertisers in ascending id order and ties between equal
/// reduced costs go to the lower column, so the matching depends only on
/// the heaps' contents, not their layout. The total sums the chosen edges
/// in ascending id order: MaxWeightMatchingDense's sum, bit for bit,
/// whenever its optimum is unique (it may also seat zero-weight edges,
/// which add +0.0).
///
/// Returns the allocation over `num_advertisers` (every id in the heaps must
/// be below it); when `seated_weight` is not null, (*seated_weight)[j] is
/// slot j's chosen edge weight, +0.0 for an empty slot.
Allocation MaxWeightMatchingTopK(const TopKHeapSet& heaps, int num_advertisers,
                                 std::vector<double>* seated_weight = nullptr);

/// Forced perfect matching of all k slots (used by the heavyweight solver,
/// where a heavy slot *must* receive a heavyweight advertiser even at
/// negative marginal weight). Requires candidates.size() >= k. Returns the
/// maximum-weight perfect-on-slots matching.
Allocation MaxWeightPerfectMatchingSubset(
    const std::vector<double>& weights, int n, int k,
    const std::vector<AdvertiserId>& candidates);

}  // namespace ssa

#endif  // SSA_MATCHING_HUNGARIAN_H_
