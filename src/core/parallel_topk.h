#ifndef SSA_CORE_PARALLEL_TOPK_H_
#define SSA_CORE_PARALLEL_TOPK_H_

#include <utility>
#include <vector>

#include "core/expected_revenue.h"
#include "util/common.h"
#include "util/thread_pool.h"

namespace ssa {

/// Result of the tree-aggregation candidate selection (Section III-E,
/// "Parallelization"): the union over slots of each slot's top-k bidders,
/// computed by p leaf machines followed by a binary merge tree of height
/// ceil(log2 p).
struct TreeAggregationResult {
  /// Union of per-slot top-k advertisers (sorted, deduplicated) — feed to
  /// SolveOnCandidates for the O(k^5) root matching.
  std::vector<AdvertiserId> candidates;
  /// Number of merge levels executed (= ceil(log2 num_blocks)).
  int merge_levels = 0;
  /// Measured wall time of the slowest leaf task (ms).
  double leaf_critical_ms = 0.0;
  /// Measured wall time of the slowest merge task per level (ms).
  std::vector<double> level_critical_ms;
  /// Modeled parallel makespan: slowest leaf + sum of per-level slowest
  /// merges — the O((n/p) k log k + k log p) time of the paper's network,
  /// with each tree node mapped to a task.
  double critical_path_ms = 0.0;
};

/// Partial aggregate held by one node of the Section III-E tree network:
/// for each slot, the top-k (weight, advertiser) pairs seen in its subtree,
/// sorted descending by the strict (weight, id) order (ties listed with ids
/// descending — the TopKHeapSet order). Leaves produce these from advertiser
/// ranges.
struct SlotTopK {
  // per-slot sorted lists, each of size <= k.
  std::vector<std::vector<std::pair<double, AdvertiserId>>> per_slot;
};

/// Merges two nodes' sorted per-slot lists keeping the top k per slot —
/// O(k) per slot, the constant-time-per-level step of the paper's network.
/// Associative over the strict (weight, id) order: any merge tree over the
/// same leaves retains exactly the top-k of the union.
SlotTopK MergeSlotTopK(const SlotTopK& a, const SlotTopK& b, int k);

/// Simulates the paper's k binary-tree aggregation networks on a thread
/// pool: advertisers are split into `num_blocks` leaf blocks; each leaf
/// computes its local per-slot top-k (size-k heaps); adjacent partial
/// results are merged pairwise (sorted top-k list merge, O(k) per slot) for
/// ceil(log2 num_blocks) levels; the root takes the union across slots.
///
/// With `pool == nullptr` every task runs inline (pure simulation of the
/// distributed schedule); with a pool, tasks of the same level run
/// concurrently, separated by a level barrier exactly like the synchronous
/// tree network.
TreeAggregationResult TreeTopKAggregate(const RevenueMatrix& revenue,
                                        int num_blocks,
                                        ThreadPool* pool = nullptr);

}  // namespace ssa

#endif  // SSA_CORE_PARALLEL_TOPK_H_
