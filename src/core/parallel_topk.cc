#include "core/parallel_topk.h"

#include <algorithm>

#include "util/timer.h"
#include "util/topk_heap.h"

namespace ssa {
namespace {

/// Leaf computation: local per-slot top-k over an advertiser range via
/// size-k min-heaps — O((hi-lo) * k log k). All k heaps live in one
/// thread-local flat buffer (each pool worker reuses its own across leaves
/// and auctions), and the revenue matrix is streamed advertiser-major via
/// the unchecked row pointers, so the scan is allocation-free and
/// cache-friendly. The retained per-slot sets are identical to the previous
/// priority_queue implementation (same strict (weight, id) pair order).
SlotTopK ComputeLeaf(const RevenueMatrix& revenue, AdvertiserId lo,
                     AdvertiserId hi) {
  const int k = revenue.num_slots();
  SlotTopK state;
  state.per_slot.resize(k);
  thread_local TopKHeapSet heaps;
  heaps.Reset(k, std::max(k, 1));
  const double* base = revenue.UnassignedData();
  for (AdvertiserId i = lo; i < hi; ++i) {
    const double* row = revenue.Row(i);
    for (SlotIndex j = 0; j < k; ++j) {
      const double w = row[j] - base[i];
      if (w <= 0.0) continue;
      heaps.Offer(j, w, i);
    }
  }
  for (SlotIndex j = 0; j < k; ++j) {
    heaps.ExtractDescending(j, &state.per_slot[j]);
  }
  return state;
}

/// Root extraction: union of the per-slot lists, deduplicated, sorted
/// ascending (canonical — heap and merge order are immaterial).
std::vector<AdvertiserId> ExtractCandidates(const SlotTopK& root,
                                            int num_advertisers) {
  std::vector<char> seen(num_advertisers, 0);
  std::vector<AdvertiserId> candidates;
  for (const auto& list : root.per_slot) {
    for (const auto& [w, i] : list) {
      (void)w;
      if (!seen[i]) {
        seen[i] = 1;
        candidates.push_back(i);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

}  // namespace

SlotTopK MergeSlotTopK(const SlotTopK& a, const SlotTopK& b, int k) {
  SlotTopK out;
  const int slots = static_cast<int>(a.per_slot.size());
  out.per_slot.resize(slots);
  for (int j = 0; j < slots; ++j) {
    const auto& la = a.per_slot[j];
    const auto& lb = b.per_slot[j];
    auto& lo = out.per_slot[j];
    lo.reserve(std::min<size_t>(k, la.size() + lb.size()));
    size_t ia = 0, ib = 0;
    while (lo.size() < static_cast<size_t>(k) &&
           (ia < la.size() || ib < lb.size())) {
      if (ib >= lb.size() || (ia < la.size() && la[ia] >= lb[ib])) {
        lo.push_back(la[ia++]);
      } else {
        lo.push_back(lb[ib++]);
      }
    }
  }
  return out;
}

TreeAggregationResult TreeTopKAggregate(const RevenueMatrix& revenue,
                                        int num_blocks, ThreadPool* pool) {
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();
  SSA_CHECK(num_blocks >= 1);
  num_blocks = std::min(num_blocks, std::max(1, n));

  TreeAggregationResult result;

  // --- Leaf level: p parallel blocks of ~n/p advertisers each.
  std::vector<SlotTopK> level(num_blocks);
  std::vector<double> leaf_ms(num_blocks, 0.0);
  auto leaf_task = [&](int b) {
    WallTimer timer;
    const AdvertiserId lo = static_cast<AdvertiserId>(
        static_cast<int64_t>(n) * b / num_blocks);
    const AdvertiserId hi = static_cast<AdvertiserId>(
        static_cast<int64_t>(n) * (b + 1) / num_blocks);
    level[b] = ComputeLeaf(revenue, lo, hi);
    leaf_ms[b] = timer.ElapsedMillis();
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_blocks, leaf_task);
  } else {
    for (int b = 0; b < num_blocks; ++b) leaf_task(b);
  }
  result.leaf_critical_ms =
      *std::max_element(leaf_ms.begin(), leaf_ms.end());
  result.critical_path_ms = result.leaf_critical_ms;

  // --- Merge levels: pairwise, with a barrier per level (the synchronous
  // tree network of Section III-E), each level timed.
  while (level.size() > 1) {
    const int pairs = static_cast<int>(level.size()) / 2;
    const bool odd = (level.size() % 2) != 0;
    std::vector<SlotTopK> next(pairs + (odd ? 1 : 0));
    std::vector<double> merge_ms(pairs, 0.0);
    auto merge_task = [&](int p) {
      WallTimer timer;
      next[p] = MergeSlotTopK(level[2 * p], level[2 * p + 1], k);
      merge_ms[p] = timer.ElapsedMillis();
    };
    if (pool != nullptr) {
      pool->ParallelFor(pairs, merge_task);
    } else {
      for (int p = 0; p < pairs; ++p) merge_task(p);
    }
    if (odd) next.back() = std::move(level.back());
    const double level_max =
        pairs > 0 ? *std::max_element(merge_ms.begin(), merge_ms.end()) : 0.0;
    result.level_critical_ms.push_back(level_max);
    result.critical_path_ms += level_max;
    ++result.merge_levels;
    level = std::move(next);
  }

  // --- Root: union of per-slot lists.
  result.candidates = ExtractCandidates(level[0], n);
  return result;
}

}  // namespace ssa
