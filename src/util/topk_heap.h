#ifndef SSA_UTIL_TOPK_HEAP_H_
#define SSA_UTIL_TOPK_HEAP_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "util/common.h"

namespace ssa {

/// A set of size-bounded min-heaps over (weight, advertiser) pairs stored in
/// one flat buffer — the reusable scratch behind the per-slot top-k kernels
/// (Section III-E candidate selection and the tree-aggregation leaves).
/// Replaces one std::priority_queue allocation per slot per call with a
/// single buffer that Reset() recycles, so the per-auction hot path stops
/// churning the allocator.
///
/// Ordering is the strict (weight, id) pair order the selection kernels rely
/// on: deterministic and insertion-order independent, so the retained top-k
/// set per heap is identical to the previous priority_queue implementation.
/// Tie-break: among equal weights the *larger* advertiser id ranks higher
/// (is retained first), so ExtractDescending lists tied entries with ids
/// descending. Within one auction ids are unique, so the order is total and
/// the retained set is a pure function of the offered multiset.
class TopKHeapSet {
 public:
  struct Entry {
    double weight;
    AdvertiserId id;
  };

  /// Prepares `num_heaps` empty heaps of capacity `capacity` each, reusing
  /// the existing buffer when large enough. Capacity 0 is a valid degenerate
  /// top-0: every Offer is rejected (k = 0 keeps no candidates).
  void Reset(int num_heaps, int capacity) {
    SSA_CHECK(num_heaps >= 0 && capacity >= 0);
    num_heaps_ = num_heaps;
    capacity_ = capacity;
    sizes_.assign(num_heaps, 0);
    floor_.assign(num_heaps, kMinPositive);
    const size_t needed = static_cast<size_t>(num_heaps) * capacity;
    if (entries_.size() < needed) entries_.resize(needed);
  }

  int num_heaps() const { return num_heaps_; }
  int capacity() const { return capacity_; }
  int size(int heap) const { return sizes_[heap]; }
  /// Heap-ordered (not sorted) view of a heap's current entries.
  const Entry* entries(int heap) const {
    return entries_.data() + static_cast<size_t>(heap) * capacity_;
  }

  /// Inserts (weight, id) into `heap`; once the heap is full, replaces the
  /// minimum iff (weight, id) strictly beats it. Returns whether the entry
  /// was retained.
  bool Offer(int heap, double weight, AdvertiserId id) {
    if (capacity_ == 0) return false;  // top-0 retains nothing
    Entry* e = entries_.data() + static_cast<size_t>(heap) * capacity_;
    int& n = sizes_[heap];
    const Entry x{weight, id};
    if (n < capacity_) {
      int i = n++;
      while (i > 0) {  // sift up
        const int parent = (i - 1) / 2;
        if (!Less(x, e[parent])) break;
        e[i] = e[parent];
        i = parent;
      }
      e[i] = x;
      if (n == capacity_) floor_[heap] = std::max(e[0].weight, kMinPositive);
      return true;
    }
    if (!Less(e[0], x)) return false;  // does not beat the current minimum
    int i = 0;  // replace the root, sift down
    for (;;) {
      int child = 2 * i + 1;
      if (child >= capacity_) break;
      if (child + 1 < capacity_ && Less(e[child + 1], e[child])) ++child;
      if (!Less(e[child], x)) break;
      e[i] = e[child];
      i = child;
    }
    e[i] = x;
    floor_[heap] = std::max(e[0].weight, kMinPositive);
    return true;
  }

  /// Offers advertiser `id`'s marginal weights row[j] - base into heap j,
  /// for every heap j: one revenue-matrix row's step of the per-slot top-k
  /// selection. One compare against the heap's floor rejects a weight that
  /// cannot enter: before the heap is full, any weight at or below +0.0
  /// (it never beats leaving the slot empty; NaN is rejected too); once it
  /// is full, any weight below its root. A weight equal to the root is
  /// still offered, since the larger id wins the tie. The retained sets are
  /// exactly those of offering every positive weight.
  void OfferRow(const double* row, double base, AdvertiserId id) {
    const double* floor = floor_.data();  // Offer updates it in place
    const int num_heaps = num_heaps_;
    for (int j = 0; j < num_heaps; ++j) {
      const double w = row[j] - base;
      if (w >= floor[j]) Offer(j, w, id);
    }
  }

  /// Copies `heap`'s entries into *out sorted descending by (weight, id).
  void ExtractDescending(
      int heap, std::vector<std::pair<double, AdvertiserId>>* out) const {
    const Entry* e = entries(heap);
    const int n = sizes_[heap];
    out->clear();
    out->reserve(n);
    for (int i = 0; i < n; ++i) out->emplace_back(e[i].weight, e[i].id);
    std::sort(out->rbegin(), out->rend());
  }

 private:
  static bool Less(const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.id < b.id;
  }

  int num_heaps_ = 0;
  int capacity_ = 0;
  std::vector<int> sizes_;
  /// The smallest positive double: `w >= kMinPositive` is `w > 0.0`.
  static constexpr double kMinPositive =
      std::numeric_limits<double>::denorm_min();

  /// Per heap, OfferRow's admission bound: kMinPositive until the heap is
  /// full, then the larger of its root's weight and kMinPositive.
  std::vector<double> floor_;
  std::vector<Entry> entries_;
};

}  // namespace ssa

#endif  // SSA_UTIL_TOPK_HEAP_H_
