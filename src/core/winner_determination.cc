#include "core/winner_determination.h"

#include <algorithm>

#include "lp/assignment_lp.h"
#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "matching/munkres.h"
#include "util/topk_heap.h"

namespace ssa {

std::string WdMethodName(WdMethod method) {
  switch (method) {
    case WdMethod::kLp:
      return "LP";
    case WdMethod::kHungarian:
      return "H";
    case WdMethod::kReducedHungarian:
      return "RH";
    case WdMethod::kBruteForce:
      return "BF";
  }
  return "?";
}

std::vector<double> MarginalWeights(const RevenueMatrix& revenue) {
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();
  std::vector<double> w(static_cast<size_t>(n) * k);
  const double* base = revenue.UnassignedData();
  for (AdvertiserId i = 0; i < n; ++i) {
    const double* row = revenue.Row(i);
    double* out = w.data() + static_cast<size_t>(i) * k;
    for (SlotIndex j = 0; j < k; ++j) out[j] = row[j] - base[i];
  }
  return w;
}

namespace {

/// The per-slot top-`per_slot` heaps over advertisers [0, n), or over
/// `*ids` when not null: one size-bounded min-heap per slot over
/// (weight, advertiser). The root is the weakest of the current top
/// `per_slot`, so each of the n*k entries costs O(log per_slot) at most —
/// the O(nk log k) term of Section III-E — and OfferRow rejects most of
/// them against the root without touching the heap. The k heaps live in
/// one thread-local flat buffer reused across auctions; the strict
/// (weight, id) order makes the retained sets deterministic and
/// insertion-order independent, so the Threshold Algorithm pipeline
/// selects the identical sets (equivalence tests rely on this).
const TopKHeapSet& TopPerSlot(const RevenueMatrix& revenue, int per_slot,
                              const std::vector<AdvertiserId>* ids) {
  SSA_CHECK(per_slot >= 0);  // per_slot == 0 degenerates to empty heaps
  thread_local TopKHeapSet heaps;
  heaps.Reset(revenue.num_slots(), per_slot);
  const double* base = revenue.UnassignedData();
  if (ids == nullptr) {
    for (AdvertiserId i = 0; i < revenue.num_advertisers(); ++i) {
      heaps.OfferRow(revenue.Row(i), base[i], i);
    }
  } else {
    for (const AdvertiserId i : *ids) {
      heaps.OfferRow(revenue.Row(i), base[i], i);
    }
  }
  return heaps;
}

/// RH's solve on the top-k heaps of `revenue`'s rows.
WdResult SolveTopK(const TopKHeapSet& heaps, const RevenueMatrix& revenue) {
  WdResult result;
  result.allocation =
      MaxWeightMatchingTopK(heaps, revenue.num_advertisers());
  result.matching_weight = result.allocation.total_weight;
  result.expected_revenue = result.matching_weight + revenue.UnassignedTotal();
  return result;
}

}  // namespace

std::vector<AdvertiserId> SelectTopPerSlotCandidates(
    const RevenueMatrix& revenue, int per_slot) {
  const TopKHeapSet& heaps = TopPerSlot(revenue, per_slot, nullptr);
  const int k = revenue.num_slots();
  std::vector<AdvertiserId> candidates;
  candidates.reserve(static_cast<size_t>(k) * per_slot);
  for (SlotIndex j = 0; j < k; ++j) {
    const TopKHeapSet::Entry* entries = heaps.entries(j);
    for (int e = 0; e < heaps.size(j); ++e) {
      candidates.push_back(entries[e].id);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

WdResult SolveOnCandidates(const RevenueMatrix& revenue,
                           const std::vector<AdvertiserId>& candidates) {
  return SolveTopK(TopPerSlot(revenue, revenue.num_slots(), &candidates),
                   revenue);
}

namespace {

/// Canonicalizes an optimal allocation: an edge with non-positive marginal
/// weight is revenue-neutral (or harmful) versus leaving the slot empty, so
/// it is dropped. LP, Munkres and brute force can tie-break toward filling
/// a slot with a zero-weight advertiser, which would make the methods
/// observably different auctions (a seated zero-bidder still collects
/// clicks and mutates its ROI state). RH needs no pass: its edges are the
/// per-slot top-k heaps' entries, and a non-positive weight never enters a
/// heap. After this pass all methods yield the same allocation except on
/// exact positive-weight ties.
void DropNonPositiveEdges(const RevenueMatrix& revenue, Allocation* a) {
  a->total_weight = 0.0;
  for (SlotIndex j = 0; j < a->num_slots(); ++j) {
    const AdvertiserId i = a->slot_to_advertiser[j];
    if (i < 0) continue;
    const double w = revenue.MarginalWeight(i, j);
    if (w <= 0.0) {
      a->slot_to_advertiser[j] = -1;
      a->advertiser_to_slot[i] = kNoSlot;
    } else {
      a->total_weight += w;
    }
  }
}

}  // namespace

WdResult DetermineWinners(const RevenueMatrix& revenue, WdMethod method) {
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();
  WdResult result;
  switch (method) {
    case WdMethod::kLp: {
      const std::vector<double> w = MarginalWeights(revenue);
      StatusOr<Allocation> alloc = SolveAssignmentLp(w, n, k);
      SSA_CHECK_MSG(alloc.ok(), alloc.status().ToString().c_str());
      result.allocation = *std::move(alloc);
      break;
    }
    case WdMethod::kHungarian: {
      result.allocation = MunkresMatching(MarginalWeights(revenue), n, k);
      break;
    }
    case WdMethod::kReducedHungarian: {
      return SolveTopK(TopPerSlot(revenue, k, nullptr), revenue);
    }
    case WdMethod::kBruteForce: {
      result.allocation = BruteForceMatching(MarginalWeights(revenue), n, k);
      break;
    }
  }
  DropNonPositiveEdges(revenue, &result.allocation);
  result.matching_weight = result.allocation.total_weight;
  result.expected_revenue = result.matching_weight + revenue.UnassignedTotal();
  return result;
}

}  // namespace ssa
