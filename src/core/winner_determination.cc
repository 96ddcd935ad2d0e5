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

std::vector<AdvertiserId> SelectTopPerSlotCandidates(
    const RevenueMatrix& revenue, int per_slot) {
  SSA_CHECK(per_slot >= 0);  // per_slot == 0 degenerates to no candidates
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();

  // One size-bounded min-heap per slot over (weight, advertiser). The root
  // is the weakest of the current top `per_slot`, so each of the n*k entries
  // costs O(log per_slot) — the O(nk log k) term of Section III-E. The k
  // heaps live in one thread-local flat buffer reused across auctions (no
  // per-call priority_queue allocations); Offer() applies the strict
  // (weight, id) pair order, deterministic and insertion-order independent,
  // so the Threshold Algorithm pipeline selects the identical candidate set
  // (equivalence tests rely on this).
  thread_local TopKHeapSet heaps;
  heaps.Reset(k, per_slot);
  const double* base = revenue.UnassignedData();
  for (AdvertiserId i = 0; i < n; ++i) {
    const double* row = revenue.Row(i);
    for (SlotIndex j = 0; j < k; ++j) {
      const double w = row[j] - base[i];
      if (w <= 0.0) continue;  // never beats leaving the slot empty
      heaps.Offer(j, w, i);
    }
  }

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
  const int k = revenue.num_slots();
  const double* base = revenue.UnassignedData();
  std::vector<double> rows(candidates.size() * static_cast<size_t>(k));
  for (size_t c = 0; c < candidates.size(); ++c) {
    const AdvertiserId i = candidates[c];
    const double* row = revenue.Row(i);
    for (SlotIndex j = 0; j < k; ++j) rows[c * k + j] = row[j] - base[i];
  }
  return SolveCandidateRows(rows, candidates, revenue.num_advertisers(), k,
                            revenue.UnassignedTotal());
}

WdResult SolveCandidateRows(const std::vector<double>& rows,
                            const std::vector<AdvertiserId>& candidates,
                            int num_advertisers, int num_slots,
                            double unassigned_total) {
  const int m = static_cast<int>(candidates.size());
  // The kernel sums the chosen edges in candidate order whichever layout it
  // reads, so the compact block gives the full-matrix total bit for bit.
  const Allocation reduced = MaxWeightMatchingDense(rows, m, num_slots);
  WdResult result;
  result.allocation = Allocation::Empty(num_advertisers, num_slots);
  for (SlotIndex j = 0; j < num_slots; ++j) {
    const int c = reduced.slot_to_advertiser[j];
    if (c < 0) continue;
    result.allocation.slot_to_advertiser[j] = candidates[c];
    result.allocation.advertiser_to_slot[candidates[c]] = j;
  }
  result.allocation.total_weight = reduced.total_weight;
  result.matching_weight = reduced.total_weight;
  result.expected_revenue = result.matching_weight + unassigned_total;
  return result;
}

namespace {

/// Canonicalizes an optimal allocation: an edge with non-positive marginal
/// weight is revenue-neutral (or harmful) versus leaving the slot empty, so
/// it is dropped. RH never produces such edges (its candidate heaps keep
/// strictly positive weights only); LP and Munkres can tie-break toward
/// filling a slot with a zero-weight advertiser, which would make the
/// methods observably different auctions (a seated zero-bidder still
/// collects clicks and mutates its ROI state). After this pass all methods
/// yield the same allocation except on exact positive-weight ties.
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
      return SolveOnCandidates(revenue,
                               SelectTopPerSlotCandidates(revenue, k));
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
