#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/winner_determination.h"
#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "matching/munkres.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/topk_heap.h"

namespace ssa {
namespace {

void ExpectValidAllocation(const Allocation& a, int n, int k) {
  ASSERT_EQ(a.num_slots(), k);
  ASSERT_EQ(a.num_advertisers(), n);
  std::vector<int> count(n, 0);
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = a.slot_to_advertiser[j];
    if (i >= 0) {
      ASSERT_LT(i, n);
      EXPECT_EQ(a.advertiser_to_slot[i], j);
      ++count[i];
    }
  }
  for (int c : count) EXPECT_LE(c, 1);  // one slot per advertiser
}

// Figure 9 revenue matrix: Nike(9,5) Adidas(8,7) Reebok(7,6) Sketchers(7,4).
// Optimal: Nike->slot1, Adidas->slot2 (9 + 7 = 16).
TEST(HungarianTest, PaperFigure9Example) {
  const std::vector<double> w = {9, 5, 8, 7, 7, 6, 7, 4};
  Allocation a = MaxWeightMatchingDense(w, 4, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 16.0);
  EXPECT_EQ(a.slot_to_advertiser[0], 0);  // Nike
  EXPECT_EQ(a.slot_to_advertiser[1], 1);  // Adidas
}

TEST(HungarianTest, LeavesSlotEmptyOnNegativeWeights) {
  const std::vector<double> w = {-1, -2, -3, -4};
  Allocation a = MaxWeightMatchingDense(w, 2, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 0.0);
  EXPECT_EQ(a.NumAssigned(), 0);
}

TEST(HungarianTest, MixedSignsPicksOnlyProfitable) {
  // Advertiser 0: +5 in slot 0, -1 in slot 1. Advertiser 1: negative both.
  const std::vector<double> w = {5, -1, -2, -3};
  Allocation a = MaxWeightMatchingDense(w, 2, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 5.0);
  EXPECT_EQ(a.slot_to_advertiser[0], 0);
  EXPECT_EQ(a.slot_to_advertiser[1], -1);
}

TEST(HungarianTest, FewerAdvertisersThanSlots) {
  const std::vector<double> w = {3, 2, 1};
  Allocation a = MaxWeightMatchingDense(w, 1, 3);
  EXPECT_DOUBLE_EQ(a.total_weight, 3.0);
  EXPECT_EQ(a.NumAssigned(), 1);
}

TEST(HungarianTest, SubsetRestrictsCandidates) {
  // Figure 9's advertisers 2 and 3 (Reebok, Sketchers) alone:
  // (2:7,3:4) = 11 via slots (0,1); (3:7,2:6) = 13.
  RevenueMatrix m(4, 2);
  const double values[4][2] = {{9, 5}, {8, 7}, {7, 6}, {7, 4}};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 2; ++j) m.Set(i, j, values[i][j]);
  }
  const WdResult r = SolveOnCandidates(m, {2, 3});
  EXPECT_DOUBLE_EQ(r.allocation.total_weight, 13.0);
  EXPECT_EQ(r.allocation.slot_to_advertiser[0], 3);
  EXPECT_EQ(r.allocation.slot_to_advertiser[1], 2);
  EXPECT_EQ(r.allocation.advertiser_to_slot[0], kNoSlot);
}

TEST(HungarianTest, PerfectMatchingForcedEvenIfNegative) {
  const std::vector<double> w = {-5, -1, -2, -8};
  Allocation a = MaxWeightPerfectMatchingSubset(w, 2, 2, {0, 1});
  EXPECT_EQ(a.NumAssigned(), 2);
  // Best perfect: 0->slot1 (-1) + 1->slot0 (-2) = -3.
  EXPECT_DOUBLE_EQ(a.total_weight, -3.0);
}

TEST(MunkresTest, PaperFigure9Example) {
  const std::vector<double> w = {9, 5, 8, 7, 7, 6, 7, 4};
  Allocation a = MunkresMatching(w, 4, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 16.0);
}

TEST(MunkresTest, NegativeWeightsLeaveEmpty) {
  const std::vector<double> w = {-1, -2, -3, -4};
  Allocation a = MunkresMatching(w, 2, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 0.0);
}

TEST(BruteForceTest, TinyExhaustive) {
  const std::vector<double> w = {9, 5, 8, 7, 7, 6, 7, 4};
  Allocation a = BruteForceMatching(w, 4, 2);
  EXPECT_DOUBLE_EQ(a.total_weight, 16.0);
}

// Property: all three solvers agree with the exhaustive optimum on random
// instances, including matrices with negative entries.
class MatchingAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(MatchingAgreement, AllSolversOptimal) {
  const auto [n, k, negatives] = GetParam();
  Rng rng(1000 + n * 31 + k * 7 + negatives);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<double> w = testing_util::RandomWeights(
        n, k, rng, negatives ? -5.0 : 0.0, 10.0);
    const Allocation oracle = BruteForceMatching(w, n, k);
    const Allocation jv = MaxWeightMatchingDense(w, n, k);
    const Allocation mk = MunkresMatching(w, n, k);
    ExpectValidAllocation(jv, n, k);
    ExpectValidAllocation(mk, n, k);
    EXPECT_NEAR(jv.total_weight, oracle.total_weight, 1e-9)
        << "JV suboptimal at trial " << trial;
    EXPECT_NEAR(mk.total_weight, oracle.total_weight, 1e-6)
        << "Munkres suboptimal at trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatchingAgreement,
    ::testing::Values(std::make_tuple(1, 1, false), std::make_tuple(3, 2, false),
                      std::make_tuple(5, 3, false), std::make_tuple(7, 3, false),
                      std::make_tuple(4, 4, false), std::make_tuple(6, 2, true),
                      std::make_tuple(5, 3, true), std::make_tuple(3, 4, true),
                      std::make_tuple(8, 2, true)));

// Larger randomized cross-check (JV vs Munkres only; brute force too slow).
TEST(MatchingAgreement, LargeJvVersusMunkres) {
  Rng rng(4242);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 200, k = 10;
    const std::vector<double> w =
        testing_util::RandomWeights(n, k, rng, -2.0, 10.0);
    const Allocation jv = MaxWeightMatchingDense(w, n, k);
    const Allocation mk = MunkresMatching(w, n, k);
    EXPECT_NEAR(jv.total_weight, mk.total_weight, 1e-6);
  }
}

/// The per-slot top-k heaps of the advertiser-major weights `w`, offered in
/// `order`: every weight through Offer (non-positive ones included, which
/// the kernel must skip) or, with `rows`, through OfferRow's fast reject.
TopKHeapSet TopKHeaps(const std::vector<double>& w, int k, int capacity,
                      const std::vector<AdvertiserId>& order, bool rows) {
  TopKHeapSet heaps;
  heaps.Reset(k, capacity);
  for (const AdvertiserId i : order) {
    const double* row = w.data() + static_cast<size_t>(i) * k;
    if (rows) {
      heaps.OfferRow(row, 0.0, i);
    } else {
      for (SlotIndex j = 0; j < k; ++j) heaps.Offer(j, row[j], i);
    }
  }
  return heaps;
}

// The sparse top-k kernel against the dense one as the oracle, on random
// instances with k in 1..15 and up to k^2 advertisers, zero and negative
// weights included. Continuous weights have a unique optimum on positive
// edges (almost surely): the kernel must seat exactly the dense optimum's
// positive edges (the dense kernel may add zero-weight ones) with a
// bit-equal total. Tie-heavy weights (multiples of 0.5) only need an equal
// total. Always: a valid matching of positive heap edges whose reported
// weights and total are the matrix's, independent of the heaps' capacity
// (k or k + 1) and of the order the weights were offered in.
TEST(TopKMatchingTest, MatchesDenseOracle) {
  Rng rng(35);
  int unique_instances = 0;
  int tie_instances = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(1, 15));
    const int n = static_cast<int>(rng.UniformInt(1, k * k));
    const bool ties = trial % 2 == 1;
    std::vector<double> w(static_cast<size_t>(n) * k);
    for (double& x : w) {
      if (ties) {
        x = 0.5 * static_cast<double>(rng.UniformInt(-2, 6));
      } else {
        const double u = rng.NextDouble();
        x = u < 0.15 ? 0.0 : u < 0.25 ? rng.Uniform(-5.0, 0.0)
                                      : rng.Uniform(0.0, 10.0);
      }
    }
    std::vector<AdvertiserId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    const TopKHeapSet heaps =
        TopKHeaps(w, k, k, order, /*rows=*/trial % 3 == 0);
    std::vector<double> seated;
    const Allocation sparse = MaxWeightMatchingTopK(heaps, n, &seated);
    const Allocation dense = MaxWeightMatchingDense(w, n, k);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", k " +
                 std::to_string(k) + ", n " + std::to_string(n));
    ASSERT_NO_FATAL_FAILURE(ExpectValidAllocation(sparse, n, k));
    ASSERT_EQ(seated.size(), static_cast<size_t>(k));
    double total = 0.0;  // ascending id order
    for (AdvertiserId i = 0; i < n; ++i) {
      const SlotIndex j = sparse.advertiser_to_slot[i];
      if (j == kNoSlot) continue;
      const double weight = w[static_cast<size_t>(i) * k + j];
      ASSERT_GT(weight, 0.0) << "seated a non-positive edge";
      ASSERT_EQ(seated[j], weight);
      total += weight;
    }
    for (SlotIndex j = 0; j < k; ++j) {
      if (sparse.slot_to_advertiser[j] < 0) {
        ASSERT_EQ(seated[j], 0.0);
      }
    }
    ASSERT_EQ(sparse.total_weight, total);
    ASSERT_LE(std::abs(sparse.total_weight - dense.total_weight),
              1e-12 * std::max(1.0, std::abs(dense.total_weight)));
    if (!ties) {
      std::vector<AdvertiserId> positive = dense.slot_to_advertiser;
      for (SlotIndex j = 0; j < k; ++j) {
        const AdvertiserId i = positive[j];
        if (i >= 0 && !(w[static_cast<size_t>(i) * k + j] > 0.0)) {
          positive[j] = -1;
        }
      }
      ASSERT_EQ(sparse.slot_to_advertiser, positive);
      ASSERT_EQ(sparse.total_weight, dense.total_weight);
      ++unique_instances;
    } else {
      ++tie_instances;
    }
    // Layout independence: a shuffled offer order into top-(k+1) heaps
    // holds the same top-k edges, so the result is the same bit for bit.
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(0, i)]);
    }
    const Allocation shuffled = MaxWeightMatchingTopK(
        TopKHeaps(w, k, k + 1, order, /*rows=*/trial % 3 != 0), n);
    ASSERT_EQ(shuffled.slot_to_advertiser, sparse.slot_to_advertiser);
    ASSERT_EQ(shuffled.total_weight, sparse.total_weight);
  }
  EXPECT_EQ(unique_instances, 6000);
  EXPECT_EQ(tie_instances, 6000);
}

TEST(TopKMatchingTest, EmptyAndNonPositiveHeapsSeatNobody) {
  TopKHeapSet heaps;
  heaps.Reset(3, 3);
  std::vector<double> seated;
  EXPECT_EQ(MaxWeightMatchingTopK(heaps, 0, &seated).NumAssigned(), 0);
  EXPECT_EQ(seated, std::vector<double>(3, 0.0));
  heaps.Offer(0, 0.0, 1);
  heaps.Offer(1, -2.0, 0);
  const Allocation a = MaxWeightMatchingTopK(heaps, 2);
  EXPECT_EQ(a.NumAssigned(), 0);
  EXPECT_EQ(a.total_weight, 0.0);
  heaps.Reset(0, 0);
  EXPECT_EQ(MaxWeightMatchingTopK(heaps, 4).num_slots(), 0);
}

TEST(MatchingTest, ZeroSlotsOrAdvertisers) {
  Allocation a = MaxWeightMatchingDense({}, 0, 0);
  EXPECT_EQ(a.NumAssigned(), 0);
  Allocation b = MunkresMatching({}, 0, 3);
  EXPECT_EQ(b.NumAssigned(), 0);
}

}  // namespace
}  // namespace ssa
