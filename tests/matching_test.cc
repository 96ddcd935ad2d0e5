#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/winner_determination.h"
#include "matching/brute_force.h"
#include "matching/hungarian.h"
#include "matching/munkres.h"
#include "test_util.h"
#include "util/rng.h"

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
  // Figure 9's advertisers 2 and 3 (Reebok, Sketchers) alone, as the rows
  // SolveCandidateRows reads: (2:7,3:4) = 11 via slots (0,1); (3:7,2:6) = 13.
  const std::vector<double> rows = {7, 6, 7, 4};
  const WdResult r = SolveCandidateRows(rows, {2, 3}, 4, 2, 0.0);
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

TEST(MatchingTest, ZeroSlotsOrAdvertisers) {
  Allocation a = MaxWeightMatchingDense({}, 0, 0);
  EXPECT_EQ(a.NumAssigned(), 0);
  Allocation b = MunkresMatching({}, 0, 3);
  EXPECT_EQ(b.NumAssigned(), 0);
}

}  // namespace
}  // namespace ssa
