#include <algorithm>

#include <gtest/gtest.h>

#include "core/parallel_topk.h"
#include "core/winner_determination.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssa {
namespace {

// The tree network must produce the same candidate set as the sequential
// per-slot heaps, regardless of the leaf partitioning.
class TreeTopKBlocks : public ::testing::TestWithParam<int> {};

TEST_P(TreeTopKBlocks, MatchesSequentialSelection) {
  const int num_blocks = GetParam();
  Rng rng(17);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(300, 6, rng, 10.0, 3.0);
  const std::vector<AdvertiserId> sequential =
      SelectTopPerSlotCandidates(m, 6);
  const TreeAggregationResult tree = TreeTopKAggregate(m, num_blocks);
  EXPECT_EQ(tree.candidates, sequential);
}

INSTANTIATE_TEST_SUITE_P(Blocks, TreeTopKBlocks,
                         ::testing::Values(1, 2, 3, 7, 16, 300));

TEST(TreeTopKTest, WithThreadPoolSameResult) {
  Rng rng(23);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(500, 8, rng, 10.0, 2.0);
  ThreadPool pool(4);
  const TreeAggregationResult serial = TreeTopKAggregate(m, 16, nullptr);
  const TreeAggregationResult parallel = TreeTopKAggregate(m, 16, &pool);
  EXPECT_EQ(serial.candidates, parallel.candidates);
}

TEST(TreeTopKTest, MergeLevelsIsLogOfBlocks) {
  Rng rng(5);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(64, 3, rng);
  EXPECT_EQ(TreeTopKAggregate(m, 1).merge_levels, 0);
  EXPECT_EQ(TreeTopKAggregate(m, 2).merge_levels, 1);
  EXPECT_EQ(TreeTopKAggregate(m, 8).merge_levels, 3);
  // Non-power-of-two: ceil(log2 6) = 3.
  EXPECT_EQ(TreeTopKAggregate(m, 6).merge_levels, 3);
}

TEST(TreeTopKTest, SolveOnTreeCandidatesIsOptimal) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    RevenueMatrix m = testing_util::RandomRevenueMatrix(150, 5, rng, 10.0, 3.0);
    const TreeAggregationResult tree = TreeTopKAggregate(m, 8);
    const WdResult via_tree = SolveOnCandidates(m, tree.candidates);
    const WdResult exact = DetermineWinners(m, WdMethod::kHungarian);
    EXPECT_NEAR(via_tree.expected_revenue, exact.expected_revenue, 1e-9);
  }
}

TEST(TreeTopKTest, CriticalPathAccountsLeafAndLevels) {
  Rng rng(41);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(2000, 10, rng);
  const TreeAggregationResult r = TreeTopKAggregate(m, 32);
  double sum = r.leaf_critical_ms;
  for (double level : r.level_critical_ms) sum += level;
  EXPECT_NEAR(r.critical_path_ms, sum, 1e-9);
  EXPECT_EQ(static_cast<int>(r.level_critical_ms.size()), r.merge_levels);
}

TEST(TreeTopKTest, MoreBlocksThanAdvertisersClamps) {
  Rng rng(43);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(5, 2, rng);
  const TreeAggregationResult r = TreeTopKAggregate(m, 64);
  const std::vector<AdvertiserId> sequential = SelectTopPerSlotCandidates(m, 2);
  EXPECT_EQ(r.candidates, sequential);
}

TEST(TreeTopKTest, ZeroSlotsYieldsNoCandidates) {
  // k = 0: a matrix with no slots selects nobody, through both the
  // sequential heaps (top-0) and the tree network.
  Rng rng(47);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(20, 0, rng);
  EXPECT_TRUE(SelectTopPerSlotCandidates(m, 0).empty());
  EXPECT_TRUE(TreeTopKAggregate(m, 4).candidates.empty());
}

TEST(TreeTopKTest, MoreSlotsThanAdvertisers) {
  // k >= n: every advertiser with any positive marginal weight is a
  // candidate, and tree and sequential selection agree exactly.
  Rng rng(53);
  RevenueMatrix m = testing_util::RandomRevenueMatrix(3, 8, rng, 10.0, 3.0);
  const std::vector<AdvertiserId> sequential = SelectTopPerSlotCandidates(m, 8);
  for (int blocks : {1, 2, 3}) {
    EXPECT_EQ(TreeTopKAggregate(m, blocks).candidates, sequential);
  }
}

TEST(TreeTopKTest, TiedRevenuesStableAcrossPartitionings) {
  // All-equal positive weights force every retained set to be decided by
  // the documented id tie-break (higher id ranks first); any leaf
  // partitioning must select the same candidates as the sequential scan.
  RevenueMatrix m(30, 4);
  for (AdvertiserId i = 0; i < 30; ++i) {
    for (SlotIndex j = 0; j < 4; ++j) m.Set(i, j, 5.0);
  }
  const std::vector<AdvertiserId> sequential = SelectTopPerSlotCandidates(m, 4);
  // Top-4 per slot under the tie-break = the four largest ids.
  EXPECT_EQ(sequential, (std::vector<AdvertiserId>{26, 27, 28, 29}));
  for (int blocks : {1, 2, 5, 16, 30}) {
    EXPECT_EQ(TreeTopKAggregate(m, blocks).candidates, sequential)
        << "blocks=" << blocks;
  }
}

}  // namespace
}  // namespace ssa
