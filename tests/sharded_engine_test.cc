// ShardedAuctionEngine equivalence: for any shard count K and any pool, the
// sharded engine must reproduce the serial reference engine's auction
// trajectory (tests/reference_engine.h) *bitwise* — allocations, prices,
// user events, revenue, and account balances. The shard phase only
// re-partitions share-nothing work and the top-k merge preserves the exact
// candidate set, so nothing may drift.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "reference_engine.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"
#include "util/thread_pool.h"

namespace ssa {
namespace {

std::vector<std::unique_ptr<BiddingStrategy>> RoiStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

WorkloadConfig SmallConfig(uint64_t seed = 1) {
  WorkloadConfig config;
  config.num_advertisers = 40;
  config.num_slots = 5;
  config.num_keywords = 4;
  config.seed = seed;
  return config;
}

/// Runs both engines in lockstep and asserts bitwise-equal trajectories.
void ExpectBitwiseEquivalent(ReferenceEngine* reference,
                             ShardedAuctionEngine* sharded, int auctions) {
  for (int t = 0; t < auctions; ++t) {
    const AuctionOutcome& a = reference->RunAuction();
    const AuctionOutcome& b = sharded->RunAuction();
    ASSERT_EQ(a.query.keyword, b.query.keyword);
    ASSERT_EQ(a.wd.allocation.slot_to_advertiser,
              b.wd.allocation.slot_to_advertiser);
    ASSERT_EQ(a.wd.matching_weight, b.wd.matching_weight);
    ASSERT_EQ(a.wd.expected_revenue, b.wd.expected_revenue);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t e = 0; e < a.events.size(); ++e) {
      ASSERT_EQ(a.events[e].advertiser, b.events[e].advertiser);
      ASSERT_EQ(a.events[e].slot, b.events[e].slot);
      ASSERT_EQ(a.events[e].clicked, b.events[e].clicked);
      ASSERT_EQ(a.events[e].purchased, b.events[e].purchased);
      ASSERT_EQ(a.events[e].charged, b.events[e].charged);  // exact doubles
    }
    ASSERT_EQ(a.revenue_charged, b.revenue_charged);
  }
  ASSERT_EQ(reference->total_revenue(), sharded->total_revenue());
  // Account state must have evolved identically (ROI inputs feed future
  // bids, so any divergence here would compound).
  const auto& accounts_a = reference->accounts();
  const auto& accounts_b = sharded->accounts();
  ASSERT_EQ(accounts_a.size(), accounts_b.size());
  for (size_t i = 0; i < accounts_a.size(); ++i) {
    ASSERT_EQ(accounts_a[i].amount_spent, accounts_b[i].amount_spent);
    ASSERT_EQ(accounts_a[i].spent_per_keyword, accounts_b[i].spent_per_keyword);
    ASSERT_EQ(accounts_a[i].value_gained, accounts_b[i].value_gained);
  }
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedEquivalenceTest, MatchesReferenceBitwise) {
  const int num_shards = GetParam();
  Workload w1 = MakePaperWorkload(SmallConfig(11));
  Workload w2 = MakePaperWorkload(SmallConfig(11));
  EngineConfig engine_config;
  engine_config.seed = 13;
  ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config;
  sharded_config.num_shards = num_shards;
  ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
  ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));
  ASSERT_EQ(sharded.num_shards(), num_shards);
  ExpectBitwiseEquivalent(&reference, &sharded, 150);
}

TEST_P(ShardedEquivalenceTest, MatchesReferenceBitwiseOnPool) {
  const int num_shards = GetParam();
  Workload w1 = MakePaperWorkload(SmallConfig(23));
  Workload w2 = MakePaperWorkload(SmallConfig(23));
  EngineConfig engine_config;
  engine_config.seed = 29;
  ThreadPool pool(3);
  ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config;
  sharded_config.num_shards = num_shards;
  sharded_config.pool = &pool;
  ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
  ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));
  ExpectBitwiseEquivalent(&reference, &sharded, 100);
}

// 8 and 12 cross ShardedAuctionEngine::kTreeMergeMinShards: those instances
// run the coordinator merge through the Section III-E parallel_topk tree
// network (12 also exercises the odd-node promotion), and must stay as
// bitwise as the flat re-offer path below the threshold.
INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalenceTest,
                         ::testing::Values(1, 2, 7, 8, 12));

TEST(ShardedEngineTest, DenseWdMethodsAlsoMatch) {
  // The non-reduced methods skip the top-k merge and run on the full
  // matrix; they must match the reference too.
  for (const WdMethod method : {WdMethod::kLp, WdMethod::kHungarian}) {
    WorkloadConfig wc = SmallConfig(21);
    wc.num_advertisers = 15;  // keep the LP small
    wc.num_slots = 4;
    Workload w1 = MakePaperWorkload(wc);
    Workload w2 = MakePaperWorkload(wc);
    EngineConfig engine_config;
    engine_config.wd_method = method;
    ShardedEngineConfig sharded_config;
    sharded_config.engine = engine_config;
    sharded_config.num_shards = 3;
    ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
    ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));
    ExpectBitwiseEquivalent(&reference, &sharded, 60);
  }
}

TEST(ShardedEngineTest, VcgPricingMatches) {
  Workload w1 = MakePaperWorkload(SmallConfig(31));
  Workload w2 = MakePaperWorkload(SmallConfig(31));
  EngineConfig engine_config;
  engine_config.pricing = PricingRule::kVcg;
  ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config;
  sharded_config.num_shards = 2;
  ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
  ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));
  ExpectBitwiseEquivalent(&reference, &sharded, 50);
}

TEST(ShardedEngineTest, PurchaseWorkloadMatchesBitwise) {
  // purchase_given_click > 0 adds a second user-RNG draw per clicked slot;
  // the sharded engine must keep the draw sequence — and thus purchases,
  // value updates, and accounts — bitwise identical, including across the
  // tree-merge shard counts.
  for (const int num_shards : {2, 8}) {
    WorkloadConfig wc = SmallConfig(59);
    wc.purchase_given_click = 0.5;
    Workload w1 = MakePaperWorkload(wc);
    Workload w2 = MakePaperWorkload(wc);
    EngineConfig engine_config;
    engine_config.seed = 61;
    ShardedEngineConfig sharded_config;
    sharded_config.engine = engine_config;
    sharded_config.num_shards = num_shards;
    ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
    ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));
    ExpectBitwiseEquivalent(&reference, &sharded, 120);
    // The purchase path must actually fire for the equivalence to mean
    // anything.
    int purchases = 0;
    for (int t = 0; t < 50; ++t) {
      for (const UserEvent& e : sharded.RunAuction().events) {
        purchases += e.purchased;
      }
    }
    EXPECT_GT(purchases, 0);
  }
}

// Figure 5's Equalize-ROI program (the lang_equivalence_test form).
constexpr const char kEqualizeRoi[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid > 0;
  ENDIF;
  UPDATE Bids SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7 AND K.formula = Bids.formula );
}
)sql";

/// One compiled Figure 5 program per advertiser, with keyword formulas
/// cycling Click / Click & Slot1 / Purchase (written into the workload).
std::vector<std::unique_ptr<BiddingStrategy>> ProgramStrategies(
    Workload* workload) {
  std::vector<ProgramStrategy::KeywordSpec> keywords;
  workload->keyword_formulas.clear();
  for (int kw = 0; kw < workload->config.num_keywords; ++kw) {
    const Formula f = kw % 3 == 0   ? Formula::Click()
                      : kw % 3 == 1 ? Formula::Click() && Formula::Slot(0)
                                    : Formula::Purchase();
    keywords.push_back({"kw" + std::to_string(kw), f});
    workload->keyword_formulas.push_back(f);
  }
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < workload->config.num_advertisers; ++i) {
    auto program = ProgramStrategy::Create(kEqualizeRoi, keywords);
    SSA_CHECK(program.ok());
    strategies.push_back(*std::move(program));
  }
  return strategies;
}

TEST(ShardedEngineTest, PooledProgramStrategiesMatchSerialBitwise) {
  // Interpreted programs captured by 2 shards on a 2-thread pool: a
  // strategy's MakeBids runs on whichever pool thread picks up its shard,
  // so from one auction to the next it moves between threads. Its compiled
  // plan must hold no run state, or values go stale (and TSan, which runs
  // this suite, flags the race).
  WorkloadConfig wc = SmallConfig(67);
  wc.num_keywords = 6;
  wc.purchase_given_click = 0.5;
  Workload w1 = MakePaperWorkload(wc);
  Workload w2 = MakePaperWorkload(wc);
  auto serial_strategies = ProgramStrategies(&w1);
  auto pooled_strategies = ProgramStrategies(&w2);
  EngineConfig engine_config;
  engine_config.seed = 71;
  ThreadPool pool(2);
  ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config;
  sharded_config.num_shards = 2;
  sharded_config.pool = &pool;
  ReferenceEngine reference(engine_config, w1, std::move(serial_strategies));
  ShardedAuctionEngine sharded(sharded_config, w2,
                               std::move(pooled_strategies));
  ExpectBitwiseEquivalent(&reference, &sharded, 150);
  EXPECT_GT(reference.total_revenue(), 0.0);
}

TEST(ShardedEngineTest, ShardPartitionCoversPopulationOnce) {
  Workload w = MakePaperWorkload(SmallConfig(41));
  ShardedEngineConfig config;
  config.num_shards = 7;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  AdvertiserId next = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const auto stats = engine.shard_stats(s);
    EXPECT_EQ(stats.begin, next);
    EXPECT_LT(stats.begin, stats.end);
    next = stats.end;
  }
  EXPECT_EQ(next, 40);
}

TEST(ShardedEngineTest, PerShardCachesHitOnStableBids) {
  // ROI strategies mostly re-emit unchanged tables; each shard's private
  // cache must absorb its own population's lookups.
  Workload w = MakePaperWorkload(SmallConfig(43));
  ShardedEngineConfig config;
  config.num_shards = 4;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  const int auctions = 30;
  for (int t = 0; t < auctions; ++t) engine.RunAuction();
  EXPECT_EQ(engine.cache_hits() + engine.cache_misses(),
            static_cast<int64_t>(40) * auctions);
  EXPECT_GT(engine.cache_hits(), 0);
  for (int s = 0; s < engine.num_shards(); ++s) {
    const auto stats = engine.shard_stats(s);
    // Every shard compiled at least its own first-auction tables.
    EXPECT_GE(stats.cache_misses, stats.end - stats.begin);
  }
}

/// Emits the same one-row table every auction (value configurable at
/// construction) — the cache-friendly extreme of a bidding program.
class FixedBidStrategy : public BiddingStrategy {
 public:
  explicit FixedBidStrategy(Money value) : value_(value) {}
  void MakeBids(const Query&, const AdvertiserAccount&,
                BidsTable* bids) override {
    bids->AddBid(Formula::Click(), value_);
  }

 private:
  Money value_;
};

TEST(ShardedEngineTest, CompiledBidsCacheHitsOnStableTables) {
  Workload workload = MakePaperWorkload(SmallConfig(41));
  const int n = workload.config.num_advertisers;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < n; ++i) {
    strategies.push_back(
        std::make_unique<FixedBidStrategy>(static_cast<Money>(1 + i % 7)));
  }
  ShardedEngineConfig config;
  ShardedAuctionEngine engine(config, workload, std::move(strategies));

  engine.RunAuction();
  EXPECT_EQ(engine.cache_misses(), n);
  EXPECT_EQ(engine.cache_hits(), 0);

  const int extra = 20;
  for (int t = 0; t < extra; ++t) engine.RunAuction();
  // Fixed strategies re-emit identical tables: every later auction hits.
  EXPECT_EQ(engine.cache_misses(), n);
  EXPECT_EQ(engine.cache_hits(), static_cast<int64_t>(n) * extra);
}

TEST(ShardedEngineTest, CompiledBidsCacheInvalidatesOnBidChanges) {
  // ROI bidders move their bids between auctions; the fingerprint cache
  // must recompile exactly those tables (and the trajectory must match the
  // always-recompile reference, which ShardedEquivalenceTest covers).
  Workload workload = MakePaperWorkload(SmallConfig(43));
  ShardedEngineConfig config;
  ShardedAuctionEngine engine(config, workload, RoiStrategies(workload));
  for (int t = 0; t < 50; ++t) engine.RunAuction();
  const int64_t lookups = engine.cache_hits() + engine.cache_misses();
  const int n = workload.config.num_advertisers;
  EXPECT_EQ(lookups, static_cast<int64_t>(n) * 50);
  // Bids change over time, so there must be recompilations beyond auction
  // one — but unchanged tables must still hit.
  EXPECT_GT(engine.cache_misses(), n);
  EXPECT_GT(engine.cache_hits(), 0);
}

TEST(ShardedEngineTest, ArbitraryUnequalPartitionsMatchBitwise) {
  // Determinism may not depend on *where* the boundaries sit: wildly
  // unequal contiguous partitions must reproduce the serial trajectory.
  const std::vector<std::vector<ShardRange>> layouts = {
      {{0, 1}, {1, 39}, {39, 40}},
      {{0, 37}, {37, 38}, {38, 39}, {39, 40}},
      {{0, 2}, {2, 4}, {4, 8}, {8, 16}, {16, 40}},
  };
  for (const auto& layout : layouts) {
    Workload w1 = MakePaperWorkload(SmallConfig(67));
    Workload w2 = MakePaperWorkload(SmallConfig(67));
    EngineConfig engine_config;
    engine_config.seed = 71;
    ShardedEngineConfig sharded_config;
    sharded_config.engine = engine_config;
    sharded_config.num_shards = static_cast<int>(layout.size());
    ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
    ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));
    ASSERT_TRUE(sharded.Repartition(layout).ok());
    ASSERT_EQ(sharded.shard_ranges(), layout);
    ExpectBitwiseEquivalent(&reference, &sharded, 80);
  }
}

TEST(ShardedEngineTest, MidStreamRepartitionKeepsBitwiseIdentity) {
  // Boundaries move *between* auctions while strategy/account state is live
  // — including a change of shard count — and nothing may drift.
  Workload w1 = MakePaperWorkload(SmallConfig(73));
  Workload w2 = MakePaperWorkload(SmallConfig(73));
  EngineConfig engine_config;
  engine_config.seed = 79;
  ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config;
  sharded_config.num_shards = 4;
  ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
  ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));

  ExpectBitwiseEquivalent(&reference, &sharded, 40);
  ASSERT_TRUE(sharded.Repartition({{0, 30}, {30, 35}, {35, 40}}).ok());
  ExpectBitwiseEquivalent(&reference, &sharded, 40);
  ASSERT_TRUE(
      sharded.Repartition({{0, 5}, {5, 10}, {10, 20}, {20, 32}, {32, 40}})
          .ok());
  ExpectBitwiseEquivalent(&reference, &sharded, 40);
  // Collapse to one shard and back out to the tree-merge regime.
  ASSERT_TRUE(sharded.Repartition({{0, 40}}).ok());
  ExpectBitwiseEquivalent(&reference, &sharded, 20);
  std::vector<ShardRange> eight;
  for (AdvertiserId s = 0; s < 8; ++s) {
    eight.push_back(ShardRange{s * 5, (s + 1) * 5});
  }
  ASSERT_TRUE(sharded.Repartition(eight).ok());
  ExpectBitwiseEquivalent(&reference, &sharded, 40);
}

TEST(ShardedEngineTest, RepartitionPreservesCompiledBids) {
  // Global-id cache keying: moving a boundary must not recompile anything a
  // twin engine with a fixed layout would not also recompile.
  Workload w1 = MakePaperWorkload(SmallConfig(83));
  Workload w2 = MakePaperWorkload(SmallConfig(83));
  ShardedEngineConfig config;
  config.engine.seed = 89;
  config.num_shards = 4;
  ShardedAuctionEngine fixed(config, w1, RoiStrategies(w1));
  ShardedAuctionEngine moving(config, w2, RoiStrategies(w2));
  for (int t = 0; t < 30; ++t) {
    fixed.RunAuction();
    moving.RunAuction();
    if (t % 10 == 9) {
      const AdvertiserId cut = 5 + t % 13;  // 14, 5, 11 over the run
      ASSERT_TRUE(
          moving.Repartition({{0, cut}, {cut, 20}, {20, 40}}).ok());
    }
  }
  // Identical trajectories produce identical table churn; with nothing
  // invalidated by the boundary moves, miss counts must agree exactly.
  EXPECT_EQ(moving.cache_misses(), fixed.cache_misses());
  EXPECT_EQ(moving.cache_hits(), fixed.cache_hits());
}

TEST(ShardedEngineTest, RepartitionRejectsInvalidLayouts) {
  Workload w = MakePaperWorkload(SmallConfig(97));
  ShardedEngineConfig config;
  config.num_shards = 2;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  EXPECT_FALSE(engine.Repartition({}).ok());                       // empty
  EXPECT_FALSE(engine.Repartition({{0, 20}}).ok());                // short
  EXPECT_FALSE(engine.Repartition({{5, 20}, {20, 40}}).ok());      // gap head
  EXPECT_FALSE(engine.Repartition({{0, 20}, {21, 40}}).ok());      // gap mid
  EXPECT_FALSE(engine.Repartition({{0, 20}, {20, 20}, {20, 40}}).ok());
  EXPECT_FALSE(engine.Repartition({{0, 20}, {20, 41}}).ok());      // overrun
  // The failed attempts left the engine usable on its original layout.
  engine.RunAuction();
  EXPECT_EQ(engine.auctions_run(), 1);
}

TEST(ShardedEngineTest, RebalanceShardsEqualizesSkewedCost) {
  // ROI strategies emit roughly uniform work, so seed the skew directly:
  // after enough auctions the cost model has a signal, and a rebalance from
  // a deliberately terrible layout must (a) move boundaries, (b) reduce
  // predicted imbalance, and (c) keep the trajectory bitwise.
  Workload w1 = MakePaperWorkload(SmallConfig(101));
  Workload w2 = MakePaperWorkload(SmallConfig(101));
  EngineConfig engine_config;
  engine_config.seed = 103;
  ShardedEngineConfig sharded_config;
  sharded_config.engine = engine_config;
  sharded_config.num_shards = 4;
  ReferenceEngine reference(engine_config, w1, RoiStrategies(w1));
  ShardedAuctionEngine sharded(sharded_config, w2, RoiStrategies(w2));

  // A pathological layout: one shard owns nearly everything.
  ASSERT_TRUE(
      sharded.Repartition({{0, 37}, {37, 38}, {38, 39}, {39, 40}}).ok());
  ExpectBitwiseEquivalent(&reference, &sharded, 60);
  ASSERT_GT(sharded.cost_model().auctions_sampled(), 0);
  const double before = ShardRebalancer::PredictedImbalance(
      sharded.cost_model().costs(), sharded.shard_ranges());
  ASSERT_GT(before, 1.5);  // the bad layout must actually look bad

  ASSERT_TRUE(sharded.RebalanceShards());
  const double after = ShardRebalancer::PredictedImbalance(
      sharded.cost_model().costs(), sharded.shard_ranges());
  EXPECT_LT(after, before);
  EXPECT_EQ(sharded.num_shards(), 4);
  // Repeating immediately is a no-op: the layout is already balanced.
  EXPECT_FALSE(sharded.RebalanceShards(1.05));
  // And the trajectory is still bitwise after the move.
  ExpectBitwiseEquivalent(&reference, &sharded, 60);
}

TEST(ShardedEngineTest, ShardStatsExposeCostAndPhaseTime) {
  Workload w = MakePaperWorkload(SmallConfig(107));
  ShardedEngineConfig config;
  config.num_shards = 4;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  for (int t = 0; t < 20; ++t) engine.RunAuction();
  double total_cost = 0.0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const auto stats = engine.shard_stats(s);
    EXPECT_GE(stats.capture_ns, 0);
    EXPECT_GE(stats.phase_ns, 0);
    EXPECT_GT(stats.model_cost, 0.0);
    total_cost += stats.model_cost;
  }
  // Repartition owns the layout and restarts the per-shard work clocks.
  ASSERT_TRUE(engine.Repartition({{0, 5}, {5, 40}}).ok());
  EXPECT_EQ(engine.shard_stats(0).capture_ns, 0);
  EXPECT_EQ(engine.shard_stats(1).phase_ns, 0);
  // Per-range partial sums vs one flat pass: same values, different
  // association — equal only up to rounding.
  const double flat_total = engine.cost_model().TotalCost();
  EXPECT_NEAR(total_cost, flat_total, 1e-9 * flat_total);
  EXPECT_EQ(engine.cost_model().auctions_sampled(), 20);
}

TEST(ShardedEngineTest, ClampsShardCountToPopulation) {
  WorkloadConfig wc = SmallConfig(47);
  wc.num_advertisers = 3;
  Workload w = MakePaperWorkload(wc);
  ShardedEngineConfig config;
  config.num_shards = 16;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  EXPECT_EQ(engine.num_shards(), 3);
  engine.RunAuction();  // must still run cleanly
  EXPECT_EQ(engine.auctions_run(), 1);
}

}  // namespace
}  // namespace ssa
