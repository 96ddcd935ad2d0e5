// ShardedAuctionEngine equivalence: for any shard count K and any pool, the
// sharded engine must reproduce the serial reference engine's auction
// trajectory (tests/reference_engine.h) *bitwise* — allocations, prices,
// user events, revenue, and account balances. The shard phase only
// re-partitions share-nothing work and the top-k merge preserves the exact
// candidate set, so nothing may drift.

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "forwarding_strategy.h"
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

/// Feeds both engines the same `auctions` queries from `queries` in lockstep
/// and asserts bitwise-equal trajectories.
void ExpectBitwiseEquivalent(ReferenceEngine* reference,
                             ShardedAuctionEngine* sharded,
                             QueryGenerator* queries, int auctions) {
  for (int t = 0; t < auctions; ++t) {
    const Query query = queries->Next();
    const AuctionOutcome& a = reference->RunAuctionOn(query);
    const AuctionOutcome& b = sharded->RunAuctionOn(query);
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
  QueryGenerator queries(w1.config.num_keywords, engine_config.seed);
  ExpectBitwiseEquivalent(&reference, &sharded, &queries, 150);
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
  QueryGenerator queries(w1.config.num_keywords, engine_config.seed);
  ExpectBitwiseEquivalent(&reference, &sharded, &queries, 100);
}

// 7 over 40 advertisers gives unequal shards (5 and 6 advertisers); 8 and
// 12 put many small partials through the flat coordinator merge. Native ROI
// bidders are planned by the one RHTALU planner at every K.
INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalenceTest,
                         ::testing::Values(1, 2, 4, 7, 8, 12));

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
    QueryGenerator queries(w1.config.num_keywords, engine_config.seed);
    ExpectBitwiseEquivalent(&reference, &sharded, &queries, 60);
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
  QueryGenerator queries(w1.config.num_keywords, engine_config.seed);
  ExpectBitwiseEquivalent(&reference, &sharded, &queries, 50);
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
    QueryGenerator queries(w1.config.num_keywords, engine_config.seed);
    ExpectBitwiseEquivalent(&reference, &sharded, &queries, 120);
    // The purchase path must actually fire for the equivalence to mean
    // anything.
    int purchases = 0;
    for (int t = 0; t < 50; ++t) {
      for (const UserEvent& e : sharded.RunAuctionOn(queries.Next()).events) {
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
  // so from one auction to the next it moves between threads. All the
  // strategies share one compiled plan (same source), which both pool
  // threads run at once: the plan must hold no run state, or values go
  // stale (and TSan, which runs this suite, flags the race).
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
  QueryGenerator queries(w1.config.num_keywords, engine_config.seed);
  ExpectBitwiseEquivalent(&reference, &sharded, &queries, 150);
  EXPECT_GT(reference.total_revenue(), 0.0);
}

/// FNV-1a over raw bytes: a trajectory digest that moves when any bit of an
/// outcome or account does.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

TEST(ShardedEngineTest, NativeRoiTrajectoryDigestIsPinned) {
  // The Section V population (n = 2,000 native ROI bidders, 15 slots, 10
  // keywords) under RH + GSP for 2,000 auctions. Every allocation, weight,
  // price, user event and final account folds into one digest, pinned so
  // that a change to winner determination or the planner that moves any
  // bit of this trajectory shows here, not only as a disagreement between
  // two configurations that could both be wrong.
  WorkloadConfig wc;
  wc.num_advertisers = 2000;
  wc.seed = 1;
  Workload w = MakePaperWorkload(wc);
  ShardedEngineConfig config;
  config.num_shards = 2;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  ASSERT_TRUE(engine.has_roi_planner());
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  Digest digest;
  for (int t = 0; t < 2000; ++t) {
    const AuctionOutcome& outcome = engine.RunAuctionOn(queries.Next());
    for (const AdvertiserId i : outcome.wd.allocation.slot_to_advertiser) {
      digest.Add(i);
    }
    digest.Add(outcome.wd.matching_weight);
    digest.Add(outcome.wd.expected_revenue);
    for (const Money price : outcome.prices) digest.Add(price);
    for (const UserEvent& event : outcome.events) {
      digest.Add(event.advertiser);
      digest.Add(event.slot);
      digest.Add(event.clicked);
      digest.Add(event.purchased);
      digest.Add(event.charged);
    }
    digest.Add(outcome.revenue_charged);
  }
  for (const AdvertiserAccount& account : engine.accounts()) {
    digest.Add(account.amount_spent);
    for (const Money spent : account.spent_per_keyword) digest.Add(spent);
    for (const double value : account.value_gained) digest.Add(value);
  }
  EXPECT_EQ(engine.planner_stats().logical_plans, 2000);
  EXPECT_EQ(digest.value(), 10554048704251868383ULL);
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
  // ROI strategies re-emit the same formulas every auction; the lane's
  // cache must absorb every shard's lookups. Native ROI shards plan
  // logically and never look the cache up, so the bidders run behind the
  // forwarding wrapper, which keeps them on the brute-force path.
  Workload w = MakePaperWorkload(SmallConfig(43));
  ShardedEngineConfig config;
  config.num_shards = 4;
  ShardedAuctionEngine engine(config, w, Forwarded(RoiStrategies(w)));
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  const int auctions = 30;
  for (int t = 0; t < auctions; ++t) engine.RunAuctionOn(queries.Next());
  EXPECT_EQ(engine.cache_hits() + engine.cache_misses(),
            static_cast<int64_t>(40) * auctions);
  EXPECT_GT(engine.cache_hits(), 0);
  for (int s = 0; s < engine.num_shards(); ++s) {
    // Every shard ran its brute-force phase on the internal lane.
    EXPECT_GT(engine.shard_stats(s).phase_ns, 0) << "shard " << s;
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
  QueryGenerator queries(workload.config.num_keywords, config.engine.seed);

  engine.RunAuctionOn(queries.Next());
  EXPECT_EQ(engine.cache_misses(), n);
  EXPECT_EQ(engine.cache_hits(), 0);

  const int extra = 20;
  for (int t = 0; t < extra; ++t) engine.RunAuctionOn(queries.Next());
  // Fixed strategies re-emit identical tables: every later auction hits.
  EXPECT_EQ(engine.cache_misses(), n);
  EXPECT_EQ(engine.cache_hits(), static_cast<int64_t>(n) * extra);
}

TEST(ShardedEngineTest, CompiledBidsCacheReusesMasksOnBidChanges) {
  // ROI bidders move their bids between auctions but keep their formulas:
  // after each bidder's first compilation every lookup reuses its masks
  // and takes the new values (the trajectory must match the
  // always-recompile reference, which ShardedEquivalenceTest covers). The
  // forwarding wrapper keeps the bidders on the brute-force path.
  Workload workload = MakePaperWorkload(SmallConfig(43));
  ShardedEngineConfig config;
  ShardedAuctionEngine engine(config, workload,
                              Forwarded(RoiStrategies(workload)));
  QueryGenerator queries(workload.config.num_keywords, config.engine.seed);
  for (int t = 0; t < 50; ++t) engine.RunAuctionOn(queries.Next());
  const int64_t lookups = engine.cache_hits() + engine.cache_misses();
  const int n = workload.config.num_advertisers;
  EXPECT_EQ(lookups, static_cast<int64_t>(n) * 50);
  EXPECT_EQ(engine.cache_misses(), n);
  EXPECT_EQ(engine.cache_hits(), static_cast<int64_t>(n) * 49);
}

TEST(ShardedEngineTest, ShardStatsExposeCaptureAndPhaseTime) {
  // Native ROI bidders are planned by the engine's one RHTALU planner, whose
  // clock counts their auctions; behind the forwarding wrapper the same
  // bidders capture and fill per shard, and the per-shard clocks count.
  for (const bool brute : {false, true}) {
    SCOPED_TRACE(brute ? "brute-force shards" : "planner");
    Workload w = MakePaperWorkload(SmallConfig(107));
    ShardedEngineConfig config;
    config.num_shards = 4;
    auto strategies = RoiStrategies(w);
    if (brute) strategies = Forwarded(std::move(strategies));
    ShardedAuctionEngine engine(config, w, std::move(strategies));
    QueryGenerator queries(w.config.num_keywords, config.engine.seed);
    for (int t = 0; t < 20; ++t) engine.RunAuctionOn(queries.Next());
    // The layout is the uniform split fixed at construction, and the
    // clocks have counted every auction since.
    int64_t capture_ns = 0;
    int64_t phase_ns = 0;
    for (int s = 0; s < engine.num_shards(); ++s) {
      const auto stats = engine.shard_stats(s);
      EXPECT_EQ(stats.begin, s * 10);
      EXPECT_EQ(stats.end, (s + 1) * 10);
      EXPECT_GE(stats.capture_ns, 0);
      EXPECT_GE(stats.phase_ns, 0);
      capture_ns += stats.capture_ns;
      phase_ns += stats.phase_ns;
    }
    if (brute) {
      EXPECT_GT(capture_ns, 0);
      EXPECT_GT(phase_ns, 0);
      EXPECT_EQ(engine.planner_ns(), 0);
    } else {
      EXPECT_EQ(capture_ns, 0);
      EXPECT_EQ(phase_ns, 0);
      EXPECT_GT(engine.planner_ns(), 0);
    }
  }
}

TEST(ShardedEngineTest, ClampsShardCountToPopulation) {
  WorkloadConfig wc = SmallConfig(47);
  wc.num_advertisers = 3;
  Workload w = MakePaperWorkload(wc);
  ShardedEngineConfig config;
  config.num_shards = 16;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  EXPECT_EQ(engine.num_shards(), 3);
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  engine.RunAuctionOn(queries.Next());  // must still run cleanly
  EXPECT_EQ(engine.auctions_run(), 1);
}

}  // namespace
}  // namespace ssa
