// AuctionServer contract tests. The load-bearing one is deterministic
// replay: a fixed query sequence served through the async subsystem — any
// batch size, any shard count, any pool, either queue implementation — must
// settle bitwise-identically to the serial AuctionEngine loop. Batching and
// queuing may only change *when* work happens, never *what* it computes.

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "auction/auction_engine.h"
#include "serving/auction_server.h"
#include "strategy/roi_strategy.h"
#include "util/thread_pool.h"

namespace ssa {
namespace {

using std::chrono::microseconds;

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

/// The fixed arrival sequence both sides consume: what QueryGenerator would
/// produce inside the engines, materialized up front.
std::vector<Query> MakeQuerySequence(int count, int num_keywords,
                                     uint64_t seed) {
  QueryGenerator gen(num_keywords, seed);
  std::vector<Query> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) queries.push_back(gen.Next());
  return queries;
}

/// Bitwise comparison of two auction outcomes (same fields
/// sharded_engine_test pins).
void ExpectOutcomeBitwiseEq(const AuctionOutcome& a, const AuctionOutcome& b) {
  ASSERT_EQ(a.query.keyword, b.query.keyword);
  ASSERT_EQ(a.query.time, b.query.time);
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

void ExpectAccountsBitwiseEq(const std::vector<AdvertiserAccount>& a,
                             const std::vector<AdvertiserAccount>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].amount_spent, b[i].amount_spent);
    ASSERT_EQ(a[i].spent_per_keyword, b[i].spent_per_keyword);
    ASSERT_EQ(a[i].value_gained, b[i].value_gained);
  }
}

/// Serves `queries` through a server built from `config`, collecting every
/// settled outcome in completion order.
std::vector<AuctionOutcome> ServeAll(const ServerConfig& config,
                                     uint64_t workload_seed,
                                     const std::vector<Query>& queries,
                                     std::vector<AdvertiserAccount>* accounts,
                                     Money* total_revenue) {
  Workload workload = MakePaperWorkload(SmallConfig(workload_seed));
  auto strategies = RoiStrategies(workload);
  AuctionServer server(config, std::move(workload), std::move(strategies));
  std::vector<AuctionOutcome> outcomes;  // written only by the executor
  server.set_on_complete(
      [&outcomes](const AuctionOutcome& out) { outcomes.push_back(out); });
  server.Start();
  for (const Query& q : queries) {
    EXPECT_EQ(server.Submit(q), QueuePushResult::kAccepted);
  }
  server.Stop();
  *accounts = server.engine().accounts();
  *total_revenue = server.engine().total_revenue();
  return outcomes;
}

struct ReplayParam {
  int max_batch = 1;
  int num_shards = 1;
  int pool_threads = 0;  // 0 = no pool
  QueueImpl queue_impl = QueueImpl::kLocking;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  int num_plan_lanes = 0;  // 0 = in-thread planning
  int64_t rebalance_every = 0;  // 0 = epoch-boundary rebalancing off
  bool full_tracing = false;  // trace every query (sample_every = 1)
};

void RunReplayEquivalence(const ReplayParam& param) {
  const uint64_t workload_seed = 11;
  const uint64_t engine_seed = 13;
  const int num_queries = 120;

  // Serial oracle: the plain AuctionEngine fed the same arrival sequence.
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(num_queries, w.config.num_keywords, engine_seed);
  EngineConfig engine_config;
  engine_config.seed = engine_seed;
  AuctionEngine serial(engine_config, w, RoiStrategies(w));
  std::vector<AuctionOutcome> expected;
  for (const Query& q : queries) expected.push_back(serial.RunAuctionOn(q));

  std::unique_ptr<ThreadPool> pool;
  if (param.pool_threads > 0) {
    pool = std::make_unique<ThreadPool>(param.pool_threads);
  }
  ServerConfig config;
  config.engine.engine = engine_config;
  config.engine.num_shards = param.num_shards;
  config.engine.pool = pool.get();
  config.queue_capacity = 256;
  config.backpressure = param.backpressure;
  config.queue_impl = param.queue_impl;
  config.max_batch_size = param.max_batch;
  config.batch_deadline = microseconds(100);
  config.mode = ServingMode::kDeterministicReplay;
  config.num_plan_lanes = param.num_plan_lanes;
  if (param.full_tracing) config.obs.trace.sample_every = 1;
  config.rebalance.every = param.rebalance_every;
  // Move boundaries on any measured imbalance: maximal churn, so the
  // equivalence check exercises as many repartitions as possible.
  config.rebalance.min_imbalance = 1.0;

  std::vector<AdvertiserAccount> accounts;
  Money total_revenue = 0;
  const std::vector<AuctionOutcome> got =
      ServeAll(config, workload_seed, queries, &accounts, &total_revenue);

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectOutcomeBitwiseEq(expected[i], got[i]);
  }
  ExpectAccountsBitwiseEq(serial.accounts(), accounts);
  ASSERT_EQ(serial.total_revenue(), total_revenue);
}

TEST(ServingReplayTest, BatchSizeOneSingleShard) {
  RunReplayEquivalence({/*max_batch=*/1, /*num_shards=*/1});
}

TEST(ServingReplayTest, MicroBatchesSingleShard) {
  RunReplayEquivalence({/*max_batch=*/8, /*num_shards=*/1});
}

TEST(ServingReplayTest, MicroBatchesShardedOnPool) {
  RunReplayEquivalence(
      {/*max_batch=*/16, /*num_shards=*/3, /*pool_threads=*/3});
}

TEST(ServingReplayTest, LargeBatchManyShardsTreeMerge) {
  // 8 shards crosses kTreeMergeMinShards: the coordinator merge goes
  // through the parallel_topk tree network and must stay bitwise.
  RunReplayEquivalence(
      {/*max_batch=*/64, /*num_shards=*/8, /*pool_threads=*/4});
}

TEST(ServingReplayTest, LockFreeQueueReplay) {
  ReplayParam param;
  param.max_batch = 8;
  param.num_shards = 2;
  param.pool_threads = 2;
  param.queue_impl = QueueImpl::kLockFree;
  param.backpressure = BackpressurePolicy::kReject;  // ring is reject-only
  RunReplayEquivalence(param);
}

TEST(ServingLaneReplayTest, MatrixMatchesSerialEngineBitwise) {
  // The lane-count half of the determinism contract: replaying through E
  // planning lanes — every lane with its own caches, heaps, and matrix
  // arena — must reproduce the serial engine loop bitwise, for every
  // E x shard-count x queue-implementation combination. Per-lane cache
  // divergence (different lanes see different slots) may only move time,
  // never values.
  for (int lanes : {1, 2, 4, 8}) {
    for (int shards : {1, 4}) {
      for (QueueImpl queue : {QueueImpl::kLocking, QueueImpl::kLockFree}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                     " shards=" + std::to_string(shards) + " queue=" +
                     (queue == QueueImpl::kLocking ? "locking" : "lockfree"));
        ReplayParam param;
        param.max_batch = 8;
        param.num_shards = shards;
        param.queue_impl = queue;
        param.backpressure = queue == QueueImpl::kLockFree
                                 ? BackpressurePolicy::kReject
                                 : BackpressurePolicy::kBlock;
        param.num_plan_lanes = lanes;
        RunReplayEquivalence(param);
      }
    }
  }
}

TEST(ServingLaneReplayTest, LanesComposeWithCapturePoolAndTreeMerge) {
  // Lanes on top of everything else at once: the capture fans out across 8
  // shards on a pool, the lane-side merge takes the tree path (8 >=
  // kTreeMergeMinShards), and 4 lanes race over the plans.
  ReplayParam param;
  param.max_batch = 32;
  param.num_shards = 8;
  param.pool_threads = 3;
  param.num_plan_lanes = 4;
  RunReplayEquivalence(param);
}

TEST(ServingRebalanceTest, ReplayMatrixStaysBitwiseWithRebalancingEnabled) {
  // The serving half of the rebalancing contract: with epoch-boundary
  // rebalancing churning the shard layout mid-stream (every 8 auctions, any
  // imbalance), deterministic replay must stay bitwise-equal to the serial
  // engine — across lane counts and both queue implementations. Rebalancing
  // may move work between shards, never values.
  for (int lanes : {0, 2, 4}) {
    for (QueueImpl queue : {QueueImpl::kLocking, QueueImpl::kLockFree}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) + " queue=" +
                   (queue == QueueImpl::kLocking ? "locking" : "lockfree"));
      ReplayParam param;
      param.max_batch = 8;
      param.num_shards = 4;
      param.queue_impl = queue;
      param.backpressure = queue == QueueImpl::kLockFree
                               ? BackpressurePolicy::kReject
                               : BackpressurePolicy::kBlock;
      param.num_plan_lanes = lanes;
      param.rebalance_every = 8;
      RunReplayEquivalence(param);
    }
  }
}

TEST(ServingObservabilityTest, ReplayStaysBitwiseUnderFullTracing) {
  // The observability half of the determinism contract: with every query
  // traced (sample_every = 1) and metrics on, replay must still reproduce
  // the serial engine bitwise across lane and shard counts. Instrumentation
  // reads clocks and writes side state; it must never move an auction value.
  for (int lanes : {1, 4}) {
    for (int shards : {1, 4}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " shards=" + std::to_string(shards));
      ReplayParam param;
      param.max_batch = 8;
      param.num_shards = shards;
      param.num_plan_lanes = lanes;
      param.full_tracing = true;
      RunReplayEquivalence(param);
    }
  }
}

TEST(ServingObservabilityTest, MetricsAndTraceExposePipelineSignals) {
  // Acceptance check for the pipeline signals ROADMAP item 2 asks for: the
  // per-lane merge-barrier wait and the per-shard capture/plan slices must
  // be visible in the Prometheus snapshot and in the Perfetto trace.
  const uint64_t workload_seed = 41;
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(80, w.config.num_keywords, 43);
  ServerConfig config;
  config.engine.engine.seed = 43;
  config.engine.num_shards = 2;
  config.max_batch_size = 8;
  config.num_plan_lanes = 2;
  config.mode = ServingMode::kDeterministicReplay;
  config.obs.trace.sample_every = 1;
  auto strategies = RoiStrategies(w);
  AuctionServer server(config, std::move(w), std::move(strategies));
  server.Start();
  for (const Query& q : queries) {
    ASSERT_EQ(server.Submit(q), QueuePushResult::kAccepted);
  }
  server.Stop();

  // Prometheus side: stage histograms, per-lane barrier waits, per-shard
  // engine gauges, admission counters.
  const std::string prom =
      ExportPrometheus(server.metrics().Snapshot(), &server.metrics());
  EXPECT_NE(prom.find("serving_accepted_total 80"), std::string::npos);
  EXPECT_NE(prom.find("serving_completed_total 80"), std::string::npos);
  EXPECT_NE(prom.find("serving_barrier_wait_us_count{lane=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("serving_barrier_wait_us_count{lane=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("serving_queue_wait_us_count"), std::string::npos);
  EXPECT_NE(prom.find("engine_shard_capture_ns{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("trace_spans_recorded_total"), std::string::npos);

  // Trace side: every pipeline stage appears, including the per-shard
  // capture/plan slices and the per-slot barrier wait.
  const std::vector<TraceEvent> events = server.DrainTrace();
  ASSERT_FALSE(events.empty());
  std::set<TraceStage> stages;
  std::set<int32_t> plan_tracks;
  for (const TraceEvent& e : events) {
    stages.insert(e.stage);
    if (e.stage == TraceStage::kPlan) plan_tracks.insert(e.track);
  }
  for (TraceStage want :
       {TraceStage::kQuery, TraceStage::kQueueWait, TraceStage::kCapture,
        TraceStage::kPlan, TraceStage::kBarrierWait, TraceStage::kSettle,
        TraceStage::kBatch, TraceStage::kShardCapture,
        TraceStage::kShardPlan}) {
    EXPECT_TRUE(stages.count(want)) << TraceStageName(want);
  }
  // kPlan spans land on the lane tracks (1 + e), not the executor track.
  // LanePool hands each slot to whichever lane is free, so one lane may
  // plan every query; what holds for every schedule is that the tracks
  // seen are exactly the lanes whose plan counters moved, and the counters
  // account for all 80 queries.
  for (int32_t track : plan_tracks) {
    EXPECT_GE(track, 1);
    EXPECT_LE(track, config.num_plan_lanes);
  }
  std::set<int32_t> busy_lane_tracks;
  int64_t lane_plans = 0;
  for (int e = 0; e < config.num_plan_lanes; ++e) {
    const int64_t plans =
        server.mutable_metrics()
            ->GetCounter("serving_lane_plans_total",
                         "lane=\"" + std::to_string(e) + "\"")
            ->value();
    if (plans > 0) busy_lane_tracks.insert(1 + e);
    lane_plans += plans;
  }
  EXPECT_EQ(plan_tracks, busy_lane_tracks);
  EXPECT_EQ(lane_plans, 80);
  const std::string chrome = Tracer::ExportChromeTrace(events);
  EXPECT_NE(chrome.find("\"barrier_wait\""), std::string::npos);
  EXPECT_NE(chrome.find("\"shard_plan\""), std::string::npos);
  EXPECT_NE(chrome.find("shard 1 capture"), std::string::npos);
}

TEST(ServingRebalanceTest, RebalanceKeepsValidPartitionAndFeedsCostModel) {
  Workload w = MakePaperWorkload(SmallConfig(113));
  const int num_queries = 100;
  const std::vector<Query> queries =
      MakeQuerySequence(num_queries, w.config.num_keywords, 127);
  ServerConfig config;
  config.engine.engine.seed = 127;
  config.engine.num_shards = 4;
  config.max_batch_size = 4;
  config.rebalance.every = 4;
  config.rebalance.min_imbalance = 1.0;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(113));
    return RoiStrategies(tmp);
  }());
  server.Start();
  for (const Query& q : queries) {
    ASSERT_EQ(server.Submit(q), QueuePushResult::kAccepted);
  }
  server.Stop();
  EXPECT_EQ(server.completed(), num_queries);
  // Whatever the rebalancer did, the layout must still be a contiguous
  // cover of the population with the configured shard count.
  const auto& ranges = server.engine().shard_ranges();
  ASSERT_EQ(ranges.size(), 4u);
  AdvertiserId next = 0;
  for (const ShardRange& range : ranges) {
    EXPECT_EQ(range.begin, next);
    EXPECT_LT(range.begin, range.end);
    next = range.end;
  }
  EXPECT_EQ(next, 40);
  // The cost model saw every served auction, and the rebalance counter
  // never exceeds the number of due checks.
  EXPECT_EQ(server.engine().cost_model().auctions_sampled(), num_queries);
  EXPECT_LE(server.rebalances(), num_queries / 4);
  EXPECT_GE(server.rebalances(), 0);
}

/// Serves `queries` with every submission admitted *before* Start(): batch
/// composition becomes deterministic (the executor always pops full
/// max_batch_size batches from a pre-filled queue), which is what lets two
/// batched-settlement runs be compared bitwise.
std::vector<AuctionOutcome> ServePreloaded(
    const ServerConfig& config, uint64_t workload_seed,
    const std::vector<Query>& queries,
    std::vector<AdvertiserAccount>* accounts, Money* total_revenue) {
  Workload workload = MakePaperWorkload(SmallConfig(workload_seed));
  auto strategies = RoiStrategies(workload);
  AuctionServer server(config, std::move(workload), std::move(strategies));
  std::vector<AuctionOutcome> outcomes;
  server.set_on_complete(
      [&outcomes](const AuctionOutcome& out) { outcomes.push_back(out); });
  for (const Query& q : queries) {
    EXPECT_EQ(server.Submit(q), QueuePushResult::kAccepted);
  }
  server.Start();
  server.Stop();
  *accounts = server.engine().accounts();
  *total_revenue = server.engine().total_revenue();
  return outcomes;
}

TEST(ServingLaneBatchedTest, LanesMatchInThreadBatchedPathBitwise) {
  // kBatchedSettlement is where lanes overlap settlement with planning —
  // but with identical batch composition the *values* must not move: the
  // lane pipeline and the in-thread batched loop both plan every slot
  // against batch-start state and settle in arrival order. Preloading the
  // queue pins the batch boundaries, so E=0 vs E=4 (and E=4 vs itself)
  // compare bitwise.
  const uint64_t workload_seed = 89;
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(96, w.config.num_keywords, 97);

  ServerConfig config;
  config.engine.engine.seed = 97;
  config.queue_capacity = 128;
  config.max_batch_size = 16;
  config.mode = ServingMode::kBatchedSettlement;

  std::vector<AdvertiserAccount> accounts_base, accounts_lanes, accounts_rerun;
  Money revenue_base = 0, revenue_lanes = 0, revenue_rerun = 0;
  const auto base = ServePreloaded(config, workload_seed, queries,
                                   &accounts_base, &revenue_base);
  config.num_plan_lanes = 4;
  const auto lanes = ServePreloaded(config, workload_seed, queries,
                                    &accounts_lanes, &revenue_lanes);
  const auto rerun = ServePreloaded(config, workload_seed, queries,
                                    &accounts_rerun, &revenue_rerun);

  ASSERT_EQ(base.size(), queries.size());
  ASSERT_EQ(lanes.size(), queries.size());
  for (size_t i = 0; i < base.size(); ++i) {
    ExpectOutcomeBitwiseEq(base[i], lanes[i]);
    ExpectOutcomeBitwiseEq(lanes[i], rerun[i]);
  }
  ExpectAccountsBitwiseEq(accounts_base, accounts_lanes);
  ExpectAccountsBitwiseEq(accounts_lanes, accounts_rerun);
  ASSERT_EQ(revenue_base, revenue_lanes);
  ASSERT_EQ(revenue_lanes, revenue_rerun);
}

TEST(ServingBatchedSettlementTest, EqualsReplayAtBatchSizeOne) {
  // With one query per batch there is nothing to defer: batched settlement
  // degenerates to the replay path and must match the serial loop bitwise.
  const uint64_t workload_seed = 17;
  const uint64_t engine_seed = 19;
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(80, w.config.num_keywords, engine_seed);
  EngineConfig engine_config;
  engine_config.seed = engine_seed;
  AuctionEngine serial(engine_config, w, RoiStrategies(w));
  std::vector<AuctionOutcome> expected;
  for (const Query& q : queries) expected.push_back(serial.RunAuctionOn(q));

  ServerConfig config;
  config.engine.engine = engine_config;
  config.max_batch_size = 1;
  config.mode = ServingMode::kBatchedSettlement;
  std::vector<AdvertiserAccount> accounts;
  Money total_revenue = 0;
  const std::vector<AuctionOutcome> got =
      ServeAll(config, workload_seed, queries, &accounts, &total_revenue);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectOutcomeBitwiseEq(expected[i], got[i]);
  }
  ExpectAccountsBitwiseEq(serial.accounts(), accounts);
}

TEST(ServingBatchedSettlementTest, DeterministicGivenArrivalOrder) {
  // Larger batches defer settlement (bids see batch-start accounts), which
  // may diverge from the serial loop — but two identical runs must agree
  // with each other exactly, and conservation invariants must hold.
  const uint64_t workload_seed = 23;
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(100, w.config.num_keywords, 29);

  ServerConfig config;
  config.engine.engine.seed = 29;
  config.max_batch_size = 16;
  // A deadline this long guarantees identical batch boundaries are not
  // required for determinism: settlement order is arrival order regardless.
  config.batch_deadline = microseconds(500);
  config.mode = ServingMode::kBatchedSettlement;

  std::vector<AdvertiserAccount> accounts_a, accounts_b;
  Money revenue_a = 0, revenue_b = 0;
  const auto run_a =
      ServeAll(config, workload_seed, queries, &accounts_a, &revenue_a);
  const auto run_b =
      ServeAll(config, workload_seed, queries, &accounts_b, &revenue_b);
  ASSERT_EQ(run_a.size(), queries.size());
  ASSERT_EQ(run_b.size(), queries.size());
  for (size_t i = 0; i < run_a.size(); ++i) {
    // Settlement order is arrival order: outcome i is query i.
    ASSERT_EQ(run_a[i].query.time, queries[i].time);
    ExpectOutcomeBitwiseEq(run_a[i], run_b[i]);
  }
  ExpectAccountsBitwiseEq(accounts_a, accounts_b);
  ASSERT_EQ(revenue_a, revenue_b);
  // Conservation: what advertisers spent is what the provider charged.
  Money spent = 0;
  for (const auto& account : accounts_a) spent += account.amount_spent;
  EXPECT_NEAR(spent, revenue_a, 1e-9);
}

TEST(ServingBackpressureTest, RejectShedsDeterministicallyBeforeStart) {
  // Submitting before Start() makes admission deterministic: with a
  // capacity-C reject queue, exactly C of C+R submissions are admitted.
  Workload w = MakePaperWorkload(SmallConfig(31));
  const std::vector<Query> queries =
      MakeQuerySequence(12, w.config.num_keywords, 37);
  ServerConfig config;
  config.engine.engine.seed = 37;
  config.queue_capacity = 8;
  config.backpressure = BackpressurePolicy::kReject;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(31));
    return RoiStrategies(tmp);
  }());
  int accepted = 0, rejected = 0;
  for (const Query& q : queries) {
    const QueuePushResult r = server.Submit(q);
    (r == QueuePushResult::kAccepted ? accepted : rejected) += 1;
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(server.accepted(), 8);
  EXPECT_EQ(server.rejected(), 4);
  server.Start();
  server.Stop();
  EXPECT_EQ(server.completed(), 8);
  EXPECT_EQ(server.engine().auctions_run(), 8);
}

TEST(ServingBackpressureTest, DropOldestKeepsFreshest) {
  Workload w = MakePaperWorkload(SmallConfig(41));
  const std::vector<Query> queries =
      MakeQuerySequence(10, w.config.num_keywords, 43);
  ServerConfig config;
  config.engine.engine.seed = 43;
  config.queue_capacity = 4;
  config.backpressure = BackpressurePolicy::kDropOldest;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(41));
    return RoiStrategies(tmp);
  }());
  std::vector<int64_t> served_times;
  server.set_on_complete([&served_times](const AuctionOutcome& out) {
    served_times.push_back(out.query.time);
  });
  for (const Query& q : queries) {
    const QueuePushResult r = server.Submit(q);
    EXPECT_NE(r, QueuePushResult::kRejected);
  }
  EXPECT_EQ(server.dropped_oldest(), 6);
  server.Start();
  server.Stop();
  // The six oldest were evicted; queries 7..10 (1-based times) survive.
  EXPECT_EQ(served_times, (std::vector<int64_t>{7, 8, 9, 10}));
}

TEST(ServingBackpressureTest, LockFreeRejectCountsDeterministically) {
  Workload w = MakePaperWorkload(SmallConfig(47));
  const std::vector<Query> queries =
      MakeQuerySequence(11, w.config.num_keywords, 53);
  ServerConfig config;
  config.engine.engine.seed = 53;
  config.queue_capacity = 8;  // ring capacity is exact at powers of two
  config.queue_impl = QueueImpl::kLockFree;
  config.backpressure = BackpressurePolicy::kReject;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(47));
    return RoiStrategies(tmp);
  }());
  for (const Query& q : queries) server.Submit(q);
  EXPECT_EQ(server.accepted(), 8);
  EXPECT_EQ(server.rejected(), 3);
  server.Start();
  server.Stop();
  EXPECT_EQ(server.completed(), 8);
}

TEST(ServingTelemetryTest, StageHistogramsCoverEveryServedQuery) {
  Workload w = MakePaperWorkload(SmallConfig(61));
  const int num_queries = 60;
  const std::vector<Query> queries =
      MakeQuerySequence(num_queries, w.config.num_keywords, 67);
  ServerConfig config;
  config.engine.engine.seed = 67;
  config.max_batch_size = 8;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(61));
    return RoiStrategies(tmp);
  }());
  server.Start();
  for (const Query& q : queries) {
    ASSERT_EQ(server.Submit(q), QueuePushResult::kAccepted);
  }
  server.Stop();

  EXPECT_EQ(server.completed(), num_queries);
  EXPECT_EQ(server.queue_wait_us().count(),
            static_cast<uint64_t>(num_queries));
  EXPECT_EQ(server.auction_us().count(), static_cast<uint64_t>(num_queries));
  EXPECT_EQ(server.settlement_us().count(),
            static_cast<uint64_t>(num_queries));
  EXPECT_EQ(server.end_to_end_us().count(),
            static_cast<uint64_t>(num_queries));
  // End-to-end includes the queue wait: its tail cannot undercut it.
  EXPECT_GE(server.end_to_end_us().Percentile(99),
            server.queue_wait_us().Percentile(99) * 15 / 16);
  // Micro-batching must actually batch: fewer batches than queries, at
  // least ceil(queries / max_batch).
  EXPECT_GE(server.batches(), num_queries / 8);
  EXPECT_LE(server.batches(), num_queries);
}

TEST(ServingLifecycleTest, StopIsIdempotentAndSubmitAfterCloseFails) {
  Workload w = MakePaperWorkload(SmallConfig(71));
  ServerConfig config;
  config.engine.engine.seed = 73;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(71));
    return RoiStrategies(tmp);
  }());
  QueryGenerator gen(4, 73);
  server.Start();
  EXPECT_EQ(server.Submit(gen.Next()), QueuePushResult::kAccepted);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.Submit(gen.Next()), QueuePushResult::kClosed);
  EXPECT_EQ(server.completed(), 1);
}

TEST(ServingLifecycleTest, ConcurrentProducersAllServedUnderBlockPolicy) {
  // The MPMC claim, end to end: 4 producer threads, tiny queue, block
  // policy — every submission must eventually settle exactly once.
  Workload w = MakePaperWorkload(SmallConfig(79));
  ServerConfig config;
  config.engine.engine.seed = 83;
  config.queue_capacity = 4;
  config.max_batch_size = 4;
  AuctionServer server(config, std::move(w), [] {
    Workload tmp = MakePaperWorkload(SmallConfig(79));
    return RoiStrategies(tmp);
  }());
  server.Start();
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&server, p] {
      QueryGenerator gen(4, 100 + p);
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(server.Submit(gen.Next()), QueuePushResult::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  server.Stop();
  EXPECT_EQ(server.completed(), kProducers * kPerProducer);
  EXPECT_EQ(server.engine().auctions_run(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace ssa
