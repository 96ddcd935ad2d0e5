// AuctionServer contract tests. The load-bearing one is deterministic
// replay: a fixed query sequence served through the async subsystem — any
// batch size, any shard count, any pool, with full tracing — must settle
// bitwise-identically to the serial reference engine loop
// (tests/reference_engine.h). Batching
// and queuing may only change *when* work happens, never *what* it computes.

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "forwarding_strategy.h"
#include "reference_engine.h"
#include "serving/auction_server.h"
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
  bool full_tracing = false;  // trace every query (sample_every = 1)
};

void RunReplayEquivalence(const ReplayParam& param) {
  const uint64_t workload_seed = 11;
  const uint64_t engine_seed = 13;
  const int num_queries = 120;

  // Serial oracle: the reference engine fed the same arrival sequence.
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(num_queries, w.config.num_keywords, engine_seed);
  EngineConfig engine_config;
  engine_config.seed = engine_seed;
  ReferenceEngine serial(engine_config, w, RoiStrategies(w));
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
  config.max_batch_size = param.max_batch;
  if (param.full_tracing) config.obs.trace.sample_every = 1;

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
  // Conservation: what advertisers spent is what the provider charged.
  Money spent = 0;
  for (const AdvertiserAccount& account : accounts) {
    spent += account.amount_spent;
  }
  EXPECT_NEAR(spent, total_revenue, 1e-9);
}

TEST(ServingReplayTest, MicroBatchesShardedOnPool) {
  RunReplayEquivalence(
      {/*max_batch=*/16, /*num_shards=*/3, /*pool_threads=*/3});
}

TEST(ServingReplayTest, LargeBatchManyShards) {
  // 8 shards of 5 advertisers each: the coordinator merge re-offers eight
  // partial top-k sets and must stay bitwise.
  RunReplayEquivalence(
      {/*max_batch=*/64, /*num_shards=*/8, /*pool_threads=*/4});
}

TEST(ServingReplayTest, MatrixMatchesSerialEngineBitwise) {
  // Shard count x batch size: replay always plans on the executor thread,
  // so the only knobs left that could move a value are the shard layout
  // and the batch grouping — neither may.
  for (int shards : {1, 4}) {
    for (int batch : {1, 8, 32}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " batch=" + std::to_string(batch));
      ReplayParam param;
      param.max_batch = batch;
      param.num_shards = shards;
      RunReplayEquivalence(param);
    }
  }
}

TEST(ServingObservabilityTest, ReplayStaysBitwiseUnderFullTracing) {
  // The observability half of the determinism contract: with every query
  // traced (sample_every = 1) and metrics on, replay must still reproduce
  // the serial engine bitwise across shard counts and batch sizes.
  // Instrumentation reads clocks and writes side state; it must never move
  // an auction value.
  for (int shards : {1, 4}) {
    for (int batch : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " batch=" + std::to_string(batch));
      ReplayParam param;
      param.max_batch = batch;
      param.num_shards = shards;
      param.full_tracing = true;
      RunReplayEquivalence(param);
    }
  }
}

/// Serves 80 queries with every query traced, on 2 shards, to a population
/// of native ROI bidders (planned by the RHTALU planner) or, with
/// `forwarded`, the same bidders behind ForwardingStrategy (planned by brute
/// force on each shard). Returns the server, stopped.
std::unique_ptr<AuctionServer> ServeTraced(bool forwarded) {
  const uint64_t workload_seed = 41;
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  const std::vector<Query> queries =
      MakeQuerySequence(80, w.config.num_keywords, 43);
  ServerConfig config;
  config.engine.engine.seed = 43;
  config.engine.num_shards = 2;
  config.max_batch_size = 8;
  config.obs.trace.sample_every = 1;
  auto strategies = RoiStrategies(w);
  if (forwarded) strategies = Forwarded(std::move(strategies));
  auto server = std::make_unique<AuctionServer>(config, std::move(w),
                                                std::move(strategies));
  EXPECT_TRUE(server->Start().ok());
  for (const Query& q : queries) {
    EXPECT_EQ(server->Submit(q), QueuePushResult::kAccepted);
  }
  server->Stop();
  return server;
}

TEST(ServingObservabilityTest, MetricsAndTraceExposePipelineSignals) {
  // The pipeline signals must be visible in the Prometheus snapshot and in
  // the Perfetto trace: the stage histograms and spans for every query, and
  // the engine's per-shard or planner work underneath them.
  for (bool forwarded : {false, true}) {
    SCOPED_TRACE(forwarded ? "brute force" : "RHTALU planner");
    const std::unique_ptr<AuctionServer> server = ServeTraced(forwarded);
    const std::string prom =
        ExportPrometheus(server->metrics().Snapshot(), &server->metrics());
    EXPECT_NE(prom.find("serving_accepted_total 80"), std::string::npos);
    EXPECT_NE(prom.find("serving_completed_total 80"), std::string::npos);
    EXPECT_NE(prom.find("serving_queue_wait_us_count"), std::string::npos);
    EXPECT_NE(prom.find("trace_spans_recorded_total"), std::string::npos);

    const std::vector<TraceEvent> events = server->DrainTrace();
    ASSERT_FALSE(events.empty());
    std::set<TraceStage> stages;
    std::set<int32_t> plan_tracks;
    std::set<std::pair<TraceStage, int32_t>> shard_slices;
    for (const TraceEvent& e : events) {
      stages.insert(e.stage);
      if (e.stage == TraceStage::kPlan) plan_tracks.insert(e.track);
      if (e.stage == TraceStage::kShardCapture ||
          e.stage == TraceStage::kShardPlan) {
        shard_slices.insert({e.stage, e.track});
      }
    }
    for (TraceStage want :
         {TraceStage::kQuery, TraceStage::kQueueWait, TraceStage::kPlan,
          TraceStage::kSettle, TraceStage::kBatch, TraceStage::kShardCapture,
          TraceStage::kShardPlan}) {
      EXPECT_TRUE(stages.count(want)) << TraceStageName(want);
    }
    // The executor plans every query itself.
    EXPECT_EQ(plan_tracks, (std::set<int32_t>{0}));
    const std::string chrome = Tracer::ExportChromeTrace(events);
    EXPECT_NE(chrome.find("\"shard_plan\""), std::string::npos);

    MetricsRegistry* registry = server->mutable_metrics();
    if (!forwarded) {
      // The planner covers both shards: its bid step and Threshold
      // Algorithm are the only shard-level slices, on the planner track,
      // and its counters account for every auction.
      EXPECT_EQ(shard_slices,
                (std::set<std::pair<TraceStage, int32_t>>{
                    {TraceStage::kShardCapture, kPlannerTrack},
                    {TraceStage::kShardPlan, kPlannerTrack}}));
      EXPECT_NE(chrome.find("RHTALU planner"), std::string::npos);
      EXPECT_EQ(registry
                    ->GetCounter("engine_roi_planner_logical_plans_total")
                    ->value(),
                80);
      EXPECT_GT(registry->GetCounter("engine_roi_planner_probes_total")
                    ->value(),
                0);
      EXPECT_GT(registry->GetCounter("engine_roi_planner_ns_total")->value(),
                0);
      continue;
    }
    // Brute force: each shard captures and plans its own slice, the shard
    // capture and phase times are counted per shard, and every advertiser's
    // table is looked up once per auction.
    EXPECT_NE(prom.find("engine_shard_capture_ns_total{shard=\"1\"}"),
              std::string::npos);
    EXPECT_EQ(shard_slices, (std::set<std::pair<TraceStage, int32_t>>{
                                {TraceStage::kShardCapture, 100},
                                {TraceStage::kShardCapture, 101},
                                {TraceStage::kShardPlan, 200},
                                {TraceStage::kShardPlan, 201}}));
    EXPECT_NE(chrome.find("shard 1 capture"), std::string::npos);
    EXPECT_NE(chrome.find("shard 1 plan"), std::string::npos);
    for (int s = 0; s < 2; ++s) {
      const std::string shard = "shard=\"" + std::to_string(s) + "\"";
      EXPECT_GT(
          registry->GetCounter("engine_shard_phase_ns_total", shard)->value(),
          0)
          << shard;
    }
    EXPECT_EQ(registry->GetCounter("engine_cache_hits_total")->value() +
                  registry->GetCounter("engine_cache_misses_total")->value(),
              40 * 80);
  }
}

TEST(ServingObservabilityTest, ExportsNoDeadMetricsAndTotalsAsCounters) {
  // No dead metrics: a server without a settlement log has nothing to
  // recover or persist, so it exports no recovery_* or durability_* sample
  // (and no rebalance counter), and an engine without the RHTALU planner
  // exports none of its counters. Every exported *_total sample — engine
  // caches, durability totals, admission counters, planner work — is a
  // counter, so Prometheus sees TYPE counter for each.
  // `forwarded` keeps the bidders on the brute-force path; `target_rate` > 0
  // overrides every advertiser's target spend rate.
  auto served_snapshot = [](const ServerConfig& config, bool forwarded,
                            double target_rate = 0) {
    Workload w = MakePaperWorkload(SmallConfig(131));
    if (target_rate > 0) {
      for (AdvertiserAccount& a : w.accounts) a.target_spend_rate = target_rate;
    }
    const std::vector<Query> queries =
        MakeQuerySequence(40, w.config.num_keywords, 137);
    auto strategies = RoiStrategies(w);
    if (forwarded) strategies = Forwarded(std::move(strategies));
    AuctionServer server(config, std::move(w), std::move(strategies));
    EXPECT_TRUE(server.Start().ok());
    for (const Query& q : queries) {
      EXPECT_EQ(server.Submit(q), QueuePushResult::kAccepted);
    }
    server.Stop();
    return server.metrics().Snapshot();
  };
  auto has_prefix = [](const std::string& name, const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  auto value_of = [](const MetricsSnapshot& snap, const std::string& name) {
    double sum = 0;  // summed over label sets
    for (const MetricSample& s : snap.samples) {
      if (s.name == name) sum += s.value;
    }
    return sum;
  };
  auto kinds_by_name = [](const MetricsSnapshot& snap) {
    std::map<std::string, MetricSample::Kind> kinds;
    for (const MetricSample& s : snap.samples) {
      const bool total = s.name.size() > 6 &&
                         s.name.compare(s.name.size() - 6, 6, "_total") == 0;
      if (total) {
        EXPECT_EQ(s.kind, MetricSample::kCounter) << s.name << s.labels;
      }
      kinds[s.name] = s.kind;
    }
    return kinds;
  };

  ServerConfig config;
  config.engine.engine.seed = 137;
  config.engine.num_shards = 2;
  config.max_batch_size = 8;
  const MetricsSnapshot no_log = served_snapshot(config, /*forwarded=*/true);
  const auto kinds = kinds_by_name(no_log);
  for (const auto& [name, kind] : kinds) {
    EXPECT_FALSE(has_prefix(name, "recovery_")) << name;
    EXPECT_FALSE(has_prefix(name, "durability_")) << name;
    EXPECT_NE(name, "serving_rebalances_total");
    // Brute force on every shard: no planner metrics.
    EXPECT_FALSE(has_prefix(name, "engine_roi_planner_")) << name;
    EXPECT_FALSE(has_prefix(name, "lane_")) << name;
  }
  for (const char* name : {"engine_cache_hits_total",
                           "engine_cache_misses_total",
                           "serving_completed_total"}) {
    ASSERT_TRUE(kinds.count(name)) << name;
  }
  // One cache lookup per advertiser per auction.
  EXPECT_EQ(value_of(no_log, "engine_cache_hits_total") +
                value_of(no_log, "engine_cache_misses_total"),
            40.0 * 40.0);
  for (const HistogramSample& h : no_log.histograms) {
    EXPECT_FALSE(has_prefix(h.name, "durability_")) << h.name;
  }
  const std::string prom = ExportPrometheus(no_log);
  EXPECT_NE(prom.find("# TYPE engine_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE engine_cache_misses_total counter"),
            std::string::npos);

  // With a log, the durability totals and recovery gauges appear, and the
  // totals are still counters. Low target spend rates make winners
  // overspend, so the planner's spend-rate triggers fire in this short run.
  const std::string log_path =
      testing::TempDir() + "/ssa_serving_metric_kinds.log";
  std::remove(log_path.c_str());
  config.durability.log_path = log_path;
  const MetricsSnapshot with_log =
      served_snapshot(config, /*forwarded=*/false, 0.2);
  const auto logged = kinds_by_name(with_log);
  ASSERT_TRUE(logged.count("durability_records_appended_total"));
  EXPECT_EQ(value_of(with_log, "durability_records_appended_total"), 40.0);
  ASSERT_TRUE(logged.count("durability_bytes_written_total"));
  ASSERT_TRUE(logged.count("recovery_records_replayed"));
  EXPECT_EQ(logged.at("recovery_records_replayed"), MetricSample::kGauge);
  // Replay on native ROI bidders plans both shards with the one RHTALU
  // planner: its work totals are live counters, and it planned every
  // auction logically. Its ctr prefixes hold all 40 bidders, so they never
  // need extending.
  for (const char* name : {"engine_roi_planner_logical_plans_total",
                           "engine_roi_planner_probes_total",
                           "engine_roi_planner_list_moves_total",
                           "engine_roi_planner_triggers_fired_total",
                           "engine_roi_planner_rebuilds_total",
                           "engine_roi_planner_ctr_extensions_total",
                           "engine_roi_planner_ns_total"}) {
    ASSERT_TRUE(logged.count(name)) << name;
    EXPECT_EQ(logged.at(name), MetricSample::kCounter) << name;
  }
  for (const char* name : {"engine_roi_planner_probes_total",
                           "engine_roi_planner_list_moves_total",
                           "engine_roi_planner_triggers_fired_total",
                           "engine_roi_planner_rebuilds_total",
                           "engine_roi_planner_ns_total"}) {
    EXPECT_GT(value_of(with_log, name), 0.0) << name;
  }
  EXPECT_EQ(value_of(with_log, "engine_roi_planner_logical_plans_total"),
            40.0);
  EXPECT_EQ(value_of(with_log, "engine_roi_planner_ctr_extensions_total"),
            0.0);
  // Nothing ran the brute-force path, so its totals, which can only grow
  // from 0, are not exported at all; the shard sizes still are.
  for (const char* name :
       {"engine_shard_capture_ns_total", "engine_shard_phase_ns_total",
        "engine_cache_hits_total", "engine_cache_misses_total"}) {
    EXPECT_FALSE(logged.count(name)) << name;
  }
  EXPECT_TRUE(logged.count("engine_shard_advertisers"));
  std::remove(log_path.c_str());
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

TEST(ServingTelemetryTest, StageHistogramsCoverEveryServedQuery) {
  // Every query is admitted before Start(), so the executor pops fixed
  // 8-query batches and most queries wait behind earlier batch-mates.
  // That wait is queue wait: each query's stages must add up exactly to
  // its end-to-end time.
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
  for (const Query& q : queries) {
    ASSERT_EQ(server.Submit(q), QueuePushResult::kAccepted);
  }
  server.Start();
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
  // A preloaded queue pops full batches: ceil(60 / 8).
  EXPECT_EQ(server.batches(), 8);
  // Queue wait + auction + settlement == end-to-end, summed exactly.
  EXPECT_EQ(server.queue_wait_us().sum() + server.auction_us().sum() +
                server.settlement_us().sum(),
            server.end_to_end_us().sum());
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
