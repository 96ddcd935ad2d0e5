// Sharded-engine benchmark harness (custom main, no google-benchmark):
// the full RunAuctionOn lifecycle (program evaluation, compiled-bids
// lookups, revenue matrix, reduced-Hungarian winner determination, pricing,
// settlement) on the Section V paper workload, swept over the shard count.
//
//   1. Pool-free: ShardedAuctionEngine at K ∈ {1, 2, 4, 8} with the shard
//      phase run sequentially — identical work, different layout, so the
//      rows price the per-K partition overhead.
//   2. Pooled: K ∈ {1, 2, 4} with the capture and shard phase fanned out on
//      a K-thread pool — what intra-query shard parallelism buys on the
//      host's cores.
//
//   3. VCG: RH + VCG at K = 2, pool-free and on a 2-thread pool, on the
//      native ROI bidders (planned: VCG prices from the merged top-(k+1)
//      pool) and on the same population behind BruteForce(...) (capture,
//      compile and matrix fill for every auction).
//
// Native ROI bidders are planned by the engine's one RHTALU planner at
// every K, so each GSP row also reports the planner's Threshold Algorithm
// probes per measured auction: a deterministic count that must be equal on
// every row.
//
// Every row runs the same seeded auction sequence from a fresh engine, so
// every GSP row must settle the same total revenue, and so must every VCG
// row (sharded_engine_test and roi_planner_test pin the full bitwise
// trajectory); the harness exits 1 if one does not, or if a planned VCG row
// did not plan every auction logically.
//
// Knobs (env): SSA_SHARD_N (advertisers, default 2000),
// SSA_SHARD_AUCTIONS (measured per config, default 200), SSA_SHARD_WARMUP
// (default 30), SSA_SEED, SSA_SHARD_QUICK=1 (CI smoke: tiny counts).
// Flags: --json[=path] appends a machine-readable report (to stdout or
// `path`) after the human-readable table; it records the host's core count.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "auction/sharded_engine.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ssa {
namespace bench {
namespace {

struct ThroughputRow {
  int shards = 1;
  int pool_threads = 0;  // 0 = pool-free (sequential shard phase)
  bool brute = false;    // the population behind BruteForce(...)
  double ms_per_auction = 0;
  /// RHTALU Threshold Algorithm probes per measured auction.
  double probes_per_auction = 0;
  /// Auctions run (warmup included) and those the planner planned.
  int64_t auctions = 0;
  int64_t logical_plans = 0;
  Money total_revenue = 0;
};

/// Average ms/auction over `measured` auctions after `warmup` unmeasured
/// ones, by wall clock, on a fresh engine with K = `shards`, (when
/// `pool_threads` > 0) a pool of that many threads and `pricing`; with
/// `brute`, every bidder sits behind BruteForce(...).
ThroughputRow MeasureRow(
    int n, uint64_t seed, int shards, int pool_threads, int warmup,
    int measured, PricingRule pricing = PricingRule::kGeneralizedSecondPrice,
    bool brute = false) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 0) pool = std::make_unique<ThreadPool>(pool_threads);
  Workload w = PaperWorkload(n, seed);
  auto strategies = brute ? BruteForceRoiStrategies(w) : RoiStrategies(w);
  ShardedEngineConfig config;
  config.engine.seed = seed + 1;
  config.engine.pricing = pricing;
  config.num_shards = shards;
  config.pool = pool.get();
  ShardedAuctionEngine engine(config, std::move(w), std::move(strategies));
  QueryGenerator queries(engine.workload().config.num_keywords,
                         config.engine.seed);
  for (int t = 0; t < warmup; ++t) engine.RunAuctionOn(queries.Next());
  const int64_t probes_before = engine.planner_stats().probes;
  WallTimer timer;
  for (int t = 0; t < measured; ++t) engine.RunAuctionOn(queries.Next());
  ThroughputRow row;
  row.shards = shards;
  row.pool_threads = pool_threads;
  row.brute = brute;
  row.ms_per_auction = timer.ElapsedMillis() / measured;
  row.probes_per_auction =
      static_cast<double>(engine.planner_stats().probes - probes_before) /
      measured;
  row.auctions = engine.auctions_run();
  row.logical_plans = engine.planner_stats().logical_plans;
  row.total_revenue = engine.total_revenue();
  return row;
}

void WriteJson(std::FILE* f, int n, int auctions, unsigned cores,
               const std::vector<ThroughputRow>& rows,
               const std::vector<ThroughputRow>& vcg) {
  std::fprintf(f, "{\n  \"bench\": \"bench_sharded\",\n");
  std::fprintf(f, "  \"n\": %d,\n  \"auctions\": %d,\n  \"cores\": %u,\n",
               n, auctions, cores);
  std::fprintf(f, "  \"throughput\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& row = rows[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"pool_threads\": %d, "
                 "\"ms_per_auction\": %.4f, "
                 "\"probes_per_auction\": %.2f}%s\n",
                 row.shards, row.pool_threads, row.ms_per_auction,
                 row.probes_per_auction, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"vcg\": [\n");
  for (size_t i = 0; i < vcg.size(); ++i) {
    const ThroughputRow& row = vcg[i];
    std::fprintf(f,
                 "    {\"path\": \"%s\", \"shards\": %d, "
                 "\"pool_threads\": %d, \"ms_per_auction\": %.4f, "
                 "\"auctions\": %lld, \"logical_plans\": %lld}%s\n",
                 row.brute ? "brute" : "planned", row.shards,
                 row.pool_threads, row.ms_per_auction,
                 static_cast<long long>(row.auctions),
                 static_cast<long long>(row.logical_plans),
                 i + 1 < vcg.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown flag: %s (supported: --json[=path])\n",
                   argv[i]);
      return 2;
    }
  }

  const bool quick = EnvInt("SSA_SHARD_QUICK", 0) != 0;
  const int n = static_cast<int>(EnvInt("SSA_SHARD_N", quick ? 400 : 2000));
  const int auctions =
      static_cast<int>(EnvInt("SSA_SHARD_AUCTIONS", quick ? 60 : 200));
  const int warmup =
      static_cast<int>(EnvInt("SSA_SHARD_WARMUP", quick ? 10 : 30));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 12345));
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("# Sharded engine bench: n=%d advertisers, %d measured "
              "auctions per config, %d warmup, %u cores\n\n",
              n, auctions, warmup, cores);
  std::printf("## Throughput (paper workload, ROI strategies)\n");
  std::printf("%6s %8s %14s %16s\n", "shards", "threads", "ms/auction",
              "probes/auction");
  std::vector<ThroughputRow> rows;
  for (int shards : {1, 2, 4, 8}) {
    rows.push_back(MeasureRow(n, seed, shards, 0, warmup, auctions));
  }
  for (int shards : {1, 2, 4}) {
    rows.push_back(MeasureRow(n, seed, shards, shards, warmup, auctions));
  }
  for (const ThroughputRow& row : rows) {
    std::printf("%6d %8s %14.3f %16.2f\n", row.shards,
                row.pool_threads > 0 ? std::to_string(row.pool_threads).c_str()
                                     : "-",
                row.ms_per_auction, row.probes_per_auction);
  }

  std::printf("\n## RH + VCG at K = 2 (paper workload, ROI strategies)\n");
  std::printf("%8s %8s %14s %14s\n", "path", "threads", "ms/auction",
              "logical plans");
  std::vector<ThroughputRow> vcg;
  for (const int pool_threads : {0, 2}) {
    for (const bool brute : {false, true}) {
      vcg.push_back(MeasureRow(n, seed, 2, pool_threads, warmup, auctions,
                               PricingRule::kVcg, brute));
    }
  }
  for (const ThroughputRow& row : vcg) {
    std::printf("%8s %8s %14.3f %14lld\n", row.brute ? "brute" : "planned",
                row.pool_threads > 0 ? std::to_string(row.pool_threads).c_str()
                                     : "-",
                row.ms_per_auction, static_cast<long long>(row.logical_plans));
  }

  if (json) {
    std::FILE* f = json_path.empty() ? stdout
                                     : std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    if (!json_path.empty()) {
      std::printf("\nJSON report written to %s\n", json_path.c_str());
    } else {
      std::printf("\n");
    }
    WriteJson(f, n, auctions, cores, rows, vcg);
    if (!json_path.empty()) std::fclose(f);
  }

  // Regression gate: the shard layout and the pool may move work, never
  // values.
  for (const ThroughputRow& row : rows) {
    if (row.total_revenue != rows.front().total_revenue) {
      std::fprintf(stderr,
                   "FAIL: K=%d (pool threads %d) settled a different total "
                   "revenue than K=1\n",
                   row.shards, row.pool_threads);
      return 1;
    }
  }
  // VCG prices the planned auctions from the merged pool: the same values
  // as the brute-force path, and every auction planned logically.
  for (const ThroughputRow& row : vcg) {
    if (row.total_revenue != vcg.front().total_revenue) {
      std::fprintf(stderr,
                   "FAIL: VCG %s (pool threads %d) settled a different total "
                   "revenue than VCG planned pool-free\n",
                   row.brute ? "brute" : "planned", row.pool_threads);
      return 1;
    }
    if (!row.brute && row.logical_plans != row.auctions) {
      std::fprintf(stderr,
                   "FAIL: VCG planned (pool threads %d) planned %lld of %lld "
                   "auctions logically\n",
                   row.pool_threads, static_cast<long long>(row.logical_plans),
                   static_cast<long long>(row.auctions));
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main(int argc, char** argv) { return ssa::bench::Main(argc, argv); }
