// Sharded-engine benchmark harness (custom main, no google-benchmark):
// the full RunAuction() lifecycle (program evaluation, compiled-bids
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
// Native ROI bidders are planned by the engine's one RHTALU planner at
// every K, so each row also reports the planner's Threshold Algorithm
// probes per measured auction: a deterministic count that must be equal on
// every row.
//
// Every row runs the same seeded auction sequence from a fresh engine, so
// every row must settle the same total revenue (sharded_engine_test pins
// the full bitwise trajectory); the harness exits 1 if one does not.
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
  double ms_per_auction = 0;
  /// RHTALU Threshold Algorithm probes per measured auction.
  double probes_per_auction = 0;
  Money total_revenue = 0;
};

/// Average ms/auction over `measured` auctions after `warmup` unmeasured
/// ones, by wall clock, on a fresh engine with K = `shards` and (when
/// `pool_threads` > 0) a pool of that many threads.
ThroughputRow MeasureRow(int n, uint64_t seed, int shards, int pool_threads,
                         int warmup, int measured) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 0) pool = std::make_unique<ThreadPool>(pool_threads);
  Workload w = PaperWorkload(n, seed);
  auto strategies = RoiStrategies(w);
  ShardedEngineConfig config;
  config.engine.seed = seed + 1;
  config.num_shards = shards;
  config.pool = pool.get();
  ShardedAuctionEngine engine(config, std::move(w), std::move(strategies));
  for (int t = 0; t < warmup; ++t) engine.RunAuction();
  const int64_t probes_before = engine.planner_stats().probes;
  WallTimer timer;
  for (int t = 0; t < measured; ++t) engine.RunAuction();
  ThroughputRow row;
  row.shards = shards;
  row.pool_threads = pool_threads;
  row.ms_per_auction = timer.ElapsedMillis() / measured;
  row.probes_per_auction =
      static_cast<double>(engine.planner_stats().probes - probes_before) /
      measured;
  row.total_revenue = engine.total_revenue();
  return row;
}

void WriteJson(std::FILE* f, int n, int auctions, unsigned cores,
               const std::vector<ThroughputRow>& rows) {
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
    WriteJson(f, n, auctions, cores, rows);
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
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main(int argc, char** argv) { return ssa::bench::Main(argc, argv); }
