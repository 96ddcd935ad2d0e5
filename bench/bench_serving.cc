// Serving-layer load generator: drives the AuctionServer (bounded ingestion
// queue -> micro-batched sharded auctions, each planned and settled in
// turn) with closed- and open-loop traffic and reports sustained throughput
// plus queue-wait and end-to-end latency percentiles from the server's own
// log-bucketed histograms, and process CPU time per auction.
//
//   * Closed loop: P producers submit back-to-back under the kBlock policy —
//     measures the engine-bound ceiling (sustained qps) per shard count x
//     batch size, and the cost of observability (metrics and tracing).
//   * Open loop: one producer with Poisson arrivals (exponential
//     inter-arrival times from util/rng.h) at a sweep of offered rates
//     around the measured ceiling, kReject policy — measures how the
//     latency tail and shed rate move as utilization approaches 1, which
//     closed-loop harnesses cannot see. The ceiling is the median qps of
//     the one-producer "metrics" observability row: the open loop's own
//     shards, batch and instrumentation, served one producer's clock.
//
// Knobs (env): SSA_SERVE_N (advertisers, default 10000),
// SSA_SERVE_AUCTIONS (measured auctions per config, default 500),
// SSA_SERVE_WARMUP (default 50), SSA_SERVE_PRODUCERS (default 2),
// SSA_SEED, SSA_SERVE_QUICK=1 (CI smoke: tiny population and counts).
// Flags: --json[=path] appends a machine-readable report (to stdout or
// `path`) after the human-readable tables.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "serving/auction_server.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ssa {
namespace bench {
namespace {

using std::chrono::duration;
using std::chrono::microseconds;
using std::chrono::steady_clock;

struct LoadResult {
  double qps = 0;          // completed / measured wall time
  double offered_qps = 0;  // open loop only: submissions / wall time
  /// Process CPU time (every thread: executor, pool, producers) over the
  /// measured window, per completed auction.
  double cpu_ms_per_auction = 0;
  /// RHTALU planner list rebuilds over the whole run (read after Stop()).
  /// A query whose time runs backwards forces one; the closed loop's two
  /// producers each restart the query clock, so their interleaving, which
  /// timing decides, sets how many (ROADMAP item 1).
  int64_t rebuilds = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  uint64_t queue_p50 = 0, queue_p95 = 0, queue_p99 = 0;
  uint64_t e2e_p50 = 0, e2e_p95 = 0, e2e_p99 = 0;
};

struct ServeSetup {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<AuctionServer> server;
};

/// Process CPU time in seconds: what every thread of this process consumed,
/// so noise from other tenants on a shared host does not count.
double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

ServeSetup MakeServer(int n, int shards, int batch, BackpressurePolicy policy,
                      uint64_t seed, bool metrics = true,
                      uint32_t trace_every = 0) {
  ServeSetup setup;
  if (shards > 1) setup.pool = std::make_unique<ThreadPool>(shards);
  ServerConfig config;
  config.engine.engine.seed = seed + 1;
  config.engine.num_shards = shards;
  config.engine.pool = setup.pool.get();
  config.queue_capacity = 1024;
  config.backpressure = policy;
  config.max_batch_size = batch;
  config.obs.metrics = metrics;
  config.obs.trace.sample_every = trace_every;
  Workload workload = PaperWorkload(n, seed);
  auto strategies = RoiStrategies(workload);
  setup.server = std::make_unique<AuctionServer>(config, std::move(workload),
                                                 std::move(strategies));
  setup.server->Start();
  return setup;
}

/// Submits `count` queries and blocks until the server settled all of them.
void SubmitAndDrain(AuctionServer* server, QueryGenerator* gen, int count) {
  const int64_t target = server->completed() + count;
  for (int i = 0; i < count; ++i) server->Submit(gen->Next());
  while (server->completed() < target) {
    std::this_thread::sleep_for(microseconds(200));
  }
}

void FillPercentiles(const AuctionServer& server, LoadResult* r) {
  r->queue_p50 = server.queue_wait_us().Percentile(50);
  r->queue_p95 = server.queue_wait_us().Percentile(95);
  r->queue_p99 = server.queue_wait_us().Percentile(99);
  r->e2e_p50 = server.end_to_end_us().Percentile(50);
  r->e2e_p95 = server.end_to_end_us().Percentile(95);
  r->e2e_p99 = server.end_to_end_us().Percentile(99);
}

LoadResult RunClosedLoop(int n, int shards, int batch, int producers,
                         int warmup, int auctions, uint64_t seed,
                         bool metrics = true, uint32_t trace_every = 0,
                         std::string* metrics_json = nullptr) {
  ServeSetup setup = MakeServer(n, shards, batch, BackpressurePolicy::kBlock,
                                seed, metrics, trace_every);
  AuctionServer& server = *setup.server;
  QueryGenerator warmup_gen(10, seed + 2);
  SubmitAndDrain(&server, &warmup_gen, warmup);
  server.ResetTelemetry();

  const int64_t completed_before = server.completed();
  const double cpu_before = ProcessCpuSeconds();
  const auto start = steady_clock::now();
  std::vector<std::thread> threads;
  const int per_producer = auctions / producers;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&server, p, per_producer, seed] {
      QueryGenerator gen(10, seed + 100 + p);
      for (int i = 0; i < per_producer; ++i) server.Submit(gen.Next());
    });
  }
  for (auto& t : threads) t.join();
  const int64_t target = completed_before + int64_t{producers} * per_producer;
  while (server.completed() < target) {
    std::this_thread::sleep_for(microseconds(200));
  }
  const double elapsed = duration<double>(steady_clock::now() - start).count();
  const double cpu = ProcessCpuSeconds() - cpu_before;

  LoadResult r;
  r.completed = server.completed() - completed_before;
  r.qps = static_cast<double>(r.completed) / elapsed;
  r.cpu_ms_per_auction = 1e3 * cpu / static_cast<double>(r.completed);
  FillPercentiles(server, &r);
  server.Stop();
  r.rebuilds = server.engine().planner_stats().rebuilds;
  if (metrics_json != nullptr) {
    // Stop() published the terminal engine/log gauges: this snapshot is the
    // unified registry view of the whole run.
    *metrics_json = ExportMetricsJson(server.metrics().Snapshot());
  }
  return r;
}

LoadResult RunOpenLoop(int n, int shards, int batch, double rate_qps,
                       int warmup, int auctions, uint64_t seed) {
  ServeSetup setup =
      MakeServer(n, shards, batch, BackpressurePolicy::kReject, seed);
  AuctionServer& server = *setup.server;
  QueryGenerator warmup_gen(10, seed + 2);
  SubmitAndDrain(&server, &warmup_gen, warmup);
  server.ResetTelemetry();

  const int64_t completed_before = server.completed();
  const int64_t rejected_before = server.rejected();
  QueryGenerator gen(10, seed + 3);
  Rng arrivals(seed + 4);
  const double cpu_before = ProcessCpuSeconds();
  const auto start = steady_clock::now();
  auto next_arrival = start;
  for (int i = 0; i < auctions; ++i) {
    // Exponential inter-arrival: a Poisson process at rate_qps.
    const double gap_s =
        -std::log(1.0 - arrivals.NextDouble()) / rate_qps;
    next_arrival += microseconds(static_cast<int64_t>(gap_s * 1e6));
    std::this_thread::sleep_until(next_arrival);
    server.Submit(gen.Next());
  }
  const double offered_elapsed =
      duration<double>(steady_clock::now() - start).count();
  // Drain what was admitted.
  const int64_t admitted =
      auctions - (server.rejected() - rejected_before);
  while (server.completed() - completed_before < admitted) {
    std::this_thread::sleep_for(microseconds(200));
  }
  const double elapsed = duration<double>(steady_clock::now() - start).count();
  const double cpu = ProcessCpuSeconds() - cpu_before;

  LoadResult r;
  r.completed = server.completed() - completed_before;
  r.rejected = server.rejected() - rejected_before;
  r.offered_qps = static_cast<double>(auctions) / offered_elapsed;
  r.qps = static_cast<double>(r.completed) / elapsed;
  r.cpu_ms_per_auction = 1e3 * cpu / static_cast<double>(r.completed);
  FillPercentiles(server, &r);
  server.Stop();
  r.rebuilds = server.engine().planner_stats().rebuilds;
  return r;
}

/// One measured configuration, for the optional JSON report.
struct JsonRow {
  std::string section;  // "closed_loop" | "obs_overhead" | "open_loop"
  std::string label;    // run or load label
  int shards = 0;
  int batch = 0;
  LoadResult r;
};

void WriteJson(std::FILE* f, int n, int auctions, int producers,
               unsigned cores, const std::vector<JsonRow>& rows,
               const std::string& metrics_json) {
  std::fprintf(f, "{\n  \"bench\": \"bench_serving\",\n");
  std::fprintf(f,
               "  \"n\": %d,\n  \"auctions\": %d,\n  \"producers\": %d,\n"
               "  \"cores\": %u,\n",
               n, auctions, producers, cores);
  if (!metrics_json.empty()) {
    // Unified registry snapshot (serving + engine + durability telemetry)
    // from the fully-instrumented obs_overhead run.
    std::fprintf(f, "  \"metrics\": %s,\n", metrics_json.c_str());
  }
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    std::fprintf(
        f,
        "    {\"section\": \"%s\", \"label\": \"%s\", "
        "\"shards\": %d, \"batch\": %d,\n"
        "     \"qps\": %.1f, \"offered_qps\": %.1f, "
        "\"cpu_ms_per_auction\": %.3f, \"rebuilds\": %lld, "
        "\"completed\": %lld, \"rejected\": %lld,\n"
        "     \"queue_us\": {\"p50\": %llu, \"p95\": %llu, \"p99\": %llu},\n"
        "     \"e2e_us\": {\"p50\": %llu, \"p95\": %llu, \"p99\": %llu}}%s\n",
        row.section.c_str(), row.label.c_str(), row.shards, row.batch,
        row.r.qps, row.r.offered_qps, row.r.cpu_ms_per_auction,
        static_cast<long long>(row.r.rebuilds),
        static_cast<long long>(row.r.completed),
        static_cast<long long>(row.r.rejected),
        static_cast<unsigned long long>(row.r.queue_p50),
        static_cast<unsigned long long>(row.r.queue_p95),
        static_cast<unsigned long long>(row.r.queue_p99),
        static_cast<unsigned long long>(row.r.e2e_p50),
        static_cast<unsigned long long>(row.r.e2e_p95),
        static_cast<unsigned long long>(row.r.e2e_p99),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

void PrintRow(int shards, int batch, const LoadResult& r) {
  std::printf("%6d %6d %9.1f %8.3f %8lld %8lld %8lld %8lld %8lld %8lld "
              "%8lld\n",
              shards, batch, r.qps, r.cpu_ms_per_auction,
              static_cast<long long>(r.rebuilds),
              static_cast<long long>(r.queue_p50),
              static_cast<long long>(r.queue_p95),
              static_cast<long long>(r.queue_p99),
              static_cast<long long>(r.e2e_p50),
              static_cast<long long>(r.e2e_p95),
              static_cast<long long>(r.e2e_p99));
}

/// Median of `values` (sorted in place).
double Median(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  const size_t m = values->size() / 2;
  return values->size() % 2 == 1 ? (*values)[m]
                                  : 0.5 * ((*values)[m - 1] + (*values)[m]);
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
  std::vector<JsonRow> json_rows;

  const bool quick = EnvInt("SSA_SERVE_QUICK", 0) != 0;
  const int n = static_cast<int>(EnvInt("SSA_SERVE_N", quick ? 500 : 10000));
  const int auctions =
      static_cast<int>(EnvInt("SSA_SERVE_AUCTIONS", quick ? 120 : 500));
  const int warmup =
      static_cast<int>(EnvInt("SSA_SERVE_WARMUP", quick ? 20 : 50));
  const int producers = static_cast<int>(EnvInt("SSA_SERVE_PRODUCERS", 2));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 1));
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("# Serving load: n=%d advertisers, %d measured auctions per "
              "config, %d warmup, %d producers, %u cores\n",
              n, auctions, warmup, producers, cores);
  std::printf("# latencies in microseconds (log-bucketed histogram, <=6.25%% "
              "relative error); cpu_ms = process CPU per auction\n\n");

  // --- Closed loop: engine-bound ceiling per shards x batch.
  std::printf("## Closed loop (kBlock backpressure)\n");
  std::printf("%6s %6s %9s %8s %8s %8s %8s %8s %8s %8s %8s\n", "shards",
              "batch", "qps", "cpu_ms", "rebuilds", "qw_p50", "qw_p95",
              "qw_p99", "e2e_p50", "e2e_p95", "e2e_p99");
  const std::vector<int> shard_sweep = quick ? std::vector<int>{1}
                                             : std::vector<int>{1, 4, 8};
  const std::vector<int> batch_sweep =
      quick ? std::vector<int>{8} : std::vector<int>{1, 16};
  for (int shards : shard_sweep) {
    for (int batch : batch_sweep) {
      const LoadResult r = RunClosedLoop(n, shards, batch, producers, warmup,
                                         auctions, seed);
      PrintRow(shards, batch, r);
      json_rows.push_back({"closed_loop", "replay", shards, batch, r});
    }
  }

  // --- Observability overhead: one closed-loop config with instrumentation
  // off, metrics only, and metrics + tracing at 1-in-64 and full sampling.
  // The contract: metrics + 1-in-64 tracing must be cheap enough to leave on
  // in production. Wall-clock qps on a shared host moves by more than that
  // between runs, so each row also reports process CPU per auction, which
  // other tenants do not inflate. One producer: every case then serves the
  // same arrival sequence, so the planner's rebuilds (which the interleaving
  // of two producers' clocks decides, see LoadResult::rebuilds) are equal
  // in every case and only the instrumentation differs.
  const int shards = quick ? 1 : 4;
  const int batch = quick ? 8 : 16;
  const int obs_producers = 1;
  std::printf("\n## Observability overhead (closed loop, %d producer, "
              "shards=%d, batch=%d; medians of interleaved runs)\n",
              obs_producers, shards, batch);
  std::printf("%-12s %9s %9s %8s %9s %8s %8s %8s\n", "obs", "qps",
              "delta%", "cpu_ms", "cpu_d%", "rebuilds", "e2e_p50", "e2e_p99");
  struct ObsCase {
    const char* label;
    bool metrics;
    uint32_t trace_every;
  };
  const ObsCase obs_cases[] = {
      {"off", false, 0},
      {"metrics", true, 0},
      {"trace_1in64", true, 64},
      {"trace_full", true, 1},
  };
  // The case instrumented like the open-loop server (metrics, no tracing).
  constexpr int kOpenLoopCase = 1;
  // Interleaved runs: host-frequency drift between sittings swamps a small
  // effect in any single sample, so each case runs R times round-robin
  // (drift hits every case equally) and the medians represent it.
  const int obs_reps = quick ? 1 : 5;
  constexpr int kObsCases = 4;
  std::string metrics_json;
  std::vector<LoadResult> obs_runs[kObsCases];
  for (int rep = 0; rep < obs_reps; ++rep) {
    for (int i = 0; i < kObsCases; ++i) {
      const ObsCase& c = obs_cases[i];
      // Keep the unified registry snapshot from the recommended production
      // configuration (metrics + 1-in-64 tracing) for the JSON report.
      std::string* sink =
          std::strcmp(c.label, "trace_1in64") == 0 ? &metrics_json : nullptr;
      obs_runs[i].push_back(RunClosedLoop(n, shards, batch, obs_producers,
                                          warmup, auctions, seed, c.metrics,
                                          c.trace_every, sink));
    }
  }
  // Each row is the run with the median qps, carrying the median CPU per
  // auction of all its runs.
  LoadResult obs_median[kObsCases];
  for (int i = 0; i < kObsCases; ++i) {
    std::vector<LoadResult>& runs = obs_runs[i];
    std::vector<double> cpu;
    for (const LoadResult& r : runs) cpu.push_back(r.cpu_ms_per_auction);
    std::sort(runs.begin(), runs.end(),
              [](const LoadResult& a, const LoadResult& b) {
                return a.qps < b.qps;
              });
    obs_median[i] = runs[runs.size() / 2];
    obs_median[i].cpu_ms_per_auction = Median(&cpu);
  }
  for (int i = 0; i < kObsCases; ++i) {
    const LoadResult& r = obs_median[i];
    const LoadResult& off = obs_median[0];
    std::printf("%-12s %9.1f %9.2f %8.3f %9.2f %8lld %8lld %8lld\n",
                obs_cases[i].label, r.qps,
                100.0 * (off.qps - r.qps) / off.qps, r.cpu_ms_per_auction,
                100.0 * (r.cpu_ms_per_auction - off.cpu_ms_per_auction) /
                    off.cpu_ms_per_auction,
                static_cast<long long>(r.rebuilds),
                static_cast<long long>(r.e2e_p50),
                static_cast<long long>(r.e2e_p99));
    json_rows.push_back(
        {"obs_overhead", obs_cases[i].label, shards, batch, r});
  }

  // --- Open loop: Poisson arrivals around the measured ceiling. The best
  // two-producer closed-loop row is no reference: its rate follows how
  // many backward-time planner rebuilds the producers' interleaving forced
  // (1,111-6,595 qps in one sitting), while the one-producer median pays
  // the same rebuilds every run and matches the open loop's configuration.
  const double reference_qps = obs_median[kOpenLoopCase].qps;
  std::printf("\n## Open loop (Poisson arrivals, kReject, shards=%d, "
              "batch=%d; rates relative to the %.1f qps ceiling)\n",
              shards, batch, reference_qps);
  std::printf("%-10s %9s %9s %7s %8s %8s %8s %8s %8s %8s\n", "load",
              "offered", "qps", "shed%", "cpu_ms", "rebuilds", "qw_p50",
              "qw_p95", "qw_p99", "e2e_p99");
  const std::vector<double> load_factors =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.5, 0.8, 1.2};
  for (double factor : load_factors) {
    const double rate = std::max(1.0, factor * reference_qps);
    const LoadResult r =
        RunOpenLoop(n, shards, batch, rate, warmup, auctions, seed);
    char label[32];
    std::snprintf(label, sizeof(label), "%.1fx", factor);
    const double shed =
        100.0 * static_cast<double>(r.rejected) /
        static_cast<double>(r.completed + r.rejected);
    std::printf("%-10s %9.1f %9.1f %7.2f %8.3f %8lld %8lld %8lld %8lld "
                "%8lld\n",
                label, r.offered_qps, r.qps, shed, r.cpu_ms_per_auction,
                static_cast<long long>(r.rebuilds),
                static_cast<long long>(r.queue_p50),
                static_cast<long long>(r.queue_p95),
                static_cast<long long>(r.queue_p99),
                static_cast<long long>(r.e2e_p99));
    json_rows.push_back({"open_loop", label, shards, batch, r});
  }

  if (json) {
    std::FILE* f = json_path.empty() ? stdout
                                     : std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    if (!json_path.empty()) {
      std::printf("\nJSON report written to %s\n", json_path.c_str());
    } else {
      std::printf("\n");
    }
    WriteJson(f, n, auctions, producers, cores, json_rows, metrics_json);
    if (!json_path.empty()) std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main(int argc, char** argv) { return ssa::bench::Main(argc, argv); }
