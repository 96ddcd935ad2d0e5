// Serving quickstart: the async AuctionServer end to end.
//
//   1. Build the Section V paper workload (ROI bidders on the Figure 5
//      ladder) and stand up an AuctionServer on 2 shards: the executor
//      plans each query against the current accounts (the engine's RHTALU
//      planner covers these native ROI bidders) and settles it before
//      planning the next.
//   2. Submit N queries from this thread (any number of producer threads
//      works the same way), then Stop() — which drains every admitted
//      request before returning.
//   3. Print the per-stage latency histograms the server recorded, dump the
//      full metrics registry in Prometheus text format
//      (serving_metrics.prom), and write the sampled pipeline trace as
//      Chrome trace-event JSON (serving_trace.json — load it in Perfetto or
//      chrome://tracing to see queue wait, plan, the planner's bid step and
//      Threshold Algorithm, and settle per query).
//
// The served trajectory is bitwise-identical to the serial engine loop for
// any batch size, shard count and trace sampling rate; batching changes
// *when* work happens and tracing only observes, never what is computed.
// See docs/ARCHITECTURE.md for the contract.
//
// Build: cmake -B build -S . && cmake --build build
// Run:   ./build/example_serving_quickstart

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "auction/query.h"
#include "auction/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/auction_server.h"
#include "strategy/roi_strategy.h"
#include "util/histogram.h"

using namespace ssa;  // example code; library code never does this

namespace {

void PrintStage(const char* name, const LatencyHistogram& h) {
  std::printf("  %-12s  p50 %6llu us   p95 %6llu us   p99 %6llu us   "
              "max %6llu us\n",
              name, static_cast<unsigned long long>(h.Percentile(50)),
              static_cast<unsigned long long>(h.Percentile(95)),
              static_cast<unsigned long long>(h.Percentile(99)),
              static_cast<unsigned long long>(h.max()));
}

bool WriteFile(const char* path, const std::string& body) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  constexpr int kQueries = 2000;

  // --- 1. Workload + server. Every knob here is deterministic: same seed,
  // same trajectory, for any batch size or shard count.
  WorkloadConfig workload_config;
  workload_config.num_advertisers = 500;
  workload_config.seed = 7;
  Workload workload = MakePaperWorkload(workload_config);

  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.reserve(workload.accounts.size());
  for (size_t i = 0; i < workload.accounts.size(); ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }

  ServerConfig config;
  config.engine.num_shards = 2;
  config.engine.engine.seed = 7;
  config.max_batch_size = 16;
  config.queue_capacity = kQueries;  // room to admit the whole stream
  // Observability: metrics are on by default; trace every query (production
  // would use sample_every = 64 — same spans, 1/64th of the queries).
  config.obs.trace.sample_every = 1;

  AuctionServer server(config, std::move(workload), std::move(strategies));

  // --- 2. Produce. Submit() is thread-safe and may run before Start().
  // Admitting the whole stream first makes every batch a full 16 queries;
  // the settled values would be the same for any batching.
  QueryGenerator queries(workload_config.num_keywords, 7);
  for (int i = 0; i < kQueries; ++i) server.Submit(queries.Next());
  const Status started = server.Start();
  if (!started.ok()) {
    std::printf("server failed to start: %s\n", started.message().c_str());
    return 1;
  }
  server.Stop();  // drains all admitted requests, then joins the executor

  // --- 3. Report.
  std::printf("served %lld queries in %lld micro-batches, revenue %.2f "
              "cents\n",
              static_cast<long long>(server.completed()),
              static_cast<long long>(server.batches()),
              server.engine().total_revenue());
  std::printf("latency percentiles (log-bucketed, <=6.25%% relative "
              "error):\n");
  PrintStage("queue wait", server.queue_wait_us());
  PrintStage("auction", server.auction_us());
  PrintStage("settlement", server.settlement_us());
  PrintStage("end to end", server.end_to_end_us());

  // --- 4. Export the observability artifacts: the unified registry as
  // Prometheus text (what a scrape endpoint would serve) and the span ring
  // as Chrome trace-event JSON.
  const std::string prom =
      ExportPrometheus(server.metrics().Snapshot(), &server.metrics());
  const std::string trace = Tracer::ExportChromeTrace(server.DrainTrace());
  if (!WriteFile("serving_metrics.prom", prom) ||
      !WriteFile("serving_trace.json", trace)) {
    std::printf("failed to write observability artifacts\n");
    return 1;
  }
  std::printf("\nPrometheus snapshot (excerpt):\n");
  // Print the serving_* scalar families — the full text is in the file.
  int printed = 0;
  for (size_t pos = 0; pos < prom.size() && printed < 12;) {
    const size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    pos = eol == std::string::npos ? prom.size() : eol + 1;
    if (line.rfind("serving_", 0) == 0 &&
        line.find("_bucket{") == std::string::npos) {
      std::printf("  %s\n", line.c_str());
      ++printed;
    }
  }
  std::printf(
      "\nwrote serving_metrics.prom (%zu bytes) and serving_trace.json "
      "(%zu bytes; open in Perfetto / chrome://tracing)\n",
      prom.size(), trace.size());
  return 0;
}
