// Sharded-engine benchmark harness (custom main, no google-benchmark):
//
//   1. Throughput: the full RunAuction() lifecycle (program evaluation,
//      compiled-bids lookups, revenue matrix, reduced-Hungarian winner
//      determination, pricing, settlement) on the Section V paper workload —
//      ShardedAuctionEngine at K ∈ {1, 2, 4, 8}. Every K produces the same
//      bitwise trajectory for equal seeds (asserted by sharded_engine_test),
//      so the comparison is pure scheduling.
//
//   2. Zipf skew ablation: a population where advertiser i emits
//      1 + 63·(400·(i+1)/n)^(−s) bid rows per auction, s ∈ {0, 0.8, 1.2}
//      (rank rescaled so the relative skew is n-invariant). Under the
//      uniform contiguous partition the low-index shard does nearly all the
//      work; the ablation reports per-shard phase times and the
//      slowest-shard/mean gap before vs after one cost-model-driven
//      RebalanceShards(), plus a lockstep bitwise check against a twin
//      engine that keeps the uniform layout. The shard phase runs
//      *sequentially* (no pool), so the per-shard spans measure the work a
//      shard owns rather than scheduler interleaving — the right signal on
//      any core count, and the merge-barrier latency bound either way.
//
// Knobs (env): SSA_SHARD_N (advertisers, default 2000),
// SSA_SHARD_AUCTIONS (measured per config, default 200), SSA_SHARD_WARMUP
// (default 30), SSA_SEED, SSA_SHARD_QUICK=1 (CI smoke: tiny counts).
// Flags: --json[=path] appends a machine-readable report (to stdout or
// `path`) after the human-readable tables; it records the host's core count.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "auction/sharded_engine.h"
#include "util/timer.h"

namespace ssa {
namespace bench {
namespace {

/// Zipf-skewed bidding program: advertiser i re-emits the same
/// 1 + 63·(400·(i+1)/n)^(−s) rows (capped at 1024) every auction. The rank
/// is rescaled to a 400-advertiser grid so the *relative* skew — and hence
/// the shard imbalance the ablation measures — is population-invariant
/// instead of washing out as n grows. Stable tables make the compiled-bids
/// caches hit after the first auction, so the recurring per-advertiser
/// cost — bid emission in capture, fingerprint verification in the shard
/// phase — is proportional to the row count, which is exactly the skew the
/// cost model must learn and the rebalancer must flatten. Stateless, so
/// checkpoints and restores stay trivial.
class ZipfStrategy : public BiddingStrategy {
 public:
  ZipfStrategy(int index, int population, double s, int num_slots)
      : num_slots_(num_slots) {
    const double rank = (index + 1) * (400.0 / population);
    rows_ = 1 + std::min(1023, static_cast<int>(63.0 * std::pow(rank, -s)));
    values_.reserve(rows_);
    for (int r = 0; r < rows_; ++r) {
      values_.push_back(1.0 + ((index * 31 + r * 7) % 97) * 0.01);
    }
  }

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override {
    (void)query;
    (void)account;
    for (int r = 0; r < rows_; ++r) {
      bids->AddBid(Formula::Slot(r % num_slots_) && Formula::Click(),
                   values_[r]);
    }
  }

 private:
  int num_slots_;
  int rows_;
  std::vector<Money> values_;
};

std::vector<std::unique_ptr<BiddingStrategy>> ZipfStrategies(
    const Workload& workload, double s) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.reserve(workload.config.num_advertisers);
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(std::make_unique<ZipfStrategy>(
        i, workload.config.num_advertisers, s, workload.config.num_slots));
  }
  return strategies;
}

/// Average ms/auction over `measured` auctions after `warmup` unmeasured
/// ones, by wall clock.
double MeasureMsPerAuction(ShardedAuctionEngine& engine, int warmup,
                           int measured) {
  for (int t = 0; t < warmup; ++t) engine.RunAuction();
  WallTimer timer;
  for (int t = 0; t < measured; ++t) engine.RunAuction();
  return timer.ElapsedMillis() / measured;
}

struct ThroughputRow {
  int shards = 1;
  double ms_per_auction = 0;
};

struct SkewResult {
  double s = 0;
  int shards = 0;
  std::vector<double> phase_ms_before;  // per shard, uniform layout
  std::vector<double> phase_ms_after;   // per shard, rebalanced layout
  double gap_before = 0;  // slowest-shard / mean, uniform
  double gap_after = 0;   // slowest-shard / mean, rebalanced
  bool rebalanced = false;
  bool bitwise_identical = false;  // vs the uniform-layout twin
};

/// Collects each shard's accumulated work time — bid capture plus shard
/// phase, the two per-advertiser-proportional stages a shard owns — and
/// returns slowest-shard / mean.
double CollectPhases(const ShardedAuctionEngine& engine,
                     std::vector<double>* phase_ms) {
  phase_ms->clear();
  double total = 0, worst = 0;
  for (int shard = 0; shard < engine.num_shards(); ++shard) {
    const ShardedAuctionEngine::ShardStats stats = engine.shard_stats(shard);
    const double ms = (stats.capture_ns + stats.phase_ns) / 1e6;
    phase_ms->push_back(ms);
    total += ms;
    worst = std::max(worst, ms);
  }
  const double mean = total / engine.num_shards();
  return mean > 0 ? worst / mean : 1.0;
}

SkewResult RunSkewAblation(int n, int shards, double s, int measured,
                           uint64_t seed) {
  SkewResult result;
  result.s = s;
  result.shards = shards;

  // Both engines share workload, seed, and strategies; only the shard
  // layout will diverge. No pool: per-shard phase spans are pure work.
  Workload w1 = PaperWorkload(n, seed);
  Workload w2 = PaperWorkload(n, seed);
  auto strategies1 = ZipfStrategies(w1, s);
  auto strategies2 = ZipfStrategies(w2, s);
  ShardedEngineConfig config;
  config.engine.seed = seed + 1;
  config.num_shards = shards;
  ShardedAuctionEngine rebalanced(config, std::move(w1),
                                  std::move(strategies1));
  ShardedAuctionEngine uniform(config, std::move(w2), std::move(strategies2));

  result.bitwise_identical = true;
  auto lockstep = [&](int auctions) {
    for (int t = 0; t < auctions; ++t) {
      const AuctionOutcome& a = rebalanced.RunAuction();
      const AuctionOutcome& b = uniform.RunAuction();
      if (a.revenue_charged != b.revenue_charged ||
          a.wd.allocation.slot_to_advertiser !=
              b.wd.allocation.slot_to_advertiser) {
        result.bitwise_identical = false;
      }
    }
  };

  // Phase 1: uniform layout. The cost model learns the skew while the
  // per-shard phase clocks accumulate the imbalance.
  lockstep(measured);
  result.gap_before = CollectPhases(rebalanced, &result.phase_ms_before);

  // One cost-driven rebalance at the phase boundary (the serving executor's
  // epoch-boundary trigger, condensed), with the serving default hysteresis
  // so a near-flat layout (s=0) is left alone rather than chasing noise.
  // Repartition resets the work clocks, so phase 2 measures the new layout
  // alone.
  result.rebalanced =
      rebalanced.RebalanceShards(ShardRebalancerOptions{}.min_imbalance);

  // Phase 2: rebalanced layout vs the same uniform twin, still lockstep —
  // the determinism proof rides along with the measurement.
  lockstep(measured);
  result.gap_after = CollectPhases(rebalanced, &result.phase_ms_after);
  if (rebalanced.total_revenue() != uniform.total_revenue()) {
    result.bitwise_identical = false;
  }
  return result;
}

void PrintPhaseRow(const char* label, double s, double gap,
                   const std::vector<double>& phase_ms) {
  std::printf("%4.1f  %-10s %8.3f  [", s, label, gap);
  for (size_t i = 0; i < phase_ms.size(); ++i) {
    std::printf("%s%.1f", i == 0 ? "" : " ", phase_ms[i]);
  }
  std::printf("] ms\n");
}

std::string JsonDoubleArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

void WriteJson(std::FILE* f, int n, int auctions, unsigned cores,
               const std::vector<ThroughputRow>& throughput,
               const std::vector<SkewResult>& skew) {
  std::fprintf(f, "{\n  \"bench\": \"bench_sharded\",\n");
  std::fprintf(f, "  \"n\": %d,\n  \"auctions\": %d,\n  \"cores\": %u,\n",
               n, auctions, cores);
  std::fprintf(f, "  \"throughput\": [\n");
  for (size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputRow& row = throughput[i];
    std::fprintf(f, "    {\"shards\": %d, \"ms_per_auction\": %.4f}%s\n",
                 row.shards, row.ms_per_auction,
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"zipf\": [\n");
  for (size_t i = 0; i < skew.size(); ++i) {
    const SkewResult& r = skew[i];
    const double excess_before = r.gap_before - 1.0;
    const double excess_after = r.gap_after - 1.0;
    const double reduction =
        excess_after > 0 ? excess_before / excess_after : excess_before;
    std::fprintf(f, "    {\"s\": %.1f, \"shards\": %d,\n", r.s, r.shards);
    std::fprintf(f, "     \"phase_ms_before\": %s,\n",
                 JsonDoubleArray(r.phase_ms_before).c_str());
    std::fprintf(f, "     \"phase_ms_after\": %s,\n",
                 JsonDoubleArray(r.phase_ms_after).c_str());
    std::fprintf(f,
                 "     \"gap_before\": %.4f, \"gap_after\": %.4f, "
                 "\"excess_reduction\": %.4f,\n",
                 r.gap_before, r.gap_after, reduction);
    std::fprintf(f,
                 "     \"rebalanced\": %s, \"bitwise_identical\": %s}%s\n",
                 r.rebalanced ? "true" : "false",
                 r.bitwise_identical ? "true" : "false",
                 i + 1 < skew.size() ? "," : "");
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

  // --- Throughput: K shards on the ROI paper workload. The shard phase
  // runs sequentially (pool-free) so the numbers compare partition
  // overhead, not host parallelism — identical work, different layout.
  std::printf("## Throughput (paper workload, ROI strategies)\n");
  std::printf("%6s %14s\n", "shards", "ms/auction");
  std::vector<ThroughputRow> throughput;
  for (int shards : {1, 2, 4, 8}) {
    Workload w = PaperWorkload(n, seed);
    auto strategies = RoiStrategies(w);
    ShardedEngineConfig config;
    config.engine.seed = seed + 1;
    config.num_shards = shards;
    ShardedAuctionEngine engine(config, std::move(w), std::move(strategies));
    ThroughputRow row{shards, MeasureMsPerAuction(engine, warmup, auctions)};
    std::printf("%6d %14.3f\n", row.shards, row.ms_per_auction);
    throughput.push_back(row);
  }

  // --- Zipf skew ablation: cost-model-driven rebalancing vs the uniform
  // layout, with the bitwise twin check riding along.
  const int skew_shards = 4;
  std::printf("\n## Zipf skew ablation (K=%d shards, rows_i = 1 + "
              "63*(400(i+1)/n)^-s, sequential shard phase)\n",
              skew_shards);
  std::printf("   s  layout        gap  per-shard phase totals\n");
  std::vector<SkewResult> skew;
  for (double s : {0.0, 0.8, 1.2}) {
    const SkewResult r = RunSkewAblation(n, skew_shards, s, auctions, seed);
    PrintPhaseRow("uniform", r.s, r.gap_before, r.phase_ms_before);
    PrintPhaseRow(r.rebalanced ? "rebalanced" : "unchanged", r.s,
                  r.gap_after, r.phase_ms_after);
    const double excess_before = r.gap_before - 1.0;
    const double excess_after = r.gap_after - 1.0;
    std::printf("      -> slowest-shard excess %.3f -> %.3f (%.1fx "
                "reduction), bitwise-identical: %s\n",
                excess_before, excess_after,
                excess_after > 0 ? excess_before / excess_after
                                 : excess_before,
                r.bitwise_identical ? "yes" : "NO");
    skew.push_back(r);
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
    WriteJson(f, n, auctions, cores, throughput, skew);
    if (!json_path.empty()) std::fclose(f);
  }

  // The ablation doubles as a regression gate: rebalancing must never
  // break determinism.
  for (const SkewResult& r : skew) {
    if (!r.bitwise_identical) {
      std::fprintf(stderr,
                   "FAIL: rebalanced engine diverged from the uniform twin "
                   "at s=%.1f\n",
                   r.s);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main(int argc, char** argv) { return ssa::bench::Main(argc, argv); }
