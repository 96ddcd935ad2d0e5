// Reproduces Figure 12: average winner-determination time per auction (ms,
// log scale in the paper) for the four methods LP, H, RH, RHTALU as the
// number of advertisers grows, on the Section V workload (15 slots, 10
// keywords, ROI-heuristic bidders, generalized second pricing).
//
// The LP method uses the from-scratch dense-tableau simplex (the GLPK
// substitute), which is slower than GLPK's sparse revised simplex; it runs
// over the full sweep by default (cap adjustable via SSA_LP_MAX_N) with
// fewer measured auctions per point. The ordering LP >> H >> RH > RHTALU —
// the figure's point — holds throughout.
//
// LP, H and RH run every bidder's program each auction (RH's bidders sit
// behind BruteForceStrategy, which keeps the engine on the brute-force
// shard path); RHTALU is the same engine on native RoiStrategy bidders,
// which its logical-update planner plans.
//
// Output: one row per population size, one column per method, plus the
// speedup columns EXPERIMENTS.md quotes.

#include <cstdio>

#include "bench_common.h"

namespace ssa {
namespace bench {
namespace {

/// `logical` = native RoiStrategy bidders (RHTALU under RH); otherwise the
/// bidders are wrapped and every auction runs them all.
double Measure(int n, WdMethod method, bool logical, int warmup,
               int measured, uint64_t seed) {
  Workload workload = PaperWorkload(n, seed);
  ShardedEngineConfig config;
  config.engine.wd_method = method;
  config.engine.seed = seed + 1;
  auto strategies = logical ? RoiStrategies(workload)
                            : BruteForceRoiStrategies(workload);
  ShardedAuctionEngine engine(config, std::move(workload),
                              std::move(strategies));
  return AverageAuctionMs(engine, config.engine.seed, warmup, measured);
}

int Main() {
  const int64_t lp_max_n = EnvInt("SSA_LP_MAX_N", 5000);
  const int warmup = static_cast<int>(EnvInt("SSA_FIG12_WARMUP", 50));
  const int measured = static_cast<int>(EnvInt("SSA_FIG12_AUCTIONS", 100));
  const int lp_measured = static_cast<int>(EnvInt("SSA_FIG12_LP_AUCTIONS", 3));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 1));

  std::printf(
      "# Figure 12: winner-determination time per auction (ms) vs number of "
      "advertisers\n");
  std::printf(
      "# 15 slots, 10 keywords, ROI bidders, GSP pricing; avg over %d "
      "auctions (LP: %d)\n",
      measured, lp_measured);
  std::printf("# LP = assignment LP via dense simplex (GLPK substitute, "
              "capped at n <= %lld)\n",
              static_cast<long long>(lp_max_n));
  std::printf("%8s %12s %12s %12s %12s %10s %10s\n", "n", "LP", "H", "RH",
              "RHTALU", "H/RH", "RH/RHTALU");

  const int sweep[] = {100, 250, 500, 1000, 1500, 2000,
                       2500, 3000, 3500, 4000, 4500, 5000};
  for (int n : sweep) {
    double lp_ms = -1;
    if (n <= lp_max_n) {
      lp_ms = Measure(n, WdMethod::kLp, false, /*warmup=*/5, lp_measured,
                      seed);
    }
    const double h_ms =
        Measure(n, WdMethod::kHungarian, false, warmup, measured, seed);
    const double rh_ms = Measure(n, WdMethod::kReducedHungarian, false,
                                 warmup, measured, seed);
    const double talu_ms = Measure(n, WdMethod::kReducedHungarian, true,
                                   warmup, measured, seed);

    char lp_buf[32];
    if (lp_ms >= 0) {
      std::snprintf(lp_buf, sizeof(lp_buf), "%12.3f", lp_ms);
    } else {
      std::snprintf(lp_buf, sizeof(lp_buf), "%12s", "-");
    }
    std::printf("%8d %s %12.3f %12.3f %12.3f %10.1f %10.1f\n", n, lp_buf,
                h_ms, rh_ms, talu_ms, h_ms / rh_ms, rh_ms / talu_ms);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main() { return ssa::bench::Main(); }
