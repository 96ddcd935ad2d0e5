// Reproduces Figure 13: average time per auction (ms) for RH versus RHTALU
// as the number of advertisers grows to 20000 — the payoff of Section IV's
// program-evaluation reduction (Threshold Algorithm + logical updates +
// triggers). RH re-runs every bidder's program and rebuilds the expected-
// revenue matrix each auction (linear in n); RHTALU touches only the
// per-keyword adjustment variables, fired triggers, clicked winners and the
// advertisers the TA probes.
//
// Also prints the RHTALU work counters (TA sorted accesses per auction,
// triggers fired, list moves) to substantiate the sublinearity claim.

#include <cstdio>

#include "bench_common.h"
#include "strategy/logical_roi.h"

namespace ssa {
namespace bench {
namespace {

int Main() {
  const int warmup = static_cast<int>(EnvInt("SSA_FIG13_WARMUP", 100));
  const int measured = static_cast<int>(EnvInt("SSA_FIG13_AUCTIONS", 200));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 1));

  std::printf(
      "# Figure 13: time per auction (ms) vs number of advertisers — RH vs "
      "RHTALU\n");
  std::printf("# 15 slots, 10 keywords, ROI bidders, GSP pricing; avg over "
              "%d auctions after %d warmup\n",
              measured, warmup);
  std::printf("%8s %12s %12s %12s %16s %12s\n", "n", "RH", "RHTALU",
              "RH/RHTALU", "TA probes/slot", "moves/auction");

  const int sweep[] = {2000, 4000, 6000, 8000, 10000,
                       12000, 14000, 16000, 18000, 20000};
  for (int n : sweep) {
    // Eager RH engine (one shard).
    Workload w_eager = PaperWorkload(n, seed);
    ShardedEngineConfig config;
    config.engine.seed = seed + 1;
    auto strategies = RoiStrategies(w_eager);
    ShardedAuctionEngine eager(config, std::move(w_eager),
                               std::move(strategies));
    const double rh_ms = AverageAuctionMs(eager, warmup, measured);

    // RHTALU engine, with work counters sampled over the measured window.
    LogicalRoiEngine logical(config.engine, PaperWorkload(n, seed));
    for (int t = 0; t < warmup; ++t) logical.RunAuction();
    const auto before = logical.stats();
    double talu_total = 0;
    for (int t = 0; t < measured; ++t) {
      talu_total += logical.RunAuction().ProcessingMs();
    }
    const double talu_ms = talu_total / measured;
    const auto after = logical.stats();
    const double probes_per_slot =
        static_cast<double>(after.ta_sorted_accesses -
                            before.ta_sorted_accesses) /
        (static_cast<double>(measured) * 15);
    const double moves_per_auction =
        static_cast<double>(after.list_moves - before.list_moves) / measured;

    std::printf("%8d %12.3f %12.3f %12.1f %16.1f %12.1f\n", n, rh_ms, talu_ms,
                rh_ms / talu_ms, probes_per_slot, moves_per_auction);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main() { return ssa::bench::Main(); }
