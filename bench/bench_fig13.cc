// Reproduces Figure 13: average time per auction (ms) for RH versus RHTALU
// as the number of advertisers grows to 20000 — the payoff of Section IV's
// program-evaluation reduction (Threshold Algorithm + logical updates +
// triggers). RH re-runs every bidder's program and rebuilds the expected-
// revenue matrix each auction (linear in n); RHTALU touches only the
// per-keyword adjustment variables, fired triggers, clicked winners and the
// advertisers the TA probes.
//
// Both columns run ShardedAuctionEngine at one shard. RH's bidders sit
// behind BruteForceRoiStrategy, which keeps the engine on the brute-force
// shard path; RHTALU's are native RoiStrategy, which the engine's
// logical-update planner plans (auction/roi_planner.h).
//
// Also prints the RHTALU work counters (TA sorted accesses per slot, list
// moves per auction, ctr-prefix doublings) to substantiate the sublinearity
// claim, and exits 1 if the two columns' trajectories (revenue, accounts)
// differ.

#include <cstdio>

#include "bench_common.h"

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
  std::printf("%8s %12s %12s %12s %16s %14s %12s\n", "n", "RH", "RHTALU",
              "RH/RHTALU", "TA probes/slot", "moves/auction", "ctr doublings");

  const int sweep[] = {2000, 4000, 6000, 8000, 10000,
                       12000, 14000, 16000, 18000, 20000};
  for (int n : sweep) {
    // Eager RH (one shard, brute-force path).
    Workload w_eager = PaperWorkload(n, seed);
    ShardedEngineConfig config;
    config.engine.seed = seed + 1;
    auto strategies = BruteForceRoiStrategies(w_eager);
    ShardedAuctionEngine eager(config, std::move(w_eager),
                               std::move(strategies));
    const double rh_ms = AverageAuctionMs(eager, warmup, measured);

    // RHTALU (one logical shard), with work counters sampled over the
    // measured window.
    Workload w_logical = PaperWorkload(n, seed);
    auto roi = RoiStrategies(w_logical);
    ShardedAuctionEngine logical(config, std::move(w_logical),
                                 std::move(roi));
    for (int t = 0; t < warmup; ++t) logical.RunAuction();
    const RoiPlannerStats before = logical.planner_stats();
    double talu_total = 0;
    for (int t = 0; t < measured; ++t) {
      talu_total += logical.RunAuction().ProcessingMs();
    }
    const double talu_ms = talu_total / measured;
    const RoiPlannerStats after = logical.planner_stats();
    const double probes_per_slot =
        static_cast<double>(after.probes - before.probes) /
        (static_cast<double>(measured) * 15);
    const double moves_per_auction =
        static_cast<double>(after.list_moves - before.list_moves) / measured;
    const int64_t doublings = after.ctr_extensions - before.ctr_extensions;

    std::printf("%8d %12.3f %12.3f %12.1f %16.1f %14.1f %12lld\n", n, rh_ms,
                talu_ms, rh_ms / talu_ms, probes_per_slot, moves_per_auction,
                static_cast<long long>(doublings));
    std::fflush(stdout);

    // The two columns time one auction trajectory, so a zero exit is also a
    // bitwise check of the planner against brute force.
    bool same = eager.total_revenue() == logical.total_revenue();
    for (int i = 0; i < n && same; ++i) {
      same = eager.accounts()[i].amount_spent ==
                 logical.accounts()[i].amount_spent &&
             eager.accounts()[i].value_gained ==
                 logical.accounts()[i].value_gained;
    }
    if (!same) {
      std::fprintf(stderr, "n = %d: RHTALU diverged from RH\n", n);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main() { return ssa::bench::Main(); }
