// Reproduces Figure 13: average time per auction (ms) for RH versus RHTALU
// as the number of advertisers grows to 20000 — the payoff of Section IV's
// program-evaluation reduction (Threshold Algorithm + logical updates +
// triggers). RH re-runs every bidder's program and rebuilds the expected-
// revenue matrix each auction (linear in n); RHTALU touches only the
// per-keyword adjustment variables, fired triggers, clicked winners and the
// advertisers the TA probes.
//
// Both columns run ShardedAuctionEngine at one shard. RH's bidders sit
// behind BruteForceStrategy, which keeps the engine on the brute-force
// shard path; RHTALU's are native RoiStrategy, which the engine's
// logical-update planner plans (auction/roi_planner.h).
//
// A second table repeats the comparison for Figure 5 bidding programs
// (ProgramStrategy) on perfbench expressive-programs' formulas — Click,
// Click & Slot1 or Purchase by keyword mod 3 — with purchase probability
// 0.3 given a click, so a Click score is a sum of two products.
//
// Also prints the RHTALU work counters (TA sorted accesses per slot, list
// moves per auction, ctr-prefix doublings) to substantiate the sublinearity
// claim, and exits 1 if the two columns' trajectories (revenue, accounts)
// differ or the planner side did not plan every auction logically.

#include <cstdio>

#include "bench_common.h"

namespace ssa {
namespace bench {
namespace {

/// One row: RH and RHTALU on the same world and seed. Prints the row and
/// returns false when the trajectories differ or RHTALU did not plan every
/// auction logically.
bool RunRow(const char* label, int n, const Workload& world, bool programs,
            int warmup, int measured, uint64_t seed) {
  const int slots = world.config.num_slots;
  ShardedEngineConfig config;
  config.engine.seed = seed + 1;
  auto population = [&](const Workload& w) {
    return programs ? Figure5Programs(w) : RoiStrategies(w);
  };

  // Eager RH (one shard, brute-force path).
  Workload w_eager = world;
  auto brute = BruteForce(population(w_eager));
  ShardedAuctionEngine eager(config, std::move(w_eager), std::move(brute));
  const double rh_ms =
      AverageAuctionMs(eager, config.engine.seed, warmup, measured);

  // RHTALU (one logical shard), with work counters sampled over the
  // measured window.
  Workload w_logical = world;
  auto planned = population(w_logical);
  ShardedAuctionEngine logical(config, std::move(w_logical),
                               std::move(planned));
  QueryGenerator queries(world.config.num_keywords, config.engine.seed);
  for (int t = 0; t < warmup; ++t) logical.RunAuctionOn(queries.Next());
  const RoiPlannerStats before = logical.planner_stats();
  double talu_total = 0;
  for (int t = 0; t < measured; ++t) {
    talu_total += logical.RunAuctionOn(queries.Next()).ProcessingMs();
  }
  const double talu_ms = talu_total / measured;
  const RoiPlannerStats after = logical.planner_stats();
  const double probes_per_slot =
      static_cast<double>(after.probes - before.probes) /
      (static_cast<double>(measured) * slots);
  const double moves_per_auction =
      static_cast<double>(after.list_moves - before.list_moves) / measured;
  const int64_t doublings = after.ctr_extensions - before.ctr_extensions;

  std::printf("%-9s %8d %12.3f %12.3f %12.1f %16.1f %14.1f %12lld\n", label,
              n, rh_ms, talu_ms, rh_ms / talu_ms, probes_per_slot,
              moves_per_auction, static_cast<long long>(doublings));
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
    std::fprintf(stderr, "%s n = %d: RHTALU diverged from RH\n", label, n);
    return false;
  }
  if (after.logical_plans != logical.auctions_run()) {
    std::fprintf(stderr, "%s n = %d: RHTALU planned %lld of %lld auctions\n",
                 label, n, static_cast<long long>(after.logical_plans),
                 static_cast<long long>(logical.auctions_run()));
    return false;
  }
  return true;
}

int Main() {
  const int warmup = static_cast<int>(EnvInt("SSA_FIG13_WARMUP", 100));
  const int measured = static_cast<int>(EnvInt("SSA_FIG13_AUCTIONS", 200));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 1));

  std::printf(
      "# Figure 13: time per auction (ms) vs number of advertisers — RH vs "
      "RHTALU\n");
  std::printf("# 15 slots, 10 keywords, GSP pricing; avg over %d auctions "
              "after %d warmup\n",
              measured, warmup);
  std::printf("# roi: native ROI bidders on Click; programs: Figure 5 "
              "programs on Click / Click&Slot1 / Purchase, purchase 0.3\n");
  std::printf("%-9s %8s %12s %12s %12s %16s %14s %12s\n", "bidders", "n",
              "RH", "RHTALU", "RH/RHTALU", "TA probes/slot", "moves/auction",
              "ctr doublings");

  const int sweep[] = {2000, 4000, 6000, 8000, 10000,
                       12000, 14000, 16000, 18000, 20000};
  for (int n : sweep) {
    if (!RunRow("roi", n, PaperWorkload(n, seed), /*programs=*/false, warmup,
                measured, seed)) {
      return 1;
    }
  }
  for (int n : {1000, 5000, 10000}) {
    WorkloadConfig wc;
    wc.num_advertisers = n;
    wc.seed = seed;
    wc.purchase_given_click = 0.3;
    Workload world = MakePaperWorkload(wc);
    UseExpressiveFormulas(&world);
    if (!RunRow("programs", n, world, /*programs=*/true, warmup, measured,
                seed)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main() { return ssa::bench::Main(); }
