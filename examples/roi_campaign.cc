// ROI campaign: the full Section V pipeline, both shard paths.
//
// Runs the paper's workload (15 slots, 10 keywords, ROI-equalizing bidders,
// generalized second pricing) through ShardedAuctionEngine twice at one
// shard: once with every bidder behind a forwarding wrapper, so each auction
// runs every program and fills the whole revenue matrix (eager RH), and once
// with native RoiStrategy bidders, which the engine's planner plans with
// RHTALU (Threshold Algorithm + logical updates + triggers). The two are
// observably identical while RHTALU does a fraction of the work.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "auction/sharded_engine.h"
#include "strategy/roi_strategy.h"
#include "util/timer.h"

using namespace ssa;

namespace {

/// Forwards to an owned RoiStrategy. The engine's planner recognizes native
/// RoiStrategy bidders by type, so these bid identically but keep every
/// auction on the eager path.
class EagerRoiStrategy : public BiddingStrategy {
 public:
  explicit EagerRoiStrategy(const std::vector<Formula>& keyword_formulas)
      : inner_(keyword_formulas) {}
  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override {
    inner_.MakeBids(query, account, bids);
  }
  void SaveState(std::string* out) const override { inner_.SaveState(out); }
  Status RestoreState(std::string_view blob) override {
    return inner_.RestoreState(blob);
  }

 private:
  RoiStrategy inner_;
};

}  // namespace

int main() {
  WorkloadConfig wc;
  wc.num_advertisers = 2000;
  wc.seed = 7;
  ShardedEngineConfig config;
  config.engine.seed = 8;
  const int kAuctions = 2000;

  // --- Eager engine.
  Workload w_eager = MakePaperWorkload(wc);
  std::vector<std::unique_ptr<BiddingStrategy>> eager_bidders;
  for (int i = 0; i < wc.num_advertisers; ++i) {
    eager_bidders.push_back(
        std::make_unique<EagerRoiStrategy>(w_eager.keyword_formulas));
  }
  ShardedAuctionEngine eager(config, std::move(w_eager),
                             std::move(eager_bidders));
  // Queries come from the caller: both engines see the same Section V
  // stream, drawn from a generator seeded like the engine.
  QueryGenerator eager_queries(wc.num_keywords, config.engine.seed);
  WallTimer timer;
  for (int t = 0; t < kAuctions; ++t) {
    eager.RunAuctionOn(eager_queries.Next());
  }
  const double eager_s = timer.ElapsedSeconds();

  // --- RHTALU on an identical world.
  Workload w_logical = MakePaperWorkload(wc);
  std::vector<std::unique_ptr<BiddingStrategy>> roi_bidders;
  for (int i = 0; i < wc.num_advertisers; ++i) {
    roi_bidders.push_back(
        std::make_unique<RoiStrategy>(w_logical.keyword_formulas));
  }
  ShardedAuctionEngine logical(config, std::move(w_logical),
                               std::move(roi_bidders));
  QueryGenerator logical_queries(wc.num_keywords, config.engine.seed);
  timer.Reset();
  for (int t = 0; t < kAuctions; ++t) {
    logical.RunAuctionOn(logical_queries.Next());
  }
  const double logical_s = timer.ElapsedSeconds();

  std::printf("%d auctions, %d ROI bidders, 15 slots, 10 keywords\n",
              kAuctions, wc.num_advertisers);
  std::printf("  eager RH engine : %6.2f s  (revenue %.0f cents)\n", eager_s,
              eager.total_revenue());
  std::printf("  RHTALU engine   : %6.2f s  (revenue %.0f cents)\n",
              logical_s, logical.total_revenue());
  const bool identical = eager.total_revenue() == logical.total_revenue();
  std::printf("  identical trajectories: %s, speedup %.1fx\n",
              identical ? "yes" : "NO", eager_s / logical_s);

  const RoiPlannerStats stats = logical.planner_stats();
  std::printf("\nRHTALU work counters over the campaign:\n");
  std::printf("  TA sorted accesses : %lld (%.1f per slot-auction; n = %d)\n",
              static_cast<long long>(stats.probes),
              static_cast<double>(stats.probes) / (15.0 * kAuctions),
              wc.num_advertisers);
  std::printf("  time triggers fired: %lld\n",
              static_cast<long long>(stats.triggers_fired));
  std::printf("  list moves         : %lld (%.2f per auction)\n",
              static_cast<long long>(stats.list_moves),
              static_cast<double>(stats.list_moves) / kAuctions);
  std::printf("  list rebuilds      : %lld\n",
              static_cast<long long>(stats.rebuilds));
  std::printf("  logical plans      : %lld of %d auctions\n",
              static_cast<long long>(stats.logical_plans), kAuctions);
  std::printf("  ctr doublings      : %lld\n",
              static_cast<long long>(stats.ctr_extensions));

  // A peek at campaign economics: top spenders and their ROI.
  std::printf("\nTop spenders:\n");
  const auto& accounts = logical.accounts();
  std::vector<int> order(accounts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                    [&](int a, int b) {
                      return accounts[a].amount_spent > accounts[b].amount_spent;
                    });
  for (int rank = 0; rank < 5; ++rank) {
    const auto& a = accounts[order[rank]];
    Money gained = 0;
    for (int kw = 0; kw < wc.num_keywords; ++kw) gained += a.value_gained[kw];
    std::printf("  advertiser %5d: spent %8.1f, value gained %8.1f, "
                "target rate %.2f\n",
                order[rank], a.amount_spent, gained, a.target_spend_rate);
  }
  return identical ? 0 : 1;
}
