#include <memory>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "core/heavyweight.h"
#include "core/winner_determination.h"
#include "strategy/roi_strategy.h"

namespace ssa {
namespace {

/// A static multi-feature strategy: fixed Bids table every auction (the
/// Section I motivating bidders — brand-awareness and leader-positioning).
class FixedBidsStrategy : public BiddingStrategy {
 public:
  explicit FixedBidsStrategy(BidsTable bids) : bids_(std::move(bids)) {}
  void MakeBids(const Query&, const AdvertiserAccount&,
                BidsTable* bids) override {
    *bids = bids_;
  }

 private:
  BidsTable bids_;
};

// End-to-end multi-feature auction: purchase bids, slot-position bids and
// "top or nothing" bids all compete; the engine's RH choice must equal the
// brute-force optimum every auction.
TEST(IntegrationTest, MultiFeatureAuctionMatchesBruteForce) {
  const int n = 6, k = 3, kws = 2;
  WorkloadConfig wc;
  wc.num_advertisers = n;
  wc.num_slots = k;
  wc.num_keywords = kws;
  wc.purchase_given_click = 0.3;
  wc.seed = 41;
  Workload workload = MakePaperWorkload(wc);

  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  {
    BidsTable b0;  // plain click bidder
    b0.AddBid(Formula::Click(), 30);
    strategies.push_back(std::make_unique<FixedBidsStrategy>(b0));

    BidsTable b1;  // purchase-focused
    b1.AddBid(Formula::Purchase(), 200);
    strategies.push_back(std::make_unique<FixedBidsStrategy>(b1));

    BidsTable b2;  // brand: top or bottom, not the middle
    b2.AddBid(Formula::Slot(0) || Formula::Slot(2), 10);
    strategies.push_back(std::make_unique<FixedBidsStrategy>(b2));

    BidsTable b3;  // leader: top slot or not displayed at all
    b3.AddBid(Formula::Slot(0) || !Formula::AnySlot({0, 1, 2}), 8);
    strategies.push_back(std::make_unique<FixedBidsStrategy>(b3));

    BidsTable b4;  // click in a premium position
    b4.AddBid(Formula::Click() && (Formula::Slot(0) || Formula::Slot(1)), 25);
    strategies.push_back(std::make_unique<FixedBidsStrategy>(b4));

    BidsTable b5;  // combined purchase + position
    b5.AddBid(Formula::Purchase(), 100);
    b5.AddBid(Formula::Slot(1), 5);
    strategies.push_back(std::make_unique<FixedBidsStrategy>(b5));
  }

  ShardedEngineConfig config;
  config.engine.seed = 42;
  ShardedAuctionEngine engine(config, workload, std::move(strategies));
  QueryGenerator queries(workload.config.num_keywords, config.engine.seed);
  for (int t = 0; t < 100; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    // Recompute the optimum exhaustively from the same revenue matrix.
    std::vector<BidsTable> bids(n);
    bids[0].AddBid(Formula::Click(), 30);
    bids[1].AddBid(Formula::Purchase(), 200);
    bids[2].AddBid(Formula::Slot(0) || Formula::Slot(2), 10);
    bids[3].AddBid(Formula::Slot(0) || !Formula::AnySlot({0, 1, 2}), 8);
    bids[4].AddBid(Formula::Click() && (Formula::Slot(0) || Formula::Slot(1)),
                   25);
    bids[5].AddBid(Formula::Purchase(), 100);
    bids[5].AddBid(Formula::Slot(1), 5);
    const RevenueMatrix m = BuildRevenueMatrix(bids, *workload.click_model);
    const WdResult oracle = DetermineWinners(m, WdMethod::kBruteForce);
    EXPECT_NEAR(out.wd.expected_revenue, oracle.expected_revenue, 1e-9)
        << "auction " << t;
  }
}

// A campaign mixing ROI-dynamic bidders with static multi-feature bidders:
// smoke test for long-horizon stability and accounting invariants.
TEST(IntegrationTest, MixedStrategyCampaign) {
  WorkloadConfig wc;
  wc.num_advertisers = 30;
  wc.num_slots = 6;
  wc.num_keywords = 5;
  wc.seed = 51;
  Workload workload = MakePaperWorkload(wc);

  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < wc.num_advertisers; ++i) {
    if (i % 3 == 0) {
      BidsTable b;
      b.AddBid(Formula::Slot(0) || !Formula::AnySlot({0, 1, 2, 3, 4, 5}),
               static_cast<Money>(5 + i % 7));
      strategies.push_back(std::make_unique<FixedBidsStrategy>(b));
    } else {
      strategies.push_back(
          std::make_unique<RoiStrategy>(workload.keyword_formulas));
    }
  }
  ShardedEngineConfig config;
  config.engine.seed = 52;
  ShardedAuctionEngine engine(config, workload, std::move(strategies));
  QueryGenerator queries(workload.config.num_keywords, config.engine.seed);
  Money last_spent_total = 0;
  for (int t = 0; t < 500; ++t) {
    engine.RunAuctionOn(queries.Next());
    Money spent_total = 0;
    for (const AdvertiserAccount& a : engine.accounts()) {
      spent_total += a.amount_spent;
    }
    EXPECT_GE(spent_total, last_spent_total);  // spend is monotone
    last_spent_total = spent_total;
  }
  EXPECT_NEAR(last_spent_total, engine.total_revenue(), 1e-6);
}

// Heavyweight end-to-end: the Section III-F solver on a workload-sized
// instance stays consistent with its own mask semantics and dominates the
// mask-0 (heavyweights-banned) solution.
TEST(IntegrationTest, HeavyweightSolverDominatesPlainWhenShadowsMatter) {
  Rng rng(61);
  const int n = 10, k = 3;
  auto base = std::make_shared<MatrixClickModel>(
      MakeSlotIntervalClickModel(n, k, rng));
  std::vector<bool> is_heavy(n, false);
  for (int i = 0; i < 3; ++i) is_heavy[i] = true;
  ShadowHeavyClickModel model(base, is_heavy, 0.6, 0.2);

  std::vector<BidsTable> bids(n);
  for (int i = 0; i < n; ++i) {
    bids[i].AddBid(Formula::Click(), static_cast<Money>(rng.UniformInt(5, 50)));
  }
  const HeavyWdResult best = DetermineWinnersHeavy(bids, model, is_heavy);

  // Restricting to mask 0 (no heavyweight may win) is one feasible choice;
  // the unrestricted optimum can only be better or equal.
  std::vector<BidsTable> light_bids;
  std::vector<AdvertiserId> light_ids;
  for (int i = 0; i < n; ++i) {
    if (!is_heavy[i]) {
      light_bids.push_back(bids[i]);
      light_ids.push_back(i);
    }
  }
  RevenueMatrix m(static_cast<int>(light_bids.size()), k);
  for (size_t a = 0; a < light_bids.size(); ++a) {
    for (int j = 0; j < k; ++j) {
      m.Set(static_cast<int>(a), j,
            ExpectedPaymentHeavy(light_bids[a], model, light_ids[a], j, 0));
    }
  }
  const WdResult mask0 = DetermineWinners(m, WdMethod::kHungarian);
  EXPECT_GE(best.expected_revenue, mask0.expected_revenue - 1e-9);
}

}  // namespace
}  // namespace ssa
