#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "reference_engine.h"
#include "strategy/roi_strategy.h"

namespace ssa {
namespace {

std::vector<std::unique_ptr<BiddingStrategy>> RoiStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

WorkloadConfig SmallConfig(uint64_t seed = 1) {
  WorkloadConfig config;
  config.num_advertisers = 40;
  config.num_slots = 5;
  config.num_keywords = 4;
  config.seed = seed;
  return config;
}

TEST(WorkloadTest, PaperDistributions) {
  WorkloadConfig config;
  config.num_advertisers = 200;
  config.seed = 3;
  Workload w = MakePaperWorkload(config);
  ASSERT_EQ(w.accounts.size(), 200u);
  for (const AdvertiserAccount& a : w.accounts) {
    Money max_value = 0;
    for (int kw = 0; kw < config.num_keywords; ++kw) {
      EXPECT_GE(a.value_per_click[kw], 0);
      EXPECT_LE(a.value_per_click[kw], 50);
      EXPECT_EQ(a.value_per_click[kw], a.max_bid[kw]);
      max_value = std::max(max_value, a.value_per_click[kw]);
    }
    EXPECT_GT(max_value, 0) << "every bidder has a non-zero click value";
    EXPECT_GE(a.target_spend_rate, 1.0);
    EXPECT_LE(a.target_spend_rate, static_cast<double>(max_value));
  }
}

TEST(ReferenceEngineTest, RunsAndMaintainsInvariants) {
  Workload workload = MakePaperWorkload(SmallConfig());
  EngineConfig config;
  config.seed = 7;
  ReferenceEngine engine(config, workload, RoiStrategies(workload));
  QueryGenerator queries(workload.config.num_keywords, config.seed);

  Money revenue = 0;
  for (int t = 0; t < 200; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    // Winners occupy distinct slots, each advertiser at most once.
    std::set<AdvertiserId> seen;
    for (const UserEvent& e : out.events) {
      EXPECT_TRUE(seen.insert(e.advertiser).second);
      EXPECT_GE(e.slot, 0);
      EXPECT_LT(e.slot, 5);
      EXPECT_GE(e.charged, 0.0);
      if (!e.clicked) {
        EXPECT_DOUBLE_EQ(e.charged, 0.0);
      }
    }
    EXPECT_GE(out.wd.expected_revenue, -1e-9);
    revenue += out.revenue_charged;
  }
  EXPECT_DOUBLE_EQ(engine.total_revenue(), revenue);
  EXPECT_EQ(engine.auctions_run(), 200);
  EXPECT_GT(revenue, 0.0) << "200 auctions should produce some clicks";

  // Accounting: per-keyword spend sums to the total spend.
  for (const AdvertiserAccount& a : engine.accounts()) {
    Money per_kw = 0;
    for (Money s : a.spent_per_keyword) per_kw += s;
    EXPECT_NEAR(per_kw, a.amount_spent, 1e-9);
  }
}

TEST(ReferenceEngineTest, DeterministicGivenSeeds) {
  Workload w1 = MakePaperWorkload(SmallConfig(11));
  Workload w2 = MakePaperWorkload(SmallConfig(11));
  EngineConfig config;
  config.seed = 13;
  ReferenceEngine e1(config, w1, RoiStrategies(w1));
  ReferenceEngine e2(config, w2, RoiStrategies(w2));
  QueryGenerator q1(w1.config.num_keywords, config.seed);
  QueryGenerator q2(w2.config.num_keywords, config.seed);
  for (int t = 0; t < 100; ++t) {
    const AuctionOutcome& o1 = e1.RunAuctionOn(q1.Next());
    const AuctionOutcome& o2 = e2.RunAuctionOn(q2.Next());
    EXPECT_EQ(o1.query.keyword, o2.query.keyword);
    ASSERT_EQ(o1.events.size(), o2.events.size());
    for (size_t i = 0; i < o1.events.size(); ++i) {
      EXPECT_EQ(o1.events[i].advertiser, o2.events[i].advertiser);
      EXPECT_EQ(o1.events[i].clicked, o2.events[i].clicked);
      EXPECT_DOUBLE_EQ(o1.events[i].charged, o2.events[i].charged);
    }
  }
}

TEST(ReferenceEngineTest, DifferentSeedsDiverge) {
  Workload w1 = MakePaperWorkload(SmallConfig(11));
  Workload w2 = MakePaperWorkload(SmallConfig(12));
  EngineConfig config;
  ReferenceEngine e1(config, w1, RoiStrategies(w1));
  ReferenceEngine e2(config, w2, RoiStrategies(w2));
  QueryGenerator queries(w1.config.num_keywords, config.seed);
  int diffs = 0;
  for (int t = 0; t < 50; ++t) {
    const Query query = queries.Next();
    const AuctionOutcome o1 = e1.RunAuctionOn(query);
    const AuctionOutcome o2 = e2.RunAuctionOn(query);
    diffs += (o1.revenue_charged != o2.revenue_charged);
  }
  EXPECT_GT(diffs, 0);
}

TEST(ReferenceEngineTest, WdMethodsProduceSameRevenueTrajectory) {
  // LP, H and RH are interchangeable winner-determination subroutines: the
  // whole auction trajectory (winners, clicks, charges) must match.
  std::vector<EngineConfig> configs(3);
  configs[0].wd_method = WdMethod::kLp;
  configs[1].wd_method = WdMethod::kHungarian;
  configs[2].wd_method = WdMethod::kReducedHungarian;

  WorkloadConfig wc = SmallConfig(21);
  wc.num_advertisers = 15;  // keep the LP small
  wc.num_slots = 4;

  std::vector<std::unique_ptr<ReferenceEngine>> engines;
  for (const EngineConfig& config : configs) {
    Workload w = MakePaperWorkload(wc);
    auto strategies = RoiStrategies(w);
    engines.push_back(std::make_unique<ReferenceEngine>(config, std::move(w),
                                                        std::move(strategies)));
  }
  QueryGenerator queries(wc.num_keywords, configs[0].seed);
  for (int t = 0; t < 150; ++t) {
    const Query query = queries.Next();
    const AuctionOutcome& lp = engines[0]->RunAuctionOn(query);
    const AuctionOutcome& h = engines[1]->RunAuctionOn(query);
    const AuctionOutcome& rh = engines[2]->RunAuctionOn(query);
    EXPECT_NEAR(lp.wd.expected_revenue, rh.wd.expected_revenue, 1e-7);
    EXPECT_NEAR(h.wd.expected_revenue, rh.wd.expected_revenue, 1e-7);
    // Identical optima can differ only on ties; the charged revenue stream
    // must stay identical for the trajectories to remain comparable.
    EXPECT_NEAR(lp.revenue_charged, rh.revenue_charged, 1e-7);
    EXPECT_NEAR(h.revenue_charged, rh.revenue_charged, 1e-7);
  }
}

TEST(ReferenceEngineTest, PurchasePathEndToEnd) {
  // MakePaperWorkload with purchase_given_click > 0 must drive the full
  // purchase pipeline through the engine: purchases happen, only on clicked
  // slots, at roughly the configured conditional rate, and the second RNG
  // draw per click stays deterministic across equal seeds.
  WorkloadConfig wc = SmallConfig(51);
  wc.purchase_given_click = 0.5;
  Workload w1 = MakePaperWorkload(wc);
  Workload w2 = MakePaperWorkload(wc);
  EngineConfig config;
  config.seed = 53;
  ReferenceEngine engine(config, w1, RoiStrategies(w1));
  ReferenceEngine twin(config, w2, RoiStrategies(w2));
  QueryGenerator queries(w1.config.num_keywords, config.seed);
  QueryGenerator twin_queries(w2.config.num_keywords, config.seed);

  int64_t clicks = 0, purchases = 0;
  for (int t = 0; t < 300; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    const AuctionOutcome& out2 = twin.RunAuctionOn(twin_queries.Next());
    ASSERT_EQ(out.events.size(), out2.events.size());
    for (size_t e = 0; e < out.events.size(); ++e) {
      const UserEvent& event = out.events[e];
      if (event.purchased) {
        EXPECT_TRUE(event.clicked)
            << "purchases require the ad's link (a click)";
      }
      clicks += event.clicked;
      purchases += event.purchased;
      EXPECT_EQ(event.purchased, out2.events[e].purchased);
    }
  }
  EXPECT_GT(clicks, 0);
  EXPECT_GT(purchases, 0) << "ppc=0.5 over 300 auctions must convert";
  EXPECT_LT(purchases, clicks);
  // Binomial(clicks, 0.5): allow a generous ±5 sigma band.
  const double expected = 0.5 * static_cast<double>(clicks);
  const double sigma = std::sqrt(0.25 * static_cast<double>(clicks));
  EXPECT_NEAR(static_cast<double>(purchases), expected, 5.0 * sigma + 1.0);
}

TEST(ReferenceEngineTest, ZeroPurchaseRateNeverPurchases) {
  // The paper default (purchase_given_click = 0) must not even draw from
  // the RNG for purchases — asserted indirectly: no event ever purchases.
  Workload w = MakePaperWorkload(SmallConfig(55));
  EngineConfig config;
  config.seed = 57;
  ReferenceEngine engine(config, w, RoiStrategies(w));
  QueryGenerator queries(w.config.num_keywords, config.seed);
  for (int t = 0; t < 100; ++t) {
    for (const UserEvent& e : engine.RunAuctionOn(queries.Next()).events) {
      EXPECT_FALSE(e.purchased);
    }
  }
}

TEST(ReferenceEngineTest, VcgPricingRuns) {
  WorkloadConfig wc = SmallConfig(31);
  Workload w = MakePaperWorkload(wc);
  EngineConfig config;
  config.pricing = PricingRule::kVcg;
  ReferenceEngine engine(config, w, RoiStrategies(w));
  QueryGenerator queries(w.config.num_keywords, config.seed);
  for (int t = 0; t < 50; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    for (const UserEvent& e : out.events) EXPECT_GE(e.charged, -1e-9);
  }
}

}  // namespace
}  // namespace ssa
