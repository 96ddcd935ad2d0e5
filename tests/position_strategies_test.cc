#include <memory>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "strategy/position_strategies.h"
#include "strategy/roi_strategy.h"
#include "strategy/program_strategy.h"

namespace ssa {
namespace {

std::vector<std::unique_ptr<BiddingStrategy>> RoiStrategies(
    const Workload& workload, int from, int to) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = from; i < to; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

TEST(PositionTargetStrategyTest, ConvergesNearTargetSlot) {
  WorkloadConfig wc;
  wc.num_advertisers = 20;
  wc.num_slots = 5;
  wc.num_keywords = 3;
  wc.seed = 3;
  Workload workload = MakePaperWorkload(wc);

  auto strategies = RoiStrategies(workload, 1, wc.num_advertisers);
  auto target = std::make_unique<PositionTargetStrategy>(/*target_slot=*/2,
                                                         /*max_bid=*/200);
  PositionTargetStrategy* raw = target.get();
  strategies.insert(strategies.begin(), std::move(target));

  ShardedEngineConfig config;
  config.engine.seed = 4;
  ShardedAuctionEngine engine(config, std::move(workload),
                              std::move(strategies));
  QueryGenerator queries(engine.workload().config.num_keywords,
                         config.engine.seed);
  int hits = 0, wins = 0;
  for (int t = 0; t < 800; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    if (t < 300) continue;  // let the ladder settle
    const SlotIndex slot = out.wd.allocation.advertiser_to_slot[0];
    if (slot != kNoSlot) {
      ++wins;
      hits += (slot >= 1 && slot <= 3);  // within one of the target
    }
  }
  EXPECT_GT(wins, 100);
  EXPECT_GT(static_cast<double>(hits) / wins, 0.6)
      << "targeting failed: bid=" << raw->current_bid();
}

TEST(AboveCompetitorStrategyTest, StaysAboveRival) {
  WorkloadConfig wc;
  wc.num_advertisers = 15;
  wc.num_slots = 4;
  wc.num_keywords = 2;
  wc.seed = 9;
  Workload workload = MakePaperWorkload(wc);

  // Advertiser 0 tracks advertiser 1 (an ROI bidder).
  auto chaser = std::make_unique<AboveCompetitorStrategy>(0, 1, /*max_bid=*/300);
  AboveCompetitorStrategy* raw = chaser.get();
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.push_back(std::move(chaser));
  for (auto& s : RoiStrategies(workload, 1, wc.num_advertisers)) {
    strategies.push_back(std::move(s));
  }

  ShardedEngineConfig config;
  config.engine.seed = 10;
  ShardedAuctionEngine engine(config, std::move(workload),
                              std::move(strategies));
  QueryGenerator queries(engine.workload().config.num_keywords,
                         config.engine.seed);
  int rival_displayed = 0, above = 0;
  for (int t = 0; t < 800; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    raw->ObservePage(out);  // third-party page monitoring
    if (t < 300) continue;
    const SlotIndex mine = out.wd.allocation.advertiser_to_slot[0];
    const SlotIndex theirs = out.wd.allocation.advertiser_to_slot[1];
    if (theirs != kNoSlot) {
      ++rival_displayed;
      above += (mine != kNoSlot && mine < theirs);
    }
  }
  if (rival_displayed > 50) {
    EXPECT_GT(static_cast<double>(above) / rival_displayed, 0.5);
  }
}

TEST(BudgetedStrategyTest, StopsAtBudget) {
  WorkloadConfig wc;
  wc.num_advertisers = 10;
  wc.num_slots = 3;
  wc.num_keywords = 2;
  wc.seed = 21;
  Workload workload = MakePaperWorkload(wc);

  const Money kBudget = 50;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.push_back(std::make_unique<BudgetedStrategy>(
      std::make_unique<RoiStrategy>(workload.keyword_formulas), kBudget));
  for (auto& s : RoiStrategies(workload, 1, wc.num_advertisers)) {
    strategies.push_back(std::move(s));
  }
  ShardedEngineConfig config;
  config.engine.seed = 22;
  ShardedAuctionEngine engine(config, std::move(workload),
                              std::move(strategies));
  QueryGenerator queries(engine.workload().config.num_keywords,
                         config.engine.seed);
  for (int t = 0; t < 1500; ++t) engine.RunAuctionOn(queries.Next());
  const Money spent = engine.accounts()[0].amount_spent;
  // One overshooting click is possible (budget checked pre-auction), but the
  // guard must have kicked in near the budget, far below unconstrained spend.
  Money max_click_price = 0;
  for (Money v : engine.accounts()[0].value_per_click) {
    max_click_price = std::max(max_click_price, v);
  }
  EXPECT_LE(spent, kBudget + max_click_price);
}

// Section II-B notification triggers: a program reacts to clicks by
// recording them in a private table.
TEST(NotificationTriggerTest, ClickTriggerFires) {
  constexpr const char kProgram[] = R"sql(
    CREATE TRIGGER bid AFTER INSERT ON Query
    {
      UPDATE Bids SET value = 10;
    }
    CREATE TRIGGER onslot AFTER INSERT ON Slot
    {
      UPDATE Keywords SET relevance = wonSlot;  -- reuse a column as a probe
    }
    CREATE TRIGGER onclick AFTER INSERT ON Click
    {
      UPDATE Keywords SET bid = bid + 1;        -- count clicks in `bid`
    }
  )sql";
  auto strategy = ProgramStrategy::Create(
      kProgram, {{"kw0", Formula::Click()}});
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();

  AdvertiserAccount account;
  account.value_per_click = {10};
  account.max_bid = {10};
  account.value_gained = {0};
  account.spent_per_keyword = {0};
  account.target_spend_rate = 1;

  Query query;
  query.keyword = 0;
  query.time = 1;
  query.relevance = {1.0};

  BidsTable bids;
  (*strategy)->MakeBids(query, account, &bids);
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_DOUBLE_EQ(bids.rows()[0].value, 10.0);

  EXPECT_DOUBLE_EQ((*strategy)->TentativeBid(0), 0.0);
  (*strategy)->OnOutcome(query, account, /*slot=*/2, /*clicked=*/true,
                         /*purchased=*/false);
  EXPECT_DOUBLE_EQ((*strategy)->TentativeBid(0), 1.0);  // click counted
  (*strategy)->OnOutcome(query, account, /*slot=*/0, /*clicked=*/false,
                         /*purchased=*/false);
  EXPECT_DOUBLE_EQ((*strategy)->TentativeBid(0), 1.0);  // no click, no count
}

}  // namespace
}  // namespace ssa
