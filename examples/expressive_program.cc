// Expressive bidding programs: the paper's Figure 4/5/6 worked example.
//
// An advertiser sells boots and shoes. It runs the Equalize-ROI bidding
// program (Figure 5) written in the Section II-B language, bidding on two
// features: plain clicks for "shoe", and clicks *in the top slot* for
// "boot" (it wants to be perceived as the leading boot supplier). This
// example parses the program, runs it inside a live auction, and prints the
// Keywords/Bids tables as they evolve — the Figure 4 -> Figure 6 pipeline.

#include <cstdio>
#include <memory>

#include "auction/sharded_engine.h"
#include "durability/checkpoint.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"

using namespace ssa;

// Figure 5, with the spend test in multiplied form and the paper's line-11
// typo ('<' in the overspending branch) corrected to '>' — see DESIGN.md.
constexpr const char kEqualizeRoi[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time
  THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;

  UPDATE Bids
  SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7
      AND K.formula = Bids.formula );
}
)sql";

int main() {
  WorkloadConfig wc;
  wc.num_advertisers = 20;
  wc.num_slots = 4;
  wc.num_keywords = 2;  // "boot" and "shoe"
  wc.seed = 12;
  Workload workload = MakePaperWorkload(wc);

  // The Figure 4 keyword table shape: boot bids on Click & Slot1, shoe on
  // Click.
  std::vector<ProgramStrategy::KeywordSpec> specs = {
      {"boot", Formula::Click() && Formula::Slot(0)},
      {"shoe", Formula::Click()},
  };

  // Advertiser 0 runs the Figure 5 program; the rest run the native ROI
  // strategy on plain click formulas.
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  auto program = ProgramStrategy::Create(kEqualizeRoi, specs);
  if (!program.ok()) {
    std::fprintf(stderr, "program error: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  ProgramStrategy* advertiser0 = program->get();
  strategies.push_back(*std::move(program));
  workload.keyword_formulas = {specs[0].formula, specs[1].formula};
  for (int i = 1; i < wc.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }

  ShardedEngineConfig config;
  config.engine.seed = 13;
  ShardedAuctionEngine engine(config, std::move(workload),
                              std::move(strategies));

  std::printf("Advertiser 0 runs the Figure 5 Equalize-ROI program over "
              "keywords {boot: Click & Slot1, shoe: Click}.\n\n");
  std::printf("%8s %10s %12s %12s %10s %8s %8s\n", "auction", "keyword",
              "bid(boot)", "bid(shoe)", "spent", "won", "clicked");
  QueryGenerator queries(wc.num_keywords, config.engine.seed);
  for (int t = 1; t <= 400; ++t) {
    const AuctionOutcome& out = engine.RunAuctionOn(queries.Next());
    if (t % 40 != 0) continue;
    // The engine's RHTALU planner runs the program's bid step logically;
    // capturing a checkpoint writes the bids back into the tables.
    EngineCheckpoint synced;
    engine.CaptureCheckpoint(&synced);
    bool won = false, clicked = false;
    for (const UserEvent& e : out.events) {
      if (e.advertiser == 0) {
        won = true;
        clicked = e.clicked;
      }
    }
    std::printf("%8d %10s %12.0f %12.0f %10.1f %8s %8s\n", t,
                out.query.keyword == 0 ? "boot" : "shoe",
                advertiser0->TentativeBid(0), advertiser0->TentativeBid(1),
                engine.accounts()[0].amount_spent, won ? "yes" : "-",
                clicked ? "yes" : "-");
  }

  std::printf("\nFinal private tables of advertiser 0 (Figure 4 / Figure 6 "
              "shape):\n");
  std::printf("  Keywords: boot{formula='%s', bid=%.0f, roi=%.3f}  "
              "shoe{formula='%s', bid=%.0f, roi=%.3f}\n",
              specs[0].formula.ToString().c_str(), advertiser0->TentativeBid(0),
              engine.accounts()[0].Roi(0),
              specs[1].formula.ToString().c_str(), advertiser0->TentativeBid(1),
              engine.accounts()[0].Roi(1));
  return 0;
}
