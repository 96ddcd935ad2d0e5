#ifndef SSA_BENCH_BENCH_COMMON_H_
#define SSA_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "auction/sharded_engine.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"

namespace ssa {
namespace bench {

/// Environment-variable override with a default (benchmark knobs).
inline int64_t EnvInt(const char* name, int64_t default_value) {
  const char* v = std::getenv(name);
  return v == nullptr ? default_value : std::atoll(v);
}

/// The Section V population: every advertiser runs the ROI heuristic (on
/// reduced-Hungarian engines the engine's RHTALU planner plans them).
inline std::vector<std::unique_ptr<BiddingStrategy>> RoiStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.reserve(workload.config.num_advertisers);
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

/// Forwards every call to an owned strategy but offers no RoiBidder view,
/// so a population of these bids identically while the engine plans every
/// auction by brute force (capture, compile, matrix fill): the RH baseline
/// of Figures 12 and 13.
class BruteForceStrategy : public BiddingStrategy {
 public:
  explicit BruteForceStrategy(std::unique_ptr<BiddingStrategy> inner)
      : inner_(std::move(inner)) {}
  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override {
    inner_->MakeBids(query, account, bids);
  }
  void PeekBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) const override {
    inner_->PeekBids(query, account, bids);
  }
  void OnOutcome(const Query& query, const AdvertiserAccount& account,
                 SlotIndex slot, bool clicked, bool purchased) override {
    inner_->OnOutcome(query, account, slot, clicked, purchased);
  }
  void SaveState(std::string* out) const override { inner_->SaveState(out); }
  Status RestoreState(std::string_view blob) override {
    return inner_->RestoreState(blob);
  }

 private:
  std::unique_ptr<BiddingStrategy> inner_;
};

/// Wraps every strategy of `strategies` in a BruteForceStrategy.
inline std::vector<std::unique_ptr<BiddingStrategy>> BruteForce(
    std::vector<std::unique_ptr<BiddingStrategy>> strategies) {
  for (auto& s : strategies) {
    s = std::make_unique<BruteForceStrategy>(std::move(s));
  }
  return strategies;
}

/// The Section V population on the brute-force shard path.
inline std::vector<std::unique_ptr<BiddingStrategy>> BruteForceRoiStrategies(
    const Workload& workload) {
  return BruteForce(RoiStrategies(workload));
}

/// Figure 5 Equalize-ROI, as in examples/expressive_program.cc.
inline constexpr const char kFigure5Program[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid > 0;
  ENDIF;
  UPDATE Bids SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7 AND K.formula = Bids.formula );
}
)sql";

/// Gives `workload` the formulas of perfbench's expressive-programs
/// workload: Click, Click ∧ Slot(0) or Purchase by keyword mod 3.
inline void UseExpressiveFormulas(Workload* workload) {
  const Formula top_click = Formula::Click() && Formula::Slot(0);
  for (int kw = 0; kw < workload->config.num_keywords; ++kw) {
    workload->keyword_formulas[kw] = kw % 3 == 0   ? Formula::Click()
                                     : kw % 3 == 1 ? top_click
                                                   : Formula::Purchase();
  }
}

/// One Figure 5 ProgramStrategy per advertiser, over the workload's
/// keyword formulas (ProgramStrategy classifies the program, and the
/// engine's RHTALU planner plans it).
inline std::vector<std::unique_ptr<BiddingStrategy>> Figure5Programs(
    const Workload& workload) {
  std::vector<ProgramStrategy::KeywordSpec> keywords;
  for (size_t kw = 0; kw < workload.keyword_formulas.size(); ++kw) {
    keywords.push_back(
        {"kw" + std::to_string(kw), workload.keyword_formulas[kw]});
  }
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.reserve(workload.config.num_advertisers);
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    auto program = ProgramStrategy::Create(kFigure5Program, keywords);
    SSA_CHECK_MSG(program.ok(), program.status().ToString().c_str());
    strategies.push_back(*std::move(program));
  }
  return strategies;
}

/// Builds the paper's workload (15 slots, 10 keywords) with n advertisers.
inline Workload PaperWorkload(int n, uint64_t seed) {
  WorkloadConfig config;
  config.num_advertisers = n;
  config.seed = seed;
  return MakePaperWorkload(config);
}

/// Average provider-side processing time per auction over `measured`
/// auctions after `warmup` unmeasured ones (the bid dynamics need to ramp
/// before timings are representative), on the Section V query stream
/// QueryGenerator(num_keywords, query_seed).
inline double AverageAuctionMs(ShardedAuctionEngine& engine,
                               uint64_t query_seed, int warmup,
                               int measured) {
  QueryGenerator queries(engine.workload().config.num_keywords, query_seed);
  for (int t = 0; t < warmup; ++t) engine.RunAuctionOn(queries.Next());
  double total = 0;
  for (int t = 0; t < measured; ++t) {
    total += engine.RunAuctionOn(queries.Next()).ProcessingMs();
  }
  return total / measured;
}

}  // namespace bench
}  // namespace ssa

#endif  // SSA_BENCH_BENCH_COMMON_H_
