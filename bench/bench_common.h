#ifndef SSA_BENCH_BENCH_COMMON_H_
#define SSA_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "auction/sharded_engine.h"
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

/// Forwards every call to an owned RoiStrategy. The engine's RHTALU planner
/// recognizes native RoiStrategy bidders by type, so a population of these
/// bids identically but plans every auction by brute force (capture,
/// compile, matrix fill): the RH baseline of Figures 12 and 13.
class BruteForceRoiStrategy : public BiddingStrategy {
 public:
  explicit BruteForceRoiStrategy(const std::vector<Formula>& keyword_formulas)
      : inner_(keyword_formulas) {}
  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override {
    inner_.MakeBids(query, account, bids);
  }
  void PeekBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) const override {
    inner_.PeekBids(query, account, bids);
  }
  void SaveState(std::string* out) const override { inner_.SaveState(out); }
  Status RestoreState(std::string_view blob) override {
    return inner_.RestoreState(blob);
  }

 private:
  RoiStrategy inner_;
};

/// The Section V population on the brute-force shard path.
inline std::vector<std::unique_ptr<BiddingStrategy>> BruteForceRoiStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  strategies.reserve(workload.config.num_advertisers);
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<BruteForceRoiStrategy>(workload.keyword_formulas));
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
/// before timings are representative).
inline double AverageAuctionMs(ShardedAuctionEngine& engine, int warmup,
                               int measured) {
  for (int t = 0; t < warmup; ++t) engine.RunAuction();
  double total = 0;
  for (int t = 0; t < measured; ++t) {
    total += engine.RunAuction().ProcessingMs();
  }
  return total / measured;
}

}  // namespace bench
}  // namespace ssa

#endif  // SSA_BENCH_BENCH_COMMON_H_
