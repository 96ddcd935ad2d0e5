// Test-only strategy wrapper that forwards every call to an owned strategy.
// The engine's RHTALU planner plans only bidders that offer the RoiBidder
// view, which the wrapper does not forward, so wrapping them keeps a
// population on the brute-force shard path (capture, compiled-bids lookups,
// matrix fill) with bit-identical bids. Tests use it to pin brute-path
// behaviour on ROI bidders and to put a non-ROI strategy into an otherwise
// logical shard.

#ifndef SSA_TESTS_FORWARDING_STRATEGY_H_
#define SSA_TESTS_FORWARDING_STRATEGY_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "strategy/strategy.h"

namespace ssa {

class ForwardingStrategy : public BiddingStrategy {
 public:
  explicit ForwardingStrategy(std::unique_ptr<BiddingStrategy> inner)
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

/// Wraps every strategy of `strategies` in a ForwardingStrategy.
inline std::vector<std::unique_ptr<BiddingStrategy>> Forwarded(
    std::vector<std::unique_ptr<BiddingStrategy>> strategies) {
  for (auto& s : strategies) {
    s = std::make_unique<ForwardingStrategy>(std::move(s));
  }
  return strategies;
}

}  // namespace ssa

#endif  // SSA_TESTS_FORWARDING_STRATEGY_H_
