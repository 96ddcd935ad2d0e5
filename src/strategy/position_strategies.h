#ifndef SSA_STRATEGY_POSITION_STRATEGIES_H_
#define SSA_STRATEGY_POSITION_STRATEGIES_H_

#include <memory>

#include "auction/outcome.h"
#include "strategy/strategy.h"
#include "util/common.h"

namespace ssa {

/// The dynamic goals Section I-A says advertisers buy from search-engine
/// management companies — here as first-class strategies instead of a menu
/// of third-party services:
///   * PositionTargetStrategy — "maintaining a specified slot position";
///   * AboveCompetitorStrategy — "maintaining a slot position above a
///     specified competitor";
///   * BudgetedStrategy — the daily-budget guard current platforms offer.

/// Chases a target slot with a simple ladder: bid up while landing below the
/// target (or not displayed), bid down when overshooting above it — paying
/// for slot 1 when you only want slot 3 is wasted spend. Bids are per-click
/// (`Click` formula), stepped by `step` cents within [0, max_bid].
class PositionTargetStrategy : public BiddingStrategy {
 public:
  PositionTargetStrategy(SlotIndex target_slot, Money max_bid, Money step = 1);

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override;
  void OnOutcome(const Query& query, const AdvertiserAccount& account,
                 SlotIndex slot, bool clicked, bool purchased) override;
  void SaveState(std::string* out) const override;
  Status RestoreState(std::string_view blob) override;

  Money current_bid() const { return bid_; }

 private:
  SlotIndex target_slot_;
  Money max_bid_;
  Money step_;
  Money bid_ = 0;
  int64_t last_won_time_ = 0;
};

/// Stays above one named rival. Engines only notify advertisers of their own
/// outcomes (private state, Section II-B), so this strategy models what SEM
/// companies actually do: observe the *public* result page and resubmit —
/// feed each auction's outcome to ObservePage(). While the rival sits at or
/// above our position (or we are not displayed), escalate; once safely
/// above, decay to save money.
class AboveCompetitorStrategy : public BiddingStrategy {
 public:
  AboveCompetitorStrategy(AdvertiserId self, AdvertiserId rival, Money max_bid,
                          Money step = 1);

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override;

  /// Public-page observation hook (call after each auction).
  void ObservePage(const AuctionOutcome& outcome);

  void SaveState(std::string* out) const override;
  Status RestoreState(std::string_view blob) override;

  Money current_bid() const { return bid_; }

 private:
  AdvertiserId self_;
  AdvertiserId rival_;
  Money max_bid_;
  Money step_;
  Money bid_ = 0;
};

/// Daily-budget guard: delegates to an inner strategy until the account's
/// spend reaches the budget, then stops bidding (the standard platform
/// semantics the paper lists among today's limited controls).
class BudgetedStrategy : public BiddingStrategy {
 public:
  BudgetedStrategy(std::unique_ptr<BiddingStrategy> inner, Money budget);

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override;
  void OnOutcome(const Query& query, const AdvertiserAccount& account,
                 SlotIndex slot, bool clicked, bool purchased) override;
  /// Budget tracking lives in the account; only the inner strategy's state
  /// travels through checkpoints.
  void SaveState(std::string* out) const override;
  Status RestoreState(std::string_view blob) override;

  Money budget() const { return budget_; }

 private:
  std::unique_ptr<BiddingStrategy> inner_;
  Money budget_;
};

}  // namespace ssa

#endif  // SSA_STRATEGY_POSITION_STRATEGIES_H_
