// Test-only reference auction engine: the paper's eager serial loop, kept
// as the executable specification ShardedAuctionEngine is checked against.
// Every auction runs every bidding program, compiles the whole n x k
// expected-revenue matrix from scratch, then runs winner determination,
// pricing and settlement. It has no compiled-bids cache, no shards, no
// top-k merge, no planning lanes, no checkpoints and no timers, so a bug in
// any of those cannot hide in both sides of a comparison. Like the engine it
// takes every query from the caller, and its user-RNG seeding matches the
// engine's, so equal seeds fed equal queries give bitwise-equal
// trajectories.

#ifndef SSA_TESTS_REFERENCE_ENGINE_H_
#define SSA_TESTS_REFERENCE_ENGINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "auction/outcome.h"
#include "core/expected_revenue.h"

namespace ssa {

class ReferenceEngine {
 public:
  ReferenceEngine(const EngineConfig& config, Workload workload,
                  std::vector<std::unique_ptr<BiddingStrategy>> strategies)
      : config_(config),
        workload_(std::move(workload)),
        strategies_(std::move(strategies)),
        user_rng_(config.seed ^ 0x5eed0f0e125eedULL),
        bids_(strategies_.size()) {
    SSA_CHECK(strategies_.size() == workload_.accounts.size());
  }

  const AuctionOutcome& RunAuctionOn(const Query& query) {
    const ClickModel& model = *workload_.click_model;
    outcome_ = AuctionOutcome{};
    outcome_.query = query;
    ++auctions_run_;
    // Step 3: every program, eagerly.
    for (size_t i = 0; i < strategies_.size(); ++i) {
      bids_[i].Clear();
      strategies_[i]->MakeBids(query, workload_.accounts[i], &bids_[i]);
    }
    // Theorem 2 matrix, Step 4 winner determination, Step 6 prices.
    const RevenueMatrix revenue = BuildRevenueMatrix(bids_, model);
    outcome_.wd = DetermineWinners(revenue, config_.wd_method);
    outcome_.prices =
        ComputePrices(config_.pricing, revenue, model, outcome_.wd.allocation);
    // Step 5: user actions, charging, accounting, notifications.
    SettleAuction(config_.pricing, model, outcome_.prices, &workload_.accounts,
                  strategies_, &user_rng_, &outcome_);
    total_revenue_ += outcome_.revenue_charged;
    return outcome_;
  }

  /// A what-if auction: RunAuctionOn's plan for `query` at the current
  /// state, with every program peeked (PeekBids) and nothing settled, so
  /// nothing moves.
  AuctionOutcome WhatIf(const Query& query) {
    const ClickModel& model = *workload_.click_model;
    AuctionOutcome outcome;
    outcome.query = query;
    for (size_t i = 0; i < strategies_.size(); ++i) {
      bids_[i].Clear();
      strategies_[i]->PeekBids(query, workload_.accounts[i], &bids_[i]);
    }
    const RevenueMatrix revenue = BuildRevenueMatrix(bids_, model);
    outcome.wd = DetermineWinners(revenue, config_.wd_method);
    outcome.prices =
        ComputePrices(config_.pricing, revenue, model, outcome.wd.allocation);
    return outcome;
  }

  const std::vector<AdvertiserAccount>& accounts() const {
    return workload_.accounts;
  }
  int64_t auctions_run() const { return auctions_run_; }
  Money total_revenue() const { return total_revenue_; }

 private:
  EngineConfig config_;
  Workload workload_;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies_;
  Rng user_rng_;
  std::vector<BidsTable> bids_;
  AuctionOutcome outcome_;
  int64_t auctions_run_ = 0;
  Money total_revenue_ = 0;
};

}  // namespace ssa

#endif  // SSA_TESTS_REFERENCE_ENGINE_H_
