#ifndef SSA_AUCTION_OUTCOME_H_
#define SSA_AUCTION_OUTCOME_H_

#include <memory>
#include <vector>

#include "auction/pricing.h"
#include "auction/query.h"
#include "auction/workload.h"
#include "core/winner_determination.h"
#include "strategy/strategy.h"
#include "util/common.h"

namespace ssa {

/// What happened to one filled slot after the page was served.
struct UserEvent {
  AdvertiserId advertiser = -1;
  SlotIndex slot = kNoSlot;
  bool clicked = false;
  bool purchased = false;
  /// Amount actually charged for this event (per-click price on click, or
  /// the expected VCG lump charge).
  Money charged = 0;
};

/// Full record of one auction, including the per-phase timings the Figure
/// 12/13 harnesses aggregate.
struct AuctionOutcome {
  Query query;
  WdResult wd;
  /// Per-slot charge for the allocation (GSP per-click or VCG lump) — what
  /// the settlement log persists alongside the realized events.
  std::vector<Money> prices;
  std::vector<UserEvent> events;  // one per filled slot, in slot order
  Money revenue_charged = 0;

  /// Step 3 and the expected-revenue matrix: running the bidding programs
  /// (RHTALU: the logical updates and triggers), compiling their bids and
  /// filling the matrix rows.
  double program_eval_ms = 0;
  double wd_ms = 0;       // Step 4 proper: the matching / LP
  double pricing_ms = 0;  // Step 6
  /// Provider-side processing time per auction (the quantity Figures 12/13
  /// plot): program evaluation + matrix + winner determination + pricing.
  double ProcessingMs() const { return program_eval_ms + wd_ms + pricing_ms; }
};

/// Engine configuration: which winner-determination method runs (LP, H, RH)
/// and which pricing rule charges the winners.
struct EngineConfig {
  WdMethod wd_method = WdMethod::kReducedHungarian;
  PricingRule pricing = PricingRule::kGeneralizedSecondPrice;
  /// Seed of the user-behavior simulation (the engine's user RNG starts at
  /// seed ^ 0x5eed0f0e125eedULL), independent of the workload seed so
  /// populations and traffic vary separately. Queries come from the caller;
  /// the tests, benches and examples draw the Section V stream from their
  /// own QueryGenerator(num_keywords, seed).
  uint64_t seed = 42;
};

/// Steps 5/6 of the lifecycle: simulates user behavior for every filled
/// slot of outcome->wd.allocation, charges winners per `pricing`, updates
/// accounts, and delivers the Section II-B outcome notifications. Appends
/// one UserEvent per filled slot (in slot order) and accumulates
/// outcome->revenue_charged; `user_rng` advances exactly once per
/// click/purchase draw, so equal seeds yield bitwise-equal trajectories.
void SettleAuction(PricingRule pricing, const ClickModel& model,
                   const std::vector<Money>& prices,
                   std::vector<AdvertiserAccount>* accounts,
                   const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
                   Rng* user_rng, AuctionOutcome* outcome);

}  // namespace ssa

#endif  // SSA_AUCTION_OUTCOME_H_
