#ifndef SSA_AUCTION_PRICING_H_
#define SSA_AUCTION_PRICING_H_

#include <string>
#include <vector>

#include "core/click_model.h"
#include "core/expected_revenue.h"
#include "matching/allocation.h"
#include "util/common.h"

namespace ssa {

/// Pricing rules (Step 5/6 of the auction lifecycle). Winner determination
/// is pricing-agnostic — the paper's point is that, given winner
/// determination as a subroutine, all of these are "very simple
/// computations".
enum class PricingRule {
  /// First price: pay your (per-click-equivalent) bid.
  kPayYourBid,
  /// The "slight generalization of generalized second-pricing" of Section V:
  /// the winner of slot j pays, per click, the smallest amount that would
  /// still generate at least as much expected revenue in slot j as the best
  /// advertiser left without a slot — min(own bid, r_next(j) / ctr(i, j)).
  kGeneralizedSecondPrice,
  /// Vickrey pricing: each winner is charged its social opportunity cost
  /// (computed per auction as an expected lump charge, not per click).
  kVcg,
};

std::string PricingRuleName(PricingRule rule);

/// Per-click price for each slot of the allocation under kPayYourBid or
/// kGeneralizedSecondPrice. Entry j is 0 for empty slots. Prices are
/// per-click: the advertiser is charged only when a click occurs (the
/// pay-per-click contract of sponsored search).
///
/// The per-click-equivalent bid of winner i in slot j is
/// r_i(j) / P(click | i, j) — for a plain Click bid this is exactly the bid
/// value; for multi-feature bids it is the expected payment per expected
/// click.
///
/// This matrix entry point finds GSP's reference point with an O(n·k) scan;
/// the engine takes it from its merged per-slot top-(k+1) instead and calls
/// PerClickPricesFrom directly.
std::vector<Money> PerClickPrices(PricingRule rule,
                                  const RevenueMatrix& revenue,
                                  const ClickModel& model,
                                  const Allocation& allocation);

/// The per-click pricing kernel. `own_weight[j]` is the marginal weight
/// r_i(j) - r_i(⊥) of slot j's winner i. `r_next[j]` is GSP's reference
/// point: the largest marginal weight in slot j among the advertisers left
/// without a slot, floored at +0.0 (unread under pay-your-bid). With at
/// most k winners, the best loser of a slot is always in that slot's
/// top-(k+1), so the heaps the engine already merges yield r_next exactly.
std::vector<Money> PerClickPricesFrom(PricingRule rule,
                                      const ClickModel& model,
                                      const Allocation& allocation,
                                      const std::vector<double>& own_weight,
                                      const std::vector<double>& r_next);

/// Expected VCG charge per slot: (optimum without winner i) - (optimum's
/// weight excluding i's own edge). Individually rational (charge <= r_i(j))
/// and non-negative; verified by tests. Gathers the pool of
/// SelectTopPerSlotCandidates(revenue, k + 1) for VcgChargesFrom.
std::vector<Money> VcgExpectedCharges(const RevenueMatrix& revenue,
                                      const Allocation& allocation);

/// The VCG kernel: O(k) matchings on the pool, the union (ascending ids) of
/// every slot's top-(k+1) positive marginal weights, which holds an optimal
/// matching avoiding any one advertiser; `pool_rows` are their marginal
/// weights, advertiser-major. `own_weight` is as in PerClickPricesFrom.
std::vector<Money> VcgChargesFrom(const std::vector<double>& pool_rows,
                                  const std::vector<AdvertiserId>& pool,
                                  const Allocation& allocation,
                                  const std::vector<double>& own_weight);

/// Dispatches to VcgExpectedCharges or PerClickPrices by rule — Step 6 on a
/// full revenue matrix.
std::vector<Money> ComputePrices(PricingRule rule, const RevenueMatrix& revenue,
                                 const ClickModel& model,
                                 const Allocation& allocation);

}  // namespace ssa

#endif  // SSA_AUCTION_PRICING_H_
