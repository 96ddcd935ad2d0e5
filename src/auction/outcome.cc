#include "auction/outcome.h"

namespace ssa {

void SettleAuction(
    PricingRule pricing, const ClickModel& model,
    const std::vector<Money>& prices,
    std::vector<AdvertiserAccount>* accounts,
    const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
    Rng* user_rng, AuctionOutcome* outcome) {
  const int k = static_cast<int>(prices.size());
  const int kw = outcome->query.keyword;
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = outcome->wd.allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    UserEvent event;
    event.advertiser = i;
    event.slot = j;
    event.clicked = user_rng->Bernoulli(model.ClickProbability(i, j));
    const double ppc = model.PurchaseProbabilityGivenClick(i, j);
    if (event.clicked && ppc > 0.0) {
      event.purchased = user_rng->Bernoulli(ppc);
    }
    AdvertiserAccount& account = (*accounts)[i];
    // Per click; VCG's expected lump charge is owed whether or not clicked.
    if (event.clicked || pricing == PricingRule::kVcg) {
      event.charged = prices[j];
    }
    if (event.clicked) {
      // The provider updates ROI inputs "each time a user searches for the
      // keyword and then clicks on the advertiser's ad".
      account.value_gained[kw] += account.value_per_click[kw];
    }
    if (event.charged > 0) {
      account.amount_spent += event.charged;
      account.spent_per_keyword[kw] += event.charged;
    }
    outcome->revenue_charged += event.charged;
    outcome->events.push_back(event);
  }

  // Outcome notifications: programs that received a slot learn about it
  // (and about clicks/purchases) — the Section II-B notification triggers.
  for (const UserEvent& event : outcome->events) {
    strategies[event.advertiser]->OnOutcome(
        outcome->query, (*accounts)[event.advertiser], event.slot,
        event.clicked, event.purchased);
  }
}

}  // namespace ssa
