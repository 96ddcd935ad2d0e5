#include "auction/pricing.h"

#include <algorithm>

#include "core/winner_determination.h"
#include "matching/hungarian.h"

namespace ssa {

std::string PricingRuleName(PricingRule rule) {
  switch (rule) {
    case PricingRule::kPayYourBid:
      return "pay-your-bid";
    case PricingRule::kGeneralizedSecondPrice:
      return "generalized-second-price";
    case PricingRule::kVcg:
      return "vcg";
  }
  return "?";
}

std::vector<Money> PerClickPrices(PricingRule rule,
                                  const RevenueMatrix& revenue,
                                  const ClickModel& model,
                                  const Allocation& allocation) {
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();
  SSA_CHECK(allocation.num_slots() == k);
  SSA_CHECK(rule != PricingRule::kVcg);  // VCG uses VcgExpectedCharges

  std::vector<double> own_weight(k, 0.0);
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId a = allocation.slot_to_advertiser[j];
    if (a >= 0) own_weight[j] = revenue.MarginalWeight(a, j);
  }

  // GSP's reference point per slot, floored at +0.0. One unchecked
  // row-major pass fills every slot's maximum; max is exact, so the values
  // are those of a per-slot column scan bit for bit.
  std::vector<double> r_next(k, 0.0);
  if (rule == PricingRule::kGeneralizedSecondPrice) {
    const double* unassigned = revenue.UnassignedData();
    for (AdvertiserId other = 0; other < n; ++other) {
      if (allocation.advertiser_to_slot[other] != kNoSlot) continue;
      const double* row = revenue.Row(other);
      for (SlotIndex j = 0; j < k; ++j) {
        r_next[j] = std::max(r_next[j], row[j] - unassigned[other]);
      }
    }
  }
  return PerClickPricesFrom(rule, model, allocation, own_weight, r_next);
}

std::vector<Money> PerClickPricesFrom(PricingRule rule,
                                      const ClickModel& model,
                                      const Allocation& allocation,
                                      const std::vector<double>& own_weight,
                                      const std::vector<double>& r_next) {
  const int k = allocation.num_slots();
  SSA_CHECK(rule != PricingRule::kVcg);
  SSA_CHECK(static_cast<int>(own_weight.size()) == k &&
            static_cast<int>(r_next.size()) == k);
  std::vector<Money> prices(k, 0.0);
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    const double ctr = model.ClickProbability(i, j);
    if (ctr <= 0.0) continue;  // never clicked, never charged
    const double own_bid = own_weight[j] / ctr;
    if (rule == PricingRule::kPayYourBid) {
      prices[j] = std::max(0.0, own_bid);
      continue;
    }
    prices[j] = std::max(0.0, std::min(own_bid, r_next[j] / ctr));
  }
  return prices;
}

std::vector<Money> VcgExpectedCharges(const RevenueMatrix& revenue,
                                      const Allocation& allocation) {
  const int k = revenue.num_slots();
  const std::vector<AdvertiserId> pool =
      SelectTopPerSlotCandidates(revenue, k + 1);
  std::vector<double> rows;
  for (const AdvertiserId i : pool) {
    for (SlotIndex j = 0; j < k; ++j) {
      rows.push_back(revenue.MarginalWeight(i, j));
    }
  }
  std::vector<double> own_weight(k, 0.0);
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = allocation.slot_to_advertiser[j];
    if (i >= 0) own_weight[j] = revenue.MarginalWeight(i, j);
  }
  return VcgChargesFrom(rows, pool, allocation, own_weight);
}

std::vector<Money> VcgChargesFrom(const std::vector<double>& pool_rows,
                                  const std::vector<AdvertiserId>& pool,
                                  const Allocation& allocation,
                                  const std::vector<double>& own_weight) {
  const int k = allocation.num_slots();
  SSA_CHECK(pool_rows.size() == pool.size() * static_cast<size_t>(k) &&
            static_cast<int>(own_weight.size()) == k);
  std::vector<Money> charges(k, 0.0);
  std::vector<double> without;
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    // Others' optimal welfare with i absent, solved on the pool's rows
    // without i's (bitwise the optimum over the same rows of the matrix).
    without.clear();
    for (size_t c = 0; c < pool.size(); ++c) {
      if (pool[c] == i) continue;
      const double* row = pool_rows.data() + c * k;
      without.insert(without.end(), row, row + k);
    }
    const int m = static_cast<int>(without.size() / k);
    const double alt = MaxWeightMatchingDense(without, m, k).total_weight;
    // Others' welfare under the chosen allocation (excluding i's edge).
    const double others_now = allocation.total_weight - own_weight[j];
    charges[j] = std::max(0.0, alt - others_now);
  }
  return charges;
}

std::vector<Money> ComputePrices(PricingRule rule, const RevenueMatrix& revenue,
                                 const ClickModel& model,
                                 const Allocation& allocation) {
  if (rule == PricingRule::kVcg) {
    return VcgExpectedCharges(revenue, allocation);
  }
  return PerClickPrices(rule, revenue, model, allocation);
}

}  // namespace ssa
