#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "auction/pricing.h"
#include "core/winner_determination.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssa {
namespace {

// Two advertisers, one slot; click bids so per-click prices are intuitive.
struct SimpleSetting {
  MatrixClickModel model;
  RevenueMatrix revenue;
  Allocation allocation;

  SimpleSetting(double ctr0, double ctr1, Money bid0, Money bid1)
      : model(2, 1, {ctr0, ctr1}), revenue(2, 1) {
    revenue.Set(0, 0, ctr0 * bid0);
    revenue.Set(1, 0, ctr1 * bid1);
    WdResult wd = DetermineWinners(revenue, WdMethod::kHungarian);
    allocation = wd.allocation;
  }
};

TEST(PricingTest, PayYourBidEqualsPerClickBid) {
  SimpleSetting s(0.5, 0.4, 10, 6);
  ASSERT_EQ(s.allocation.slot_to_advertiser[0], 0);
  const auto prices =
      PerClickPrices(PricingRule::kPayYourBid, s.revenue, s.model,
                     s.allocation);
  EXPECT_NEAR(prices[0], 10.0, 1e-12);
}

TEST(PricingTest, GspChargesRunnerUpEquivalent) {
  SimpleSetting s(0.5, 0.4, 10, 6);
  const auto prices = PerClickPrices(PricingRule::kGeneralizedSecondPrice,
                                     s.revenue, s.model, s.allocation);
  // Runner-up expected revenue 0.4 * 6 = 2.4; per-click price 2.4 / 0.5.
  EXPECT_NEAR(prices[0], 4.8, 1e-12);
  EXPECT_LE(prices[0], 10.0);  // never above own bid
}

TEST(PricingTest, GspZeroWithoutCompetition) {
  SimpleSetting s(0.5, 0.4, 10, 0);
  const auto prices = PerClickPrices(PricingRule::kGeneralizedSecondPrice,
                                     s.revenue, s.model, s.allocation);
  EXPECT_NEAR(prices[0], 0.0, 1e-12);
}

TEST(PricingTest, EmptySlotsPriceZero) {
  RevenueMatrix revenue(1, 2);
  revenue.Set(0, 0, 5.0);
  revenue.Set(0, 1, 1.0);
  MatrixClickModel model(1, 2, {0.5, 0.1});
  const WdResult wd = DetermineWinners(revenue, WdMethod::kHungarian);
  const auto prices = PerClickPrices(PricingRule::kGeneralizedSecondPrice,
                                     revenue, model, wd.allocation);
  ASSERT_EQ(wd.allocation.slot_to_advertiser[0], 0);
  EXPECT_EQ(wd.allocation.slot_to_advertiser[1], -1);
  EXPECT_DOUBLE_EQ(prices[1], 0.0);
}

// GSP property sweep: price is always in [0, own per-click bid], and equals
// the best excluded advertiser's revenue divided by the winner's ctr when
// that is lower.
TEST(PricingTest, GspBoundedByOwnBid) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 30, k = 5;
    RevenueMatrix revenue = testing_util::RandomRevenueMatrix(n, k, rng);
    MatrixClickModel model = MakeSlotIntervalClickModel(n, k, rng);
    const WdResult wd = DetermineWinners(revenue, WdMethod::kReducedHungarian);
    const auto prices = PerClickPrices(PricingRule::kGeneralizedSecondPrice,
                                       revenue, model, wd.allocation);
    for (SlotIndex j = 0; j < k; ++j) {
      const AdvertiserId i = wd.allocation.slot_to_advertiser[j];
      if (i < 0) continue;
      const double own = revenue.MarginalWeight(i, j) /
                         model.ClickProbability(i, j);
      EXPECT_GE(prices[j], 0.0);
      EXPECT_LE(prices[j], own + 1e-9);
    }
  }
}

/// GSP the way it was first written: for each filled slot, one column scan
/// over every advertiser through the checked MarginalWeight.
std::vector<Money> ColumnScanGspPrices(const RevenueMatrix& revenue,
                                       const ClickModel& model,
                                       const Allocation& allocation) {
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();
  std::vector<char> is_winner(n, 0);
  for (AdvertiserId a : allocation.slot_to_advertiser) {
    if (a >= 0) is_winner[a] = 1;
  }
  std::vector<Money> prices(k, 0.0);
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    const double ctr = model.ClickProbability(i, j);
    if (ctr <= 0.0) continue;
    const double own_bid = revenue.MarginalWeight(i, j) / ctr;
    double r_next = 0.0;
    for (AdvertiserId other = 0; other < n; ++other) {
      if (is_winner[other]) continue;
      r_next = std::max(r_next, revenue.MarginalWeight(other, j));
    }
    prices[j] = std::max(0.0, std::min(own_bid, r_next / ctr));
  }
  return prices;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// The one-pass GSP must price every slot bit for bit like the column scan:
// ties (values on a coarse grid), all marginal weights <= 0, empty slots,
// zero click probabilities, and fewer advertisers than slots.
TEST(PricingTest, OnePassGspMatchesColumnScanBitwise) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(12));
    const int k = 1 + static_cast<int>(rng.NextBounded(8));
    const bool all_nonpositive = trial % 4 == 0;
    RevenueMatrix revenue(n, k);
    std::vector<double> click(static_cast<size_t>(n) * k);
    for (AdvertiserId i = 0; i < n; ++i) {
      // Half-unit grid: many exact ties between advertisers and slots.
      const double base = 0.5 * static_cast<double>(rng.NextBounded(8));
      revenue.SetUnassigned(i, all_nonpositive ? base + 4.0 : base);
      for (SlotIndex j = 0; j < k; ++j) {
        revenue.Set(i, j, 0.5 * static_cast<double>(rng.NextBounded(8)));
        click[static_cast<size_t>(i) * k + j] =
            rng.Bernoulli(0.1) ? 0.0 : 0.25 * (1 + rng.NextBounded(4));
      }
    }
    const MatrixClickModel model(n, k, click);
    // The optimal allocation, plus a random partial one whose winners need
    // not have positive weight (and whose empty slots must price at 0).
    Allocation random_alloc = Allocation::Empty(n, k);
    for (SlotIndex j = 0; j < k; ++j) {
      const AdvertiserId i = static_cast<AdvertiserId>(rng.NextBounded(n));
      if (random_alloc.advertiser_to_slot[i] == kNoSlot && rng.Bernoulli(0.6)) {
        random_alloc.advertiser_to_slot[i] = j;
        random_alloc.slot_to_advertiser[j] = i;
      }
    }
    const Allocation allocations[] = {
        DetermineWinners(revenue, WdMethod::kHungarian).allocation,
        random_alloc};
    for (const Allocation& allocation : allocations) {
      const std::vector<Money> got =
          PerClickPrices(PricingRule::kGeneralizedSecondPrice, revenue, model,
                         allocation);
      const std::vector<Money> want =
          ColumnScanGspPrices(revenue, model, allocation);
      ASSERT_EQ(got.size(), want.size());
      for (SlotIndex j = 0; j < k; ++j) {
        EXPECT_EQ(Bits(got[j]), Bits(want[j]))
            << "trial " << trial << " slot " << j;
        if (allocation.slot_to_advertiser[j] < 0) {
          EXPECT_EQ(Bits(got[j]), 0u);
        }
      }
    }
  }
}

// VCG properties: non-negative charges, individual rationality (charge never
// exceeds the winner's expected value), and zero charge when a winner has no
// externality (no competition).
TEST(PricingTest, VcgProperties) {
  Rng rng(71);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 20, k = 4;
    RevenueMatrix revenue = testing_util::RandomRevenueMatrix(n, k, rng);
    const WdResult wd = DetermineWinners(revenue, WdMethod::kReducedHungarian);
    const auto charges = VcgExpectedCharges(revenue, wd.allocation);
    for (SlotIndex j = 0; j < k; ++j) {
      const AdvertiserId i = wd.allocation.slot_to_advertiser[j];
      if (i < 0) {
        EXPECT_DOUBLE_EQ(charges[j], 0.0);
        continue;
      }
      EXPECT_GE(charges[j], -1e-9);
      EXPECT_LE(charges[j], revenue.MarginalWeight(i, j) + 1e-9)
          << "IR violated for slot " << j;
    }
  }
}

TEST(PricingTest, VcgSingleBidderPaysNothing) {
  RevenueMatrix revenue(1, 2);
  revenue.Set(0, 0, 8.0);
  revenue.Set(0, 1, 3.0);
  const WdResult wd = DetermineWinners(revenue, WdMethod::kHungarian);
  const auto charges = VcgExpectedCharges(revenue, wd.allocation);
  EXPECT_NEAR(charges[0], 0.0, 1e-12);
}

TEST(PricingTest, VcgHandExample) {
  // Two bidders, one slot: VCG charge = runner-up's displaced welfare.
  RevenueMatrix revenue(2, 1);
  revenue.Set(0, 0, 10.0);
  revenue.Set(1, 0, 7.0);
  const WdResult wd = DetermineWinners(revenue, WdMethod::kHungarian);
  ASSERT_EQ(wd.allocation.slot_to_advertiser[0], 0);
  const auto charges = VcgExpectedCharges(revenue, wd.allocation);
  EXPECT_NEAR(charges[0], 7.0, 1e-12);
}

TEST(PricingTest, RuleNames) {
  EXPECT_EQ(PricingRuleName(PricingRule::kPayYourBid), "pay-your-bid");
  EXPECT_EQ(PricingRuleName(PricingRule::kGeneralizedSecondPrice),
            "generalized-second-price");
  EXPECT_EQ(PricingRuleName(PricingRule::kVcg), "vcg");
}

}  // namespace
}  // namespace ssa
