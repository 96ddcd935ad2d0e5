#include "core/click_model.h"

#include <algorithm>
#include <utility>

namespace ssa {
namespace {

/// The (click, purchase) distribution from its three conditional
/// probabilities — the one formula every model's distribution goes through.
inline void ComposeDistribution(double pc, double ppc, double ppn,
                                double prob[4]) {
  prob[0] = (1.0 - pc) * (1.0 - ppn);
  prob[1] = (1.0 - pc) * ppn;
  prob[2] = pc * (1.0 - ppc);
  prob[3] = pc * ppc;
}

}  // namespace

void ClickModel::OutcomeDistribution(AdvertiserId i, SlotIndex slot,
                                     double prob[4]) const {
  const bool assigned = slot != kNoSlot;
  const double pc = assigned ? ClickProbability(i, slot) : 0.0;
  const double ppc = assigned ? PurchaseProbabilityGivenClick(i, slot) : 0.0;
  const double ppn = assigned ? PurchaseProbabilityGivenNoClick(i, slot) : 0.0;
  ComposeDistribution(pc, ppc, ppn, prob);
}

void ClickModel::OutcomeDistributions(AdvertiserId i, double* prob) const {
  const int k = num_slots();
  for (SlotIndex j = 0; j < k; ++j) OutcomeDistribution(i, j, prob + 4 * j);
  OutcomeDistribution(i, kNoSlot, prob + 4 * k);
}

MatrixClickModel::MatrixClickModel(int num_advertisers, int num_slots,
                                   std::vector<double> click)
    : MatrixClickModel(num_advertisers, num_slots, std::move(click), {}) {}

MatrixClickModel::MatrixClickModel(int num_advertisers, int num_slots,
                                   std::vector<double> click,
                                   std::vector<double> purchase_given_click)
    : n_(num_advertisers),
      k_(num_slots),
      click_(std::move(click)),
      purchase_given_click_(std::move(purchase_given_click)) {
  SSA_CHECK(n_ >= 0 && k_ >= 0);
  SSA_CHECK(click_.size() == static_cast<size_t>(n_) * k_);
  SSA_CHECK(purchase_given_click_.empty() ||
            purchase_given_click_.size() == static_cast<size_t>(n_) * k_);
  for (double p : click_) SSA_CHECK(p >= 0.0 && p <= 1.0);
  for (double p : purchase_given_click_) SSA_CHECK(p >= 0.0 && p <= 1.0);
}

double MatrixClickModel::ClickProbability(AdvertiserId i, SlotIndex j) const {
  SSA_CHECK(i >= 0 && i < n_ && j >= 0 && j < k_);
  return click_[static_cast<size_t>(i) * k_ + j];
}

double MatrixClickModel::PurchaseProbabilityGivenClick(AdvertiserId i,
                                                       SlotIndex j) const {
  SSA_CHECK(i >= 0 && i < n_ && j >= 0 && j < k_);
  if (purchase_given_click_.empty()) return 0.0;
  return purchase_given_click_[static_cast<size_t>(i) * k_ + j];
}

void MatrixClickModel::OutcomeDistribution(AdvertiserId i, SlotIndex slot,
                                           double prob[4]) const {
  // One virtual dispatch and one bounds check for the whole distribution —
  // the matrix-build hot path calls this n * (k + 1) times per auction.
  // Arithmetic is identical to the base implementation (bitwise contract).
  const bool assigned = slot != kNoSlot;
  SSA_CHECK(i >= 0 && i < n_ && (!assigned || (slot >= 0 && slot < k_)));
  const size_t idx = assigned ? static_cast<size_t>(i) * k_ + slot : 0;
  const double pc = assigned ? click_[idx] : 0.0;
  const double ppc =
      assigned && !purchase_given_click_.empty() ? purchase_given_click_[idx]
                                                 : 0.0;
  // PurchaseProbabilityGivenNoClick is not overridden by this model: 0.
  ComposeDistribution(pc, ppc, 0.0, prob);
}

void MatrixClickModel::OutcomeDistributions(AdvertiserId i,
                                            double* prob) const {
  // The revenue-row kernel's input: the advertiser's contiguous click and
  // purchase rows read straight through, one bounds check per advertiser.
  SSA_CHECK(i >= 0 && i < n_);
  const size_t base = static_cast<size_t>(i) * k_;
  const double* click = click_.data() + base;
  const double* purchase = purchase_given_click_.empty()
                               ? nullptr
                               : purchase_given_click_.data() + base;
  for (SlotIndex j = 0; j < k_; ++j) {
    ComposeDistribution(click[j], purchase != nullptr ? purchase[j] : 0.0,
                        0.0, prob + 4 * j);
  }
  ComposeDistribution(0.0, 0.0, 0.0, prob + 4 * k_);
}

SeparableClickModel::SeparableClickModel(std::vector<double> advertiser_factors,
                                         std::vector<double> slot_factors,
                                         double purchase_given_click)
    : advertiser_factors_(std::move(advertiser_factors)),
      slot_factors_(std::move(slot_factors)),
      purchase_given_click_(purchase_given_click) {
  for (double f : advertiser_factors_) SSA_CHECK(f >= 0.0);
  for (double f : slot_factors_) SSA_CHECK(f >= 0.0);
  SSA_CHECK(purchase_given_click_ >= 0.0 && purchase_given_click_ <= 1.0);
}

double SeparableClickModel::ClickProbability(AdvertiserId i,
                                             SlotIndex j) const {
  SSA_CHECK(i >= 0 && i < num_advertisers() && j >= 0 && j < num_slots());
  return std::min(1.0, advertiser_factors_[i] * slot_factors_[j]);
}

MatrixClickModel MakeSlotIntervalClickModel(int num_advertisers, int num_slots,
                                            Rng& rng, double lo, double hi,
                                            double purchase_given_click) {
  SSA_CHECK(num_slots > 0 && lo >= 0.0 && hi <= 1.0 && lo < hi);
  const double width = (hi - lo) / num_slots;
  std::vector<double> click(static_cast<size_t>(num_advertisers) * num_slots);
  for (int i = 0; i < num_advertisers; ++i) {
    for (int j = 0; j < num_slots; ++j) {
      // Slot j gets the (j+1)-th highest interval: slot 0 spans
      // [hi - width, hi), slot k-1 spans [lo, lo + width).
      const double interval_lo = hi - width * (j + 1);
      click[static_cast<size_t>(i) * num_slots + j] =
          rng.Uniform(interval_lo, interval_lo + width);
    }
  }
  std::vector<double> purchase;
  if (purchase_given_click > 0.0) {
    purchase.assign(static_cast<size_t>(num_advertisers) * num_slots,
                    purchase_given_click);
  }
  return MatrixClickModel(num_advertisers, num_slots, std::move(click),
                          std::move(purchase));
}

SeparableClickModel MakeRandomSeparableClickModel(int num_advertisers,
                                                  int num_slots, Rng& rng) {
  std::vector<double> adv(num_advertisers);
  for (double& f : adv) f = rng.Uniform(0.2, 1.0);
  std::vector<double> slot(num_slots);
  // Descending slot factors: top slot most clickable, as observed in [11].
  for (int j = 0; j < num_slots; ++j) {
    slot[j] = 0.9 * (num_slots - j) / num_slots;
  }
  return SeparableClickModel(std::move(adv), std::move(slot));
}

}  // namespace ssa
