#ifndef SSA_CORE_CLICK_MODEL_H_
#define SSA_CORE_CLICK_MODEL_H_

#include <memory>
#include <vector>

#include "util/common.h"
#include "util/rng.h"

namespace ssa {

/// The search provider's estimated click/purchase probabilities
/// (Section III-A). The first-order model the paper adopts: the probability
/// that advertiser i gets a click depends only on the slot assigned to i,
/// and the probability of a purchase depends only on whether i got a click
/// and on i's slot. This makes every event expressible by a bid formula
/// 1-dependent (Definition 1), which is what Theorem 2 exploits.
class ClickModel {
 public:
  virtual ~ClickModel() = default;

  virtual int num_advertisers() const = 0;
  virtual int num_slots() const = 0;

  /// P(click | advertiser i shown in slot j). j in [0, num_slots).
  /// An unassigned advertiser is never clicked — callers handle kNoSlot.
  virtual double ClickProbability(AdvertiserId i, SlotIndex j) const = 0;

  /// P(purchase | click, advertiser i in slot j).
  virtual double PurchaseProbabilityGivenClick(AdvertiserId i,
                                               SlotIndex j) const = 0;

  /// P(purchase | no click, advertiser i in slot j). Usually zero; exposed
  /// because the paper conditions purchases on (click, slot) generally.
  virtual double PurchaseProbabilityGivenNoClick(AdvertiserId /*i*/,
                                                 SlotIndex /*j*/) const {
    return 0.0;
  }

  /// The full (click, purchase) distribution of advertiser i fixed in
  /// `slot` (kNoSlot allowed), written to prob[4] indexed by
  /// (clicked << 1) | purchased — the form the dense matrix kernels
  /// consume. The default composes the three per-quantity virtuals above;
  /// table-backed models override it to serve the row with a single bounds
  /// check. Overrides must perform the identical arithmetic (the compiled
  /// revenue-matrix path is asserted bitwise-equal to the tree walk).
  virtual void OutcomeDistribution(AdvertiserId i, SlotIndex slot,
                                   double prob[4]) const;

  /// All num_slots() + 1 distributions of advertiser i in one call:
  /// prob[4 * j .. 4 * j + 3] is OutcomeDistribution(i, j) for slot j, and
  /// the last four entries are the unassigned (kNoSlot) state — the layout
  /// CompiledBids::ExpectedPayments consumes. The default loops
  /// OutcomeDistribution; overrides must be bitwise equal to it.
  virtual void OutcomeDistributions(AdvertiserId i, double* prob) const;
};

/// Click model backed by explicit per-(advertiser, slot) probability tables —
/// the general, non-separable case of Figure 7.
class MatrixClickModel : public ClickModel {
 public:
  /// `click` is row-major n x k. Purchase probabilities default to zero.
  MatrixClickModel(int num_advertisers, int num_slots,
                   std::vector<double> click);
  MatrixClickModel(int num_advertisers, int num_slots,
                   std::vector<double> click,
                   std::vector<double> purchase_given_click);

  int num_advertisers() const override { return n_; }
  int num_slots() const override { return k_; }
  double ClickProbability(AdvertiserId i, SlotIndex j) const override;
  double PurchaseProbabilityGivenClick(AdvertiserId i,
                                       SlotIndex j) const override;
  void OutcomeDistribution(AdvertiserId i, SlotIndex slot,
                           double prob[4]) const override;
  void OutcomeDistributions(AdvertiserId i, double* prob) const override;

  /// Advertiser i's k click probabilities, contiguous.
  const double* ClickRow(AdvertiserId i) const {
    SSA_CHECK(i >= 0 && i < n_);
    return click_.data() + static_cast<size_t>(i) * k_;
  }
  /// Advertiser i's k purchase-given-click probabilities, or nullptr when
  /// the model has none (all zero).
  const double* PurchaseRow(AdvertiserId i) const {
    SSA_CHECK(i >= 0 && i < n_);
    return purchase_given_click_.empty()
               ? nullptr
               : purchase_given_click_.data() + static_cast<size_t>(i) * k_;
  }

 private:
  int n_;
  int k_;
  std::vector<double> click_;
  std::vector<double> purchase_given_click_;  // may be empty => 0
};

/// Separable click probabilities (Section III-C, Figure 8): P(click | i, j) =
/// advertiser_factor[i] * slot_factor[j]. Current Google/Yahoo allocation
/// relies on exactly this restriction; `core/separable.h` implements the
/// O(n log k) allocation that is only correct under it.
class SeparableClickModel : public ClickModel {
 public:
  SeparableClickModel(std::vector<double> advertiser_factors,
                      std::vector<double> slot_factors,
                      double purchase_given_click = 0.0);

  int num_advertisers() const override {
    return static_cast<int>(advertiser_factors_.size());
  }
  int num_slots() const override {
    return static_cast<int>(slot_factors_.size());
  }
  double ClickProbability(AdvertiserId i, SlotIndex j) const override;
  double PurchaseProbabilityGivenClick(AdvertiserId,
                                       SlotIndex) const override {
    return purchase_given_click_;
  }

  const std::vector<double>& advertiser_factors() const {
    return advertiser_factors_;
  }
  const std::vector<double>& slot_factors() const { return slot_factors_; }

 private:
  std::vector<double> advertiser_factors_;
  std::vector<double> slot_factors_;
  double purchase_given_click_;
};

/// The evaluation section's generator (Section V): the interval [lo, hi]
/// (paper: [0.1, 0.9]) is partitioned into k disjoint equal-width intervals;
/// slot j is associated with the (j+1)-th highest interval (slot 0 the
/// highest), and each advertiser's click probability for slot j is drawn
/// uniformly within slot j's interval. Non-separable in general.
MatrixClickModel MakeSlotIntervalClickModel(int num_advertisers, int num_slots,
                                            Rng& rng, double lo = 0.1,
                                            double hi = 0.9,
                                            double purchase_given_click = 0.0);

/// Uniform random separable model: advertiser factors U(0.2, 1.0), slot
/// factors descending in j (slot 0 largest). Used by the separability
/// ablation.
SeparableClickModel MakeRandomSeparableClickModel(int num_advertisers,
                                                  int num_slots, Rng& rng);

}  // namespace ssa

#endif  // SSA_CORE_CLICK_MODEL_H_
