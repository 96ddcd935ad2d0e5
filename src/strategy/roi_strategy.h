#ifndef SSA_STRATEGY_ROI_STRATEGY_H_
#define SSA_STRATEGY_ROI_STRATEGY_H_

#include <memory>
#include <vector>

#include "core/formula.h"
#include "strategy/roi_bidder.h"
#include "strategy/strategy.h"
#include "util/common.h"

namespace ssa {

/// Native implementation of the ROI-equalizing heuristic of Section II-C /
/// Figure 5 (after [Borgs et al., WWW'07]), the strategy every bidder runs
/// in the paper's experiments. Per auction, with t the auction number and
/// kw the queried keyword (relevance 1, all others 0):
///
///   if amount_spent < target_rate * t              (underspending)
///     and roi(kw) == max_kw' roi(kw') and bid[kw] < max_bid[kw]:
///       bid[kw] += 1
///   else if amount_spent > target_rate * t         (overspending)
///     and roi(kw) == min_kw' roi(kw') and bid[kw] > 0:
///       bid[kw] -= 1
///
/// then emit one Bids row per distinct keyword formula, whose value is the
/// sum of tentative bids of sufficiently relevant keywords (relevance >
/// 0.7) carrying that formula — with one keyword per query this is a single
/// `Click -> bid[kw]` row.
///
/// Tentative bids are integral cents, so all boundary comparisons
/// (bid < max_bid, bid > 0) are exact; the engine's logical-update planner
/// (auction/roi_planner.h) replicates these semantics bit-for-bit, which
/// the equivalence tests assert. The class is final: it offers the planner
/// its RoiBidder view, and a subclass could change what MakeBids does.
class RoiStrategy final : public BiddingStrategy, public RoiBidder {
 public:
  /// `keyword_formulas[kw]` is the formula keyword kw's bid attaches to
  /// (plain Click in the Section V workload). Tentative bids start at 0.
  /// Strategies constructed one after another from equal formulas (a
  /// population built from its workload's) share one immutable copy.
  explicit RoiStrategy(const std::vector<Formula>& keyword_formulas);

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override;

  /// Genuinely const read path: computes the same table MakeBids would
  /// emit, keeping the Figure 5 tentative-bid adjustment in a local instead
  /// of writing it back. Avoids the base-class save/mutate/restore dance.
  void PeekBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) const override;

  /// Checkpoint hooks: the tentative-bid vector is the strategy's entire
  /// mutable state.
  void SaveState(std::string* out) const override;
  Status RestoreState(std::string_view blob) override;

  /// Current tentative bid per keyword.
  const std::vector<Money>& tentative_bids() const { return bids_; }

  /// The RoiBidder view: the bid vector and the keyword formulas (a
  /// relevant keyword emits one row, its bid on its formula).
  RoiBidder* roi_bidder() override { return this; }
  int roi_keywords() const override { return static_cast<int>(bids_.size()); }
  Money roi_bid(int kw) const override { return bids_[kw]; }
  const Formula* roi_formulas() const override {
    return keyword_formulas_->data();
  }
  /// Copies `bids`: the bid vector is the whole state.
  void WriteRoiBids(const Query& query, const AdvertiserAccount& account,
                    const Money* bids) override;

 private:
  /// The full Figure 5 step — tentative-bid adjustment applied to
  /// `*tentative`, then the bids-table emission — shared by the mutating
  /// (MakeBids: tentative == &bids_) and const (PeekBids: tentative = a
  /// local copy) entry points so the two stay bitwise-identical.
  void StepOn(const Query& query, const AdvertiserAccount& account,
              std::vector<Money>* tentative, BidsTable* bids) const;

  std::shared_ptr<const std::vector<Formula>> keyword_formulas_;
  std::vector<Money> bids_;
};

}  // namespace ssa

#endif  // SSA_STRATEGY_ROI_STRATEGY_H_
