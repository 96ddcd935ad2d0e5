#ifndef SSA_STRATEGY_ROI_BIDDER_H_
#define SSA_STRATEGY_ROI_BIDDER_H_

#include "auction/account.h"
#include "auction/query.h"
#include "core/formula.h"
#include "util/common.h"

namespace ssa {

/// The ROI-shaped view of a bidder whose per-query bid step is Figure 5's
/// Equalize-ROI rule (Section II-C), whatever holds its state: per keyword
/// a tentative bid, moved by ±1 against the keyword's cap and ROI, and the
/// bid formula the bid attaches to. The engine's RHTALU planner
/// (auction/roi_planner.h) reads its members only through this view.
/// RoiStrategy implements it over its bid vector, and a ProgramStrategy
/// whose plan classifies as Figure 5 over its Keywords and Bids tables.
///
/// An implementation's MakeBids, on a query whose one relevant keyword kw
/// has relevance > 0.7, must step exactly as the native RoiStrategy does
/// and emit a table whose rows all hold +0.0 except one, which holds
/// bid(kw) on formula(kw). The step's other per-keyword inputs, the cap and
/// the ROI, are the account's max_bid[kw] and Roi(kw) for both
/// implementations (ProgramStrategy refreshes its maxbid and roi cells from
/// the account before each step), so the planner reads them there.
class RoiBidder {
 public:
  virtual int roi_keywords() const = 0;
  /// Tentative bid on keyword kw; NaN when the state holds no number there.
  virtual Money roi_bid(int kw) const = 0;
  /// Per keyword, the formula its bid attaches to: an array of
  /// roi_keywords() formulas, or null when some keyword's bid does not
  /// attach to exactly one formula. Bidders built from one workload may
  /// share one array.
  virtual const Formula* roi_formulas() const = 0;
  /// Leaves the state exactly as MakeBids(query, account) leaves it when
  /// its step ends with tentative bids `bids` (one per keyword): the
  /// planner's write-back of the bids it advanced logically, `query` being
  /// the last query it planned and `account` the bidder's account as that
  /// query saw it.
  virtual void WriteRoiBids(const Query& query,
                            const AdvertiserAccount& account,
                            const Money* bids) = 0;

 protected:
  ~RoiBidder() = default;
};

}  // namespace ssa

#endif  // SSA_STRATEGY_ROI_BIDDER_H_
