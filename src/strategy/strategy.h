#ifndef SSA_STRATEGY_STRATEGY_H_
#define SSA_STRATEGY_STRATEGY_H_

#include <string>
#include <string_view>

#include "auction/account.h"
#include "auction/query.h"
#include "core/bids_table.h"
#include "util/common.h"
#include "util/status.h"

namespace ssa {

class RoiBidder;

/// A dynamic bidding strategy — the paper's "bidding program" (Section II-B)
/// seen as an abstract interface. Each time a user search triggers an
/// auction, the program runs with access to the query (shared, read-only)
/// and its own account variables (private), and emits a Bids table.
///
/// Implementations: RoiStrategy (native C++ version of Figure 5),
/// ProgramStrategy (interprets a program written in the mini-SQL bidding
/// language), plus fixed/test strategies. Strategies of different
/// advertisers never share mutable state, so program evaluation is
/// embarrassingly parallel — the property Section II-B calls out.
class BiddingStrategy {
 public:
  virtual ~BiddingStrategy() = default;

  /// Computes this advertiser's bids for the current auction. `bids` arrives
  /// cleared; the strategy may mutate its own private state.
  virtual void MakeBids(const Query& query, const AdvertiserAccount& account,
                        BidsTable* bids) = 0;

  /// Computes the bids MakeBids *would* emit for this auction without
  /// advancing the strategy's private state — the read-only entry point the
  /// follower/what-if paths use. The default implements it on top of the
  /// checkpoint contract: save state, run MakeBids, restore — correct for
  /// any strategy whose SaveState/RestoreState round-trip is bitwise (which
  /// the contract requires), at the cost of a state copy and a transient
  /// mutation. NOT thread-safe against a concurrent MakeBids on the same
  /// strategy; callers serialize reads against applies (the follower holds
  /// its apply mutex). Strategies with cheap pure math (RoiStrategy)
  /// override with a genuinely const computation.
  virtual void PeekBids(const Query& query, const AdvertiserAccount& account,
                        BidsTable* bids) const {
    auto* self = const_cast<BiddingStrategy*>(this);
    std::string saved;
    SaveState(&saved);
    self->MakeBids(query, account, bids);
    const Status restored = self->RestoreState(saved);
    SSA_CHECK(restored.ok());
  }

  /// Outcome notification (Section II-B: "SQL triggers can be used ... to
  /// notify programs if they received a slot, click, or purchase"). Called
  /// by the engine after each auction the advertiser won; `slot` is the
  /// 0-based position received. Default: ignore.
  virtual void OnOutcome(const Query& query, const AdvertiserAccount& account,
                         SlotIndex slot, bool clicked, bool purchased) {
    (void)query;
    (void)account;
    (void)slot;
    (void)clicked;
    (void)purchased;
  }

  /// The strategy's ROI-shaped view (strategy/roi_bidder.h) when its bid
  /// step is Figure 5's Equalize-ROI rule and it has no outcome behaviour,
  /// so the engine's RHTALU planner may run its bids; null otherwise (the
  /// default). May change only when RestoreState changes the state.
  virtual RoiBidder* roi_bidder() { return nullptr; }

  /// Appends the strategy's private mutable state (tentative bids, program
  /// tables, outcome counters — anything MakeBids/OnOutcome mutate) to
  /// `out`, for engine checkpoints. A strategy restored from this blob must
  /// behave bitwise-identically to the original from then on. Default:
  /// stateless — nothing to save.
  virtual void SaveState(std::string* out) const { (void)out; }

  /// Restores the state SaveState serialized. The default accepts only the
  /// empty blob a stateless strategy saves; stateful strategies must
  /// override both methods or checkpoints of engines running them fail
  /// loudly here rather than silently diverging after restore.
  virtual Status RestoreState(std::string_view blob) {
    return blob.empty()
               ? Status::Ok()
               : Status::InvalidArgument(
                     "non-empty checkpoint state for a strategy without "
                     "RestoreState");
  }
};

}  // namespace ssa

#endif  // SSA_STRATEGY_STRATEGY_H_
