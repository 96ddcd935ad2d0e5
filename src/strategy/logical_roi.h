#ifndef SSA_STRATEGY_LOGICAL_ROI_H_
#define SSA_STRATEGY_LOGICAL_ROI_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "auction/outcome.h"
#include "auction/workload.h"
#include "util/common.h"
#include "util/sorted_list.h"

namespace ssa {

/// The RHTALU engine (Section IV + Section III-E): the same observable
/// auction as `ShardedAuctionEngine` running `RoiStrategy` for every bidder
/// with WdMethod::kReducedHungarian — same winners, same charges, same
/// account trajectories given equal seeds, bit for bit (asserted by
/// logical_roi_test) — but with per-auction work that avoids touching every
/// advertiser:
///
///  * **Logical updates** (Section IV-B): for each keyword, bidders are
///    partitioned into an increment list, a decrement list and a constant
///    list, each kept sorted by *stored* bid with a shared adjustment
///    variable. The ROI heuristic's "+1 to everyone incrementing this
///    keyword" becomes one adjustment-variable bump; members whose bid
///    would cross its cap (max bid) or floor (zero) are peeled off by
///    boundary heaps before the bump.
///  * **Triggers on shared monotone variables** (Section IV-B): a losing
///    bidder's spend rate decays deterministically with time, so the
///    auction number at which it flips from overspending to underspending
///    is precomputed and queued; list memberships are only touched when a
///    trigger fires or the bidder wins (and is charged).
///  * **Threshold Algorithm** (Section IV-A): per slot, the top-(k+1)
///    bidders by expected revenue ctr(i, slot) * bid_i are found by TA over
///    two sorted views — the static ctr-sorted list and the (lazily merged)
///    bid-sorted lists — stopping once the threshold is cleared, typically
///    after probing a small fraction of the n bidders.
///  * The reduced bipartite graph (top-k per slot) then goes to the
///    Hungarian kernel exactly as in RH.
class LogicalRoiEngine {
 public:
  /// Work counters for the ablation benches.
  struct Stats {
    int64_t ta_sorted_accesses = 0;
    int64_t triggers_fired = 0;
    int64_t list_moves = 0;
    int64_t boundary_moves = 0;
  };

  /// Requires kPayYourBid or kGeneralizedSecondPrice pricing (the paper's
  /// experiments use the GSP generalization).
  LogicalRoiEngine(const EngineConfig& config, Workload workload);

  /// Runs one complete auction (identical lifecycle to
  /// ShardedAuctionEngine::RunAuction).
  const AuctionOutcome& RunAuction();

  const std::vector<AdvertiserAccount>& accounts() const {
    return workload_.accounts;
  }
  const AuctionOutcome& last_outcome() const { return outcome_; }
  int64_t auctions_run() const { return auctions_run_; }
  Money total_revenue() const { return total_revenue_; }
  const Stats& stats() const { return stats_; }

  /// Current tentative bid of advertiser i on keyword kw (stored value plus
  /// its list's adjustment variable) — mirrors
  /// RoiStrategy::tentative_bids(); exposed for the equivalence tests.
  Money EffectiveBid(AdvertiserId i, int kw) const;

 private:
  /// Which list a (bidder, keyword) pair currently lives in.
  enum Tag : int8_t { kInc = 0, kDec = 1, kConst = 2 };
  /// Spending state relative to the target rate at a given auction time.
  enum class TimeState { kUnder, kEq, kOver };

  /// Lazily-invalidated boundary-heap entry (gen mismatches => stale).
  struct BoundaryEntry {
    double key;
    AdvertiserId id;
    uint32_t gen;
    bool operator>(const BoundaryEntry& o) const {
      if (key != o.key) return key > o.key;
      return id > o.id;
    }
  };
  using BoundaryHeap =
      std::priority_queue<BoundaryEntry, std::vector<BoundaryEntry>,
                          std::greater<BoundaryEntry>>;

  struct Member {
    Tag tag = kConst;
    double stored = 0;
    uint32_t gen = 0;
  };

  struct KwState {
    SortedKeyList lists[3];  // indexed by Tag, sorted by stored bid desc
    double adjustment[3] = {0, 0, 0};  // kConst stays 0
    /// Min-heap on (max_bid - stored): the member that hits its cap first.
    BoundaryHeap inc_boundary;
    /// Min-heap on stored: the member that hits zero first.
    BoundaryHeap dec_boundary;
  };

  struct Trigger {
    int64_t time;
    AdvertiserId id;
    uint32_t gen;
    bool operator>(const Trigger& o) const {
      if (time != o.time) return time > o.time;
      return id > o.id;
    }
  };

  TimeState StateAt(AdvertiserId i, int64_t t) const;
  Money EffBid(AdvertiserId i, int kw) const;
  /// Re-derives the list membership of all of bidder i's keywords from its
  /// account state at auction time t (the same predicate RoiStrategy
  /// evaluates), moving entries as needed.
  void ClassifyBidder(AdvertiserId i, int64_t t);
  /// Queues the next time-trigger for bidder i (none when underspending —
  /// that state is absorbing until the bidder wins again).
  void ScheduleTrigger(AdvertiserId i, int64_t t_now);
  void MoveMember(AdvertiserId i, int kw, Tag new_tag);
  /// The per-auction logical update for the queried keyword: peel boundary
  /// members, then bump the increment/decrement adjustment variables.
  void ApplyLogicalUpdate(int kw);
  /// Threshold Algorithm for one slot: top `depth` bidders by
  /// ctr(i, slot) * bid_i(kw), descending (score, id).
  void TopForSlot(SlotIndex slot, int kw, int depth,
                  std::vector<std::pair<double, AdvertiserId>>* out);

  EngineConfig config_;
  Workload workload_;
  QueryGenerator query_gen_;
  Rng user_rng_;
  const MatrixClickModel* model_ = nullptr;  // owned by workload_
  int n_ = 0;
  int k_ = 0;
  int num_keywords_ = 0;

  /// Static per-slot (ctr, advertiser) lists, descending — the w_ij sorted
  /// lists of Section IV-A.
  std::vector<std::vector<std::pair<double, AdvertiserId>>> ctr_sorted_;
  std::vector<KwState> keywords_;
  /// members_[kw][i]: current list/stored-bid of advertiser i on keyword kw.
  std::vector<std::vector<Member>> members_;
  std::priority_queue<Trigger, std::vector<Trigger>, std::greater<Trigger>>
      triggers_;
  std::vector<uint32_t> bidder_gen_;

  // Epoch-stamped scratch for TA seen-sets and candidate dedup.
  std::vector<int64_t> seen_epoch_;
  int64_t epoch_ = 0;
  std::vector<int64_t> candidate_epoch_;

  AuctionOutcome outcome_;
  int64_t auctions_run_ = 0;
  Money total_revenue_ = 0;
  Stats stats_;
};

}  // namespace ssa

#endif  // SSA_STRATEGY_LOGICAL_ROI_H_
