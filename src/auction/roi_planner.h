#ifndef SSA_AUCTION_ROI_PLANNER_H_
#define SSA_AUCTION_ROI_PLANNER_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "auction/account.h"
#include "auction/query_gen.h"
#include "core/click_model.h"
#include "strategy/strategy.h"
#include "util/common.h"
#include "util/topk_heap.h"

namespace ssa {

class RoiStrategy;

/// Monotone work totals of the engine's planner.
struct RoiPlannerStats {
  /// Auctions planned logically.
  int64_t logical_plans = 0;
  /// Threshold Algorithm sorted accesses (ctr view and bid view).
  int64_t probes = 0;
  /// List membership changes: reclassifications and cap/zero boundaries.
  int64_t list_moves = 0;
  int64_t triggers_fired = 0;
  /// Full O(n·kw) rebuilds of the lists from the strategies.
  int64_t rebuilds = 0;
  /// Times a slot's non-empty sorted ctr prefix ran out under the Threshold
  /// Algorithm and was doubled (building a slot's first prefix is not
  /// counted).
  int64_t ctr_extensions = 0;
};

/// The paper's RHTALU (Section IV) as the logical planner of
/// ShardedAuctionEngine. It covers every advertiser of the engine's
/// qualifying shards (Qualifies: all native ROI heuristic bidders,
/// RoiStrategy, on a click model without purchases) and answers "the
/// covered bidders' per-slot top-(k+1) for this query" without running the
/// programs, compiling their bids or filling the revenue matrix:
///
///  * **Logical updates** (Section IV-B): per keyword, every bidder sits in
///    an increment, decrement or constant list. A list stores each member's
///    bid minus the list's adjustment variable, so Figure 5's "+1 to every
///    underspender on this keyword" is one adjustment bump. ROI bids start
///    at 0 and move by ±1, so the stored keys are integer cents and each
///    list is an array of buckets indexed by key modulo a power of two
///    larger than any reachable bid: a move between lists is O(1). Members
///    reaching their cap (or zero) leave for the constant list before the
///    bump, found through a second bucket index keyed by cap − stored bid.
///  * **Triggers** (Section IV-B): spend only changes when a bidder is
///    charged, so the auction time at which a losing overspender stops
///    overspending is known in advance and queued; underspending is
///    absorbing. Memberships change only when a trigger fires or the bidder
///    is settled.
///  * **Threshold Algorithm** (Section IV-A): per slot, sorted access
///    alternates between the slot's ctr order and the bid view (buckets in
///    descending effective bid), until the (k+1)-th best score is *strictly*
///    above ctr_last × bid_last. The ctr order is a sorted prefix of the
///    slot's (ctr desc, id asc) order, empty at construction; when the
///    Threshold Algorithm reaches its end, the next chunk (kCtrPrefix
///    entries the first time, then the prefix's length) is selected and
///    sorted in place. The prefix grows only as far as the Threshold
///    Algorithm reads, and the bound keeps falling.
///
/// The selected entries go straight into the coordinator's merged
/// TopKHeapSet under its strict (weight, id) order, so winner determination
/// and pricing see exactly the entries the brute shard phase would have
/// produced: the trajectory is bitwise-identical.
///
/// The strategies' tentative bids stay the only checkpointed state. The
/// planner is in one of three states: *stale* (the strategies hold the
/// bids; the lists must be rebuilt before the next logical plan), *synced*
/// (both agree) and *ahead* (logical updates moved the lists past the
/// strategies). The engine calls WriteBack() before anything reads the
/// strategies and Invalidate() after anything moves them.
class RoiPlanner {
 public:
  /// Whether advertisers [begin, end) can be planned logically: every
  /// strategy there is a RoiStrategy over `num_keywords` keywords, and the
  /// click model's purchase probability is zero on the range (a plain Click
  /// bid's expected revenue is then exactly ctr × bid).
  static bool Qualifies(
      AdvertiserId begin, AdvertiserId end,
      const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
      const MatrixClickModel& model, int num_keywords);

  /// A planner over `members` (ascending global ids, each in a range that
  /// Qualifies). Builds the per-slot ctr prefixes.
  RoiPlanner(std::vector<AdvertiserId> members,
             const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
             const MatrixClickModel& model, int num_keywords);

  /// Whether advertiser i is planned by this planner.
  bool Covers(AdvertiserId i) const {
    return strategies_[static_cast<size_t>(i)] != nullptr;
  }

  /// The keyword a logical plan of `query` updates — the only one with
  /// positive relevance, which must exceed the 0.7 bid threshold, and on
  /// which every member bids plain Click — or -1.
  int PlannableKeyword(const Query& query) const;

  /// Makes the lists current for an auction at `query.time`: rebuilds them
  /// from the strategies when stale, or when the time runs backwards
  /// (underspending is absorbing only forward in time). Returns false when
  /// the state cannot be bucketed (a non-integral or out-of-range bid or
  /// cap, or a negative spend rate); the members then plan by brute force.
  bool Prepare(const Query& query,
               const std::vector<AdvertiserAccount>& accounts);

  /// The per-auction bid step, after a successful Prepare: fires due
  /// triggers, then applies the logical update on keyword `kw`.
  void Advance(const Query& query, int kw,
               const std::vector<AdvertiserAccount>& accounts);

  /// Offers the members' per-slot top entries into `topk` (k heaps of
  /// capacity k + 1, which may already hold other bidders' entries): each
  /// heap ends holding the strict-(weight, id) top of its previous entries
  /// and the members' positive scores ctr × bid.
  void SelectTop(int kw, TopKHeapSet* topk);

  /// Current effective bid of member i (a global id) on kw.
  Money EffectiveBid(AdvertiserId i, int kw) const {
    return static_cast<Money>(Eff(kw, i));
  }

  /// Member i's account changed in settlement: re-derives its lists and
  /// trigger (no-op while stale; the next rebuild reads the accounts).
  void OnSettled(AdvertiserId i, int64_t time,
                 const std::vector<AdvertiserAccount>& accounts);

  /// Copies the effective bids into the strategies when the lists are
  /// ahead of them. O(n·kw); a no-op otherwise.
  void WriteBack();
  /// The strategies' bids moved (MakeBids, restore): the lists are stale.
  void Invalidate() { state_ = State::kStale; }

  const RoiPlannerStats& stats() const { return stats_; }

 private:
  enum class State { kStale, kSynced, kAhead };
  /// Spending relative to the target rate at an auction time.
  enum class Spend { kUnder, kEq, kOver };
  enum Tag : int8_t { kInc = 0, kDec = 1, kConst = 2 };

  /// Bucket heads of one keyword: the three bid lists and the cap index of
  /// the increment list, each mask_ + 1 buckets of intrusive lists.
  struct KeywordLists {
    int64_t adjustment[3] = {0, 0, 0};  // kConst stays 0
    std::vector<int32_t> head[3];
    std::vector<int32_t> cap_head;
  };

  struct Trigger {
    int64_t time;
    int32_t member;
    uint32_t gen;
    bool operator>(const Trigger& o) const {
      if (time != o.time) return time > o.time;
      return member > o.member;
    }
  };

  /// One entry of a slot's ctr order: (ctr, global id).
  using CtrEntry = std::pair<double, int32_t>;

  /// Nodes are indexed by global id, so a member needs no id translation;
  /// the entries of non-members are never linked.
  size_t Node(int kw, int32_t m) const {
    return static_cast<size_t>(kw) * static_cast<size_t>(size_) +
           static_cast<size_t>(m);
  }
  size_t Bucket(int64_t key) const {
    return static_cast<size_t>(static_cast<uint64_t>(key) & mask_);
  }
  /// Effective bid: stored key plus the list's adjustment, modulo 2^16
  /// (effective bids lie in [0, kMaxBucketBid]).
  int64_t Eff(int kw, int32_t m) const {
    const size_t node = Node(kw, m);
    return static_cast<uint16_t>(stored_[node] +
                                 lists_[kw].adjustment[tag_[node]]);
  }
  double Ctr(int32_t m, SlotIndex slot) const {
    return click_[static_cast<size_t>(m) * num_slots_ + slot];
  }

  static Spend SpendAt(const AdvertiserAccount& account, int64_t time);
  bool Rebuild(int64_t time, const std::vector<AdvertiserAccount>& accounts);
  /// Inserts member m of keyword kw into its tag's bid bucket (and the cap
  /// index when incrementing).
  void Link(int kw, int32_t m);
  void Unlink(int kw, int32_t m);
  void Move(int kw, int32_t m, Tag to);
  /// Figure 5's predicate for one keyword, given the bidder's spend state.
  Tag Desired(const AdvertiserAccount& account, Spend spend, int kw,
              int64_t bid, double max_roi, double min_roi) const;
  void Classify(int32_t m, int64_t time, const AdvertiserAccount& account);
  void ScheduleTrigger(int32_t m, int64_t time,
                       const AdvertiserAccount& account);
  void ApplyLogicalUpdate(int kw);
  void SelectTopForSlot(SlotIndex slot, int kw, TopKHeapSet* topk);
  /// Appends the next chunk of the slot's (ctr desc, id asc) order to its
  /// prefix: kCtrPrefix entries into an empty prefix, else doubling it.
  void ExtendCtrOrder(SlotIndex slot);

  /// Population size: nodes and strategies_ are indexed by global id.
  int32_t size_;
  int num_keywords_;
  int num_slots_;
  /// The population's click rows, contiguous: advertiser i's ctr in slot j
  /// is click_[i * num_slots_ + j].
  const double* click_;
  /// Global ids of the members, ascending.
  std::vector<AdvertiserId> members_;
  /// Indexed by global id; null for advertisers the planner does not cover.
  std::vector<RoiStrategy*> strategies_;
  /// click_keyword_[kw]: every member bids plain Click on kw.
  std::vector<char> click_keyword_;
  /// Per slot, a sorted prefix of the members' (ctr desc, id asc) order.
  std::vector<std::vector<CtrEntry>> ctr_order_;

  State state_ = State::kStale;
  int64_t last_time_ = 0;
  uint64_t mask_ = 0;  // bucket count - 1
  std::vector<KeywordLists> lists_;
  // Per (keyword, advertiser) node: tag, stored key (bid - adjustment,
  // modulo 2^16), ceil(max bid), links.
  std::vector<Tag> tag_;
  std::vector<uint16_t> stored_;
  std::vector<uint16_t> cap_;
  std::vector<int32_t> next_, prev_, cap_next_, cap_prev_;
  std::priority_queue<Trigger, std::vector<Trigger>, std::greater<Trigger>>
      triggers_;
  std::vector<uint32_t> gen_;

  /// The bid view of one auction: first member of each non-empty bucket
  /// with its effective bid, descending.
  std::vector<std::pair<int32_t, int64_t>> levels_;
  std::vector<uint32_t> seen_;  // TA seen-set, epoch-stamped
  uint32_t epoch_ = 0;

  RoiPlannerStats stats_;
};

}  // namespace ssa

#endif  // SSA_AUCTION_ROI_PLANNER_H_
