#ifndef SSA_AUCTION_ROI_PLANNER_H_
#define SSA_AUCTION_ROI_PLANNER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "auction/account.h"
#include "auction/query.h"
#include "matching/allocation.h"
#include "core/click_model.h"
#include "core/formula.h"
#include "strategy/roi_bidder.h"
#include "strategy/strategy.h"
#include "util/common.h"
#include "util/topk_heap.h"

namespace ssa {

/// Monotone work totals of the engine's planner.
struct RoiPlannerStats {
  /// Auctions planned logically.
  int64_t logical_plans = 0;
  /// Threshold Algorithm sorted accesses (weight view and bid view).
  int64_t probes = 0;
  /// List membership changes: reclassifications and cap/zero boundaries.
  int64_t list_moves = 0;
  int64_t triggers_fired = 0;
  /// Full O(n·kw) rebuilds of the lists from the strategies.
  int64_t rebuilds = 0;
  /// Times a non-empty sorted weight prefix (the ctr order, for plain
  /// Click without purchases) ran out under the Threshold Algorithm and was
  /// doubled (building an order's first prefix is not counted).
  int64_t ctr_extensions = 0;
};

/// The paper's RHTALU (Section IV) as the logical planner of
/// ShardedAuctionEngine. It covers every advertiser of the engine's
/// qualifying shards (Qualifies: every bidder offers the RoiBidder view of
/// strategy/roi_bidder.h — native RoiStrategy bidders and Figure 5
/// ProgramStrategy bidders alike) and answers "the covered bidders' per-slot
/// top-(k+1) for this query" without running the programs, compiling their
/// bids or filling the revenue matrix:
///
///  * **Scores.** A query is planned when exactly one keyword is relevant
///    and every member bids that keyword's one formula (Click,
///    Click ∧ Slot(j), Purchase, ...), a formula that pays +0.0 to a bidder
///    without a slot. A member's bid table then pays its bid on that
///    formula and +0.0 on every other row, so its expected payment in slot
///    j is OneFormulaPayment (core/compiled_bids.h) of the formula's truth
///    mask in j, the bid and the member's (click, purchase) distribution in
///    j: bitwise the compiled kernel's matrix entry. Under plain Click
///    without purchases that is ctr × bid.
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
///    alternates between a weight order and the bid view (buckets in
///    descending effective bid). A member's weight in slot j is its score
///    at bid 1 for the formula's mask in j; the members of one (slot, mask)
///    share one order, a sorted prefix of their (weight desc, id asc)
///    order, empty at construction and grown on demand (kCtrPrefix entries
///    the first time, then doubled). Sorted access stops once the
///    (k+1)-th best score is *strictly* above a bound on every unseen
///    member's score. When each member's score has at most one nonzero
///    outcome term (plain Click without purchases, Purchase), it is exactly
///    weight × bid, and the bound is w_last × bid_last; otherwise the bound
///    is inflated to stay safe under rounding (ARCHITECTURE §8).
///
/// The selected entries go straight into the coordinator's merged
/// TopKHeapSet under its strict (weight, id) order, and the coordinator
/// takes the members' rows (RH's candidates, VCG's pool) from Payments, so
/// winner determination and every pricing rule see exactly the entries the
/// brute shard phase would have produced: the trajectory is bitwise-identical.
///
/// The strategies stay the only checkpointed state. The planner is in one
/// of three states: *stale* (the strategies hold the bids; the lists must
/// be rebuilt before the next logical plan), *synced* (both agree) and
/// *ahead* (logical updates moved the lists past the strategies). The
/// engine calls WriteBack() before anything reads the strategies and
/// Invalidate() after anything moves them. WriteBack leaves each strategy
/// exactly as running its program on the last planned query would have
/// (RoiBidder::WriteRoiBids); for the winners of that query's auction it
/// passes the ROI inputs they had before settlement (BeforeSettle).
///
/// A what-if read is a plan in read mode: Prepare, then BeginRead .. EndRead
/// in place of Advance. Its bid step goes into an undo journal that EndRead
/// rolls back, so it moves no value.
class RoiPlanner {
 public:
  /// Whether advertisers [begin, end) can be planned logically: every
  /// strategy there offers a RoiBidder view over `num_keywords` keywords.
  static bool Qualifies(
      AdvertiserId begin, AdvertiserId end,
      const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
      int num_keywords);

  /// A planner over `members` (ascending global ids, at least one, each in a
  /// range that Qualifies). Finds each keyword's common formula and its slot masks.
  /// `strategies` and `model` must outlive the planner.
  RoiPlanner(std::vector<AdvertiserId> members,
             const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
             const MatrixClickModel& model, int num_keywords);

  /// Whether advertiser i is planned by this planner.
  bool Covers(AdvertiserId i) const {
    return views_[static_cast<size_t>(i)] != nullptr;
  }

  /// The keyword a logical plan of `query` updates — the only one with
  /// positive relevance, which must exceed the 0.7 bid threshold, and on
  /// which every member bids one common formula that pays nothing without
  /// a slot — or -1.
  int PlannableKeyword(const Query& query) const;

  /// Makes the lists current for an auction at `query.time`: rebuilds them
  /// from the strategies when stale, or when the time precedes the lists'
  /// (the last plan's or rebuild's; underspending is absorbing only forward
  /// in time) after writing back the bids they stand for, so no value
  /// moves. Returns false when the state cannot be bucketed (a
  /// non-integral, NaN or out-of-range bid or cap, a negative spend rate,
  /// or a member whose view or keyword formula changed in a restore); the
  /// members then plan by brute force.
  bool Prepare(const Query& query,
               const std::vector<AdvertiserAccount>& accounts);

  /// The per-auction bid step, after a successful Prepare: fires due
  /// triggers, then applies the logical update on keyword `kw`, and moves
  /// the planner's clock to `query.time`.
  void Advance(const Query& query, int kw,
               const std::vector<AdvertiserAccount>& accounts);

  /// A read's bid step, after a successful Prepare: moves the lists exactly
  /// as Advance would, into an undo journal, and leaves the clock. The due
  /// triggers are popped without being rescheduled (a fired trigger's
  /// reschedule is never due in the same auction). The caller then runs
  /// SelectTop and Payments, and must call EndRead.
  void BeginRead(const Query& query, int kw,
                 const std::vector<AdvertiserAccount>& accounts);
  /// Rolls the read's journal back in reverse, so every bucket list keeps
  /// its exact order, pushes the popped triggers back and restores the work
  /// totals: a read counts nothing but Prepare's rebuild and the
  /// weight-order prefixes it grew (ctr_extensions), which later plans share.
  void EndRead();

  /// Offers the members' per-slot top entries into `topk` (k heaps of
  /// capacity k + 1, which may already hold other bidders' entries): each
  /// heap ends holding the strict-(weight, id) top of its previous entries
  /// and the members' positive scores.
  void SelectTop(int kw, TopKHeapSet* topk);

  /// Member i's row on kw after SelectTop: its k slot payments
  /// (its payment without a slot is +0.0), each bitwise the compiled
  /// kernel's.
  void Payments(AdvertiserId i, int kw, double* out) const;

  /// Called before the engine settles an auction with `allocation` for
  /// `query`: while the lists are ahead, keeps the settled members' ROI
  /// inputs on the query's keyword, which WriteBack needs as the last
  /// planned query saw them.
  void BeforeSettle(const Query& query, const Allocation& allocation,
                    const std::vector<AdvertiserAccount>& accounts);

  /// Member i's account changed in settlement: re-derives its lists and
  /// trigger (no-op while stale; the next rebuild reads the accounts).
  void OnSettled(AdvertiserId i, int64_t time,
                 const std::vector<AdvertiserAccount>& accounts);

  /// Writes the effective bids into the strategies when the lists are
  /// ahead of them. O(n·kw); a no-op otherwise.
  void WriteBack(const std::vector<AdvertiserAccount>& accounts);
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

  /// One list move of a read, with the node's links before it: undone in
  /// reverse, each move finds its old neighbours exactly as it left them.
  struct UndoMove {
    int32_t kw;
    int32_t member;
    Tag tag;
    uint16_t stored;
    int32_t next, prev, cap_next, cap_prev;
  };

  /// One entry of a weight order: (weight, global id).
  using WeightEntry = std::pair<double, int32_t>;

  /// The members' weights in one slot for one formula mask, and the sorted
  /// prefix of their (weight desc, id asc) order. Built at first read.
  struct WeightOrder {
    SlotIndex slot = 0;
    uint8_t mask = 0;
    bool built = false;
    /// Every member's score is exactly weight × bid.
    bool exact = true;
    /// Member i's weight is source[i * stride]: the click row when the
    /// weights are the click probabilities bit for bit, else `own`.
    const double* source = nullptr;
    size_t stride = 0;
    std::vector<double> own;
    std::vector<WeightEntry> prefix;
  };

  /// The ROI inputs of one settled member on the settled query's keyword,
  /// as they were before settlement.
  struct SettledInputs {
    AdvertiserId member;
    Money value_gained;
    Money spent;
  };

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
  static double Weight(const WeightOrder& order, int32_t m) {
    return order.source[static_cast<size_t>(m) * order.stride];
  }
  /// OneFormulaPayment of member m in `slot` for `mask` at `bid`.
  double Payment(uint8_t mask, int32_t m, SlotIndex slot, double bid) const;

  static Spend SpendAt(const AdvertiserAccount& account, int64_t time);
  bool Rebuild(int64_t time, const std::vector<AdvertiserAccount>& accounts);
  /// Inserts member m of keyword kw into its tag's bid bucket (and the cap
  /// index when incrementing).
  void Link(int kw, int32_t m);
  void Unlink(int kw, int32_t m);
  /// Puts member m back between the neighbours `undo` recorded.
  void Relink(const UndoMove& undo);
  void Move(int kw, int32_t m, Tag to);
  /// Figure 5's predicate for one keyword, given the bidder's spend state.
  Tag Desired(const AdvertiserAccount& account, Spend spend, int kw,
              int64_t bid, double max_roi, double min_roi) const;
  void Classify(int32_t m, int64_t time, const AdvertiserAccount& account);
  void ScheduleTrigger(int32_t m, int64_t time,
                       const AdvertiserAccount& account);
  /// The bid step of Advance and BeginRead: fires the triggers due at
  /// `query.time` (a read pops them into due_ without rescheduling), then
  /// applies the logical update on keyword `kw`.
  void BidStep(const Query& query, int kw,
               const std::vector<AdvertiserAccount>& accounts);
  void ApplyLogicalUpdate(int kw);
  void SelectTopForSlot(SlotIndex slot, int kw, TopKHeapSet* topk);
  /// Computes the members' weights of `order`, its exactness and source.
  void BuildWeights(WeightOrder* order);
  /// Appends the next chunk of the order's (weight desc, id asc) order to
  /// its prefix: kCtrPrefix entries into an empty prefix, else doubling it.
  void ExtendOrder(WeightOrder* order);
  /// Writes member m's effective bids back with `account` as the inputs.
  void WriteMember(int32_t m, const AdvertiserAccount& account);

  /// Population size: nodes and views_ are indexed by global id.
  int32_t size_;
  int num_keywords_;
  int num_slots_;
  const MatrixClickModel& model_;
  /// The population's click rows, contiguous: advertiser i's ctr in slot j
  /// is click_[i * num_slots_ + j].
  const double* click_;
  /// The engine's strategies, re-asked for their views at each rebuild.
  const std::vector<std::unique_ptr<BiddingStrategy>>& population_;
  /// Global ids of the members, ascending.
  std::vector<AdvertiserId> members_;
  /// Indexed by global id; null for advertisers the planner does not cover.
  std::vector<RoiBidder*> views_;
  /// Per keyword: whether queries on it are planned, and the formula every
  /// member bids on it.
  std::vector<char> plannable_keyword_;
  std::vector<Formula> keyword_formula_;
  /// order_of_[kw * num_slots_ + j]: index into orders_ of keyword kw's
  /// formula in slot j, or -1 when the formula never pays there.
  std::vector<int32_t> order_of_;
  std::vector<WeightOrder> orders_;

  State state_ = State::kStale;
  int64_t last_time_ = 0;
  /// The last query planned logically, and the members its auction settled.
  Query last_query_;
  std::vector<SettledInputs> settled_;
  // WriteBack scratch: one member's bids, and a settled member's account
  // as the last planned query saw it.
  std::vector<Money> bid_scratch_;
  AdvertiserAccount settled_account_;
  uint64_t mask_ = 0;  // bucket count - 1
  std::vector<KeywordLists> lists_;
  // Per (keyword, advertiser) node: tag, stored key (bid - adjustment,
  // modulo 2^16), ceil(max bid), links.
  std::vector<Tag> tag_;
  std::vector<uint16_t> stored_;
  std::vector<uint16_t> cap_;
  std::vector<int32_t> next_, prev_, cap_next_, cap_prev_;
  /// Pending triggers, a min-heap under std::greater.
  std::vector<Trigger> triggers_;
  std::vector<uint32_t> gen_;

  /// A read in progress (BeginRead .. EndRead): its list moves, its
  /// keyword's adjustments, the work totals before it and the triggers it
  /// popped. Empty and unused outside reads; the tests of `reading_` in
  /// Move and BidStep are all a plan pays.
  bool reading_ = false;
  std::vector<UndoMove> journal_;
  int read_kw_ = -1;
  int64_t read_adjustment_[3] = {0, 0, 0};
  RoiPlannerStats read_stats_;
  std::vector<Trigger> due_;

  /// The bid view of one auction: first member of each non-empty bucket
  /// with its effective bid, descending.
  std::vector<std::pair<int32_t, int64_t>> levels_;
  std::vector<uint32_t> seen_;  // TA seen-set, epoch-stamped
  uint32_t epoch_ = 0;

  RoiPlannerStats stats_;
};

}  // namespace ssa

#endif  // SSA_AUCTION_ROI_PLANNER_H_
