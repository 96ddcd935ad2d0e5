#include "auction/roi_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "strategy/roi_strategy.h"

namespace ssa {
namespace {

/// Largest bid or cap the buckets cover; beyond it the members plan by brute
/// force (the Section V workload caps bids at 50 cents). Effective bids fit
/// 16 bits, so stored keys are kept modulo 2^16.
constexpr int64_t kMaxBucketBid = (1 << 16) - 1;

/// Length of each slot's first sorted ctr prefix, built when the Threshold
/// Algorithm first reads the slot; it doubles a prefix whenever it reaches
/// the end (ExtendCtrOrder).
constexpr int32_t kCtrPrefix = 128;

/// The ctr order's strict (ctr desc, id asc) comparison.
bool CtrBefore(const std::pair<double, int32_t>& a,
               const std::pair<double, int32_t>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

}  // namespace

RoiPlanner::Spend RoiPlanner::SpendAt(const AdvertiserAccount& account,
                                      int64_t time) {
  if (account.Underspending(time)) return Spend::kUnder;
  if (account.Overspending(time)) return Spend::kOver;
  return Spend::kEq;
}

bool RoiPlanner::Qualifies(
    AdvertiserId begin, AdvertiserId end,
    const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
    const MatrixClickModel& model, int num_keywords) {
  for (AdvertiserId i = begin; i < end; ++i) {
    const auto* s = dynamic_cast<const RoiStrategy*>(strategies[i].get());
    if (s == nullptr ||
        static_cast<int>(s->tentative_bids().size()) != num_keywords) {
      return false;
    }
  }
  if (begin < end && model.PurchaseRow(begin) != nullptr) {
    const double* purchase = model.PurchaseRow(begin);
    const size_t count = static_cast<size_t>(end - begin) * model.num_slots();
    for (size_t e = 0; e < count; ++e) {
      if (purchase[e] != 0.0) return false;
    }
  }
  return true;
}

RoiPlanner::RoiPlanner(
    std::vector<AdvertiserId> members,
    const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
    const MatrixClickModel& model, int num_keywords)
    : size_(static_cast<int32_t>(strategies.size())),
      num_keywords_(num_keywords),
      num_slots_(model.num_slots()),
      click_(size_ > 0 ? model.ClickRow(0) : nullptr),
      members_(std::move(members)),
      strategies_(strategies.size(), nullptr) {
  // Strategies built from one workload share their formula vector, so each
  // distinct vector is checked once.
  click_keyword_.assign(num_keywords_, 1);
  const std::vector<Formula>* checked = nullptr;
  for (const AdvertiserId i : members_) {
    strategies_[i] = static_cast<RoiStrategy*>(strategies[i].get());
    const std::vector<Formula>& formulas = strategies_[i]->keyword_formulas();
    if (&formulas == checked) continue;
    checked = &formulas;
    for (int kw = 0; kw < num_keywords_; ++kw) {
      if (formulas[kw].op() != Formula::Op::kClick) click_keyword_[kw] = 0;
    }
  }

  // Every slot's ctr prefix starts empty; the Threshold Algorithm builds it
  // on first read.
  ctr_order_.resize(num_slots_);
  lists_.resize(num_keywords_);
  seen_.assign(size_, 0);
}

int RoiPlanner::PlannableKeyword(const Query& query) const {
  if (static_cast<int>(query.relevance.size()) != num_keywords_) return -1;
  int kw = -1;
  for (int q = 0; q < num_keywords_; ++q) {
    if (query.relevance[q] > 0) {
      if (kw >= 0) return -1;  // more than one relevant keyword
      kw = q;
    }
  }
  if (kw < 0 || query.relevance[kw] <= 0.7 || !click_keyword_[kw]) return -1;
  return kw;
}

bool RoiPlanner::Prepare(const Query& query,
                         const std::vector<AdvertiserAccount>& accounts) {
  if (state_ != State::kStale && query.time < last_time_) {
    WriteBack();
    state_ = State::kStale;
  }
  if (state_ == State::kStale && !Rebuild(query.time, accounts)) return false;
  last_time_ = std::max(last_time_, query.time);
  return true;
}

bool RoiPlanner::Rebuild(int64_t time,
                         const std::vector<AdvertiserAccount>& accounts) {
  // Bucketing needs integral bids and caps in range, and triggers need
  // monotone spend targets; anything else stays on the brute path.
  cap_.resize(static_cast<size_t>(num_keywords_) * size_);
  int64_t top = 0;
  for (const AdvertiserId m : members_) {
    const AdvertiserAccount& a = accounts[m];
    if (!std::isfinite(a.amount_spent) || !std::isfinite(a.target_spend_rate) ||
        a.target_spend_rate < 0) {
      return false;
    }
    const std::vector<Money>& bids = strategies_[m]->tentative_bids();
    for (int kw = 0; kw < num_keywords_; ++kw) {
      const double bid = bids[kw];
      const double cap = a.max_bid[kw];
      if (!(bid >= 0 && bid <= kMaxBucketBid && bid == std::floor(bid)) ||
          std::signbit(bid) || !(cap <= kMaxBucketBid) || std::isnan(cap)) {
        return false;
      }
      const int64_t ceil_cap =
          cap > 0 ? static_cast<int64_t>(std::ceil(cap)) : 0;
      cap_[Node(kw, m)] = static_cast<uint16_t>(ceil_cap);
      top = std::max({top, static_cast<int64_t>(bid), ceil_cap});
    }
  }
  // The members' nodes are written in full below; the arrays are allocated
  // at the first rebuild, so a planner that never plans never holds them.
  const size_t nodes = static_cast<size_t>(num_keywords_) * size_;
  if (tag_.size() != nodes) {
    tag_.resize(nodes);
    stored_.resize(nodes);
    next_.resize(nodes);
    prev_.resize(nodes);
    cap_next_.resize(nodes);
    cap_prev_.resize(nodes);
  }
  uint64_t width = 1;
  while (width <= static_cast<uint64_t>(top)) width <<= 1;
  mask_ = width - 1;
  for (KeywordLists& lists : lists_) {
    for (int t = 0; t < 3; ++t) {
      lists.adjustment[t] = 0;
      lists.head[t].assign(width, -1);
    }
    lists.cap_head.assign(width, -1);
  }
  triggers_ = {};
  gen_.assign(size_, 0);

  for (const AdvertiserId m : members_) {
    const AdvertiserAccount& account = accounts[m];
    const std::vector<Money>& bids = strategies_[m]->tentative_bids();
    const Spend spend = SpendAt(account, time);
    double max_roi = account.Roi(0), min_roi = account.Roi(0);
    for (int kw = 1; kw < num_keywords_; ++kw) {
      max_roi = std::max(max_roi, account.Roi(kw));
      min_roi = std::min(min_roi, account.Roi(kw));
    }
    for (int kw = 0; kw < num_keywords_; ++kw) {
      const size_t node = Node(kw, m);
      stored_[node] = static_cast<uint16_t>(bids[kw]);
      tag_[node] =
          Desired(account, spend, kw, stored_[node], max_roi, min_roi);
      Link(kw, m);
    }
    ScheduleTrigger(m, time, account);
  }
  state_ = State::kSynced;
  last_time_ = time;
  ++stats_.rebuilds;
  return true;
}

void RoiPlanner::Link(int kw, int32_t m) {
  const size_t node = Node(kw, m);
  const size_t base = Node(kw, 0);
  KeywordLists& lists = lists_[kw];
  int32_t& head = lists.head[tag_[node]][Bucket(stored_[node])];
  next_[node] = head;
  prev_[node] = -1;
  if (head >= 0) prev_[base + head] = m;
  head = m;
  if (tag_[node] != kInc) return;
  // Cap index: the member leaves the increment list when its effective bid
  // reaches the cap, i.e. when the adjustment equals cap - stored.
  int32_t& cap_head =
      lists.cap_head[Bucket(int64_t{cap_[node]} - stored_[node])];
  cap_next_[node] = cap_head;
  cap_prev_[node] = -1;
  if (cap_head >= 0) cap_prev_[base + cap_head] = m;
  cap_head = m;
}

void RoiPlanner::Unlink(int kw, int32_t m) {
  const size_t node = Node(kw, m);
  const size_t base = Node(kw, 0);
  KeywordLists& lists = lists_[kw];
  if (prev_[node] >= 0) {
    next_[base + prev_[node]] = next_[node];
  } else {
    lists.head[tag_[node]][Bucket(stored_[node])] = next_[node];
  }
  if (next_[node] >= 0) prev_[base + next_[node]] = prev_[node];
  if (tag_[node] != kInc) return;
  if (cap_prev_[node] >= 0) {
    cap_next_[base + cap_prev_[node]] = cap_next_[node];
  } else {
    lists.cap_head[Bucket(int64_t{cap_[node]} - stored_[node])] =
        cap_next_[node];
  }
  if (cap_next_[node] >= 0) cap_prev_[base + cap_next_[node]] = cap_prev_[node];
}

void RoiPlanner::Move(int kw, int32_t m, Tag to) {
  const size_t node = Node(kw, m);
  const int64_t effective = Eff(kw, m);
  Unlink(kw, m);
  tag_[node] = to;
  stored_[node] =
      static_cast<uint16_t>(effective - lists_[kw].adjustment[to]);
  Link(kw, m);
  ++stats_.list_moves;
}

RoiPlanner::Tag RoiPlanner::Desired(const AdvertiserAccount& account,
                                    Spend spend, int kw, int64_t bid,
                                    double max_roi, double min_roi) const {
  const double roi = account.Roi(kw);
  const double b = static_cast<double>(bid);
  if (spend == Spend::kUnder && roi == max_roi && b < account.max_bid[kw]) {
    return kInc;
  }
  if (spend == Spend::kOver && roi == min_roi && b > 0) return kDec;
  return kConst;
}

void RoiPlanner::Classify(int32_t m, int64_t time,
                          const AdvertiserAccount& account) {
  double max_roi = account.Roi(0), min_roi = account.Roi(0);
  for (int kw = 1; kw < num_keywords_; ++kw) {
    max_roi = std::max(max_roi, account.Roi(kw));
    min_roi = std::min(min_roi, account.Roi(kw));
  }
  const Spend spend = SpendAt(account, time);
  for (int kw = 0; kw < num_keywords_; ++kw) {
    const Tag desired =
        Desired(account, spend, kw, Eff(kw, m), max_roi, min_roi);
    if (desired != tag_[Node(kw, m)]) Move(kw, m, desired);
  }
}

void RoiPlanner::ScheduleTrigger(int32_t m, int64_t time,
                                 const AdvertiserAccount& account) {
  // With a non-negative rate, underspending is absorbing until the next
  // charge, and a zero rate makes the state time-independent.
  const Spend spend = SpendAt(account, time);
  if (spend == Spend::kUnder || account.target_spend_rate == 0) return;
  int64_t at = time + 1;
  if (spend == Spend::kOver) {
    // Overspending ends near amount_spent / rate. Fire two auctions early so
    // float error can never leave a stale membership at the auction where
    // the state flips; the handler re-checks and re-schedules.
    const double boundary =
        std::floor(account.amount_spent / account.target_spend_rate) - 1;
    if (boundary >= 4e18) return;  // never within an int64 auction count
    at = std::max(at, static_cast<int64_t>(boundary));
  }
  triggers_.push(Trigger{at, m, gen_[m]});
}

void RoiPlanner::Advance(const Query& query, int kw,
                         const std::vector<AdvertiserAccount>& accounts) {
  SSA_CHECK(state_ != State::kStale);
  const int64_t time = query.time;
  while (!triggers_.empty() && triggers_.top().time <= time) {
    const Trigger trigger = triggers_.top();
    triggers_.pop();
    if (gen_[trigger.member] != trigger.gen) continue;  // superseded
    ++stats_.triggers_fired;
    const AdvertiserAccount& account = accounts[trigger.member];
    Classify(trigger.member, time, account);
    ScheduleTrigger(trigger.member, time, account);
  }
  ApplyLogicalUpdate(kw);
  state_ = State::kAhead;
  ++stats_.logical_plans;
}

void RoiPlanner::ApplyLogicalUpdate(int kw) {
  KeywordLists& lists = lists_[kw];
  // Figure 5's guard `bid < maxbid`: members whose bid reached the cap leave
  // the increment list before the shared +1. Cap keys of increment members
  // span fewer than mask_ + 1 values from the adjustment up, so this bucket
  // holds exactly the members at their cap.
  int32_t& at_cap = lists.cap_head[Bucket(lists.adjustment[kInc])];
  while (at_cap >= 0) Move(kw, at_cap, kConst);
  lists.adjustment[kInc] += 1;
  // The guard `bid > 0`: decrement members at zero leave before the -1.
  int32_t& at_zero = lists.head[kDec][Bucket(-lists.adjustment[kDec])];
  while (at_zero >= 0) Move(kw, at_zero, kConst);
  lists.adjustment[kDec] -= 1;
}

void RoiPlanner::SelectTop(int kw, TopKHeapSet* topk) {
  // The bid view is shared by every slot: the non-empty buckets in
  // descending effective bid. Bids span [0, mask_], so each list maps each
  // effective bid to exactly one bucket.
  const KeywordLists& lists = lists_[kw];
  levels_.clear();
  for (int64_t eff = static_cast<int64_t>(mask_); eff >= 0; --eff) {
    for (int t = 0; t < 3; ++t) {
      const int32_t head =
          lists.head[t][Bucket(eff - lists.adjustment[t])];
      if (head >= 0) levels_.emplace_back(head, eff);
    }
  }
  for (SlotIndex j = 0; j < num_slots_; ++j) SelectTopForSlot(j, kw, topk);
}

void RoiPlanner::SelectTopForSlot(SlotIndex slot, int kw, TopKHeapSet* topk) {
  if (++epoch_ == 0) {  // wrapped: clear the stamps once
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const size_t base = Node(kw, 0);
  // Each side knows one factor of the score: a ctr entry carries its ctr,
  // and every member of a bid level has that level's effective bid.
  auto consider = [&](int32_t m, double ctr, int64_t bid) {
    seen_[m] = epoch_;
    const double score = ctr * static_cast<double>(bid);
    if (score > 0.0) topk->Offer(slot, score, m);
  };

  const std::vector<CtrEntry>& ctrs = ctr_order_[slot];
  size_t ctr_pos = 0;
  size_t level = 0;
  int32_t member = levels_.empty() ? -1 : levels_[0].first;
  double last_ctr = std::numeric_limits<double>::infinity();
  for (;;) {
    if (ctr_pos == ctrs.size() && ctr_pos < members_.size()) {
      ExtendCtrOrder(slot);
    }
    if (ctr_pos < ctrs.size()) {
      const auto [ctr, m] = ctrs[ctr_pos];
      last_ctr = ctr;
      if (seen_[m] != epoch_) consider(m, ctr, Eff(kw, m));
      ++ctr_pos;
      ++stats_.probes;
    }
    if (member < 0) break;  // the bid view is exhausted: everyone was seen
    const int64_t bid = levels_[level].second;
    if (seen_[member] != epoch_) consider(member, Ctr(member, slot), bid);
    ++stats_.probes;
    member = next_[base + member];
    if (member < 0 && ++level < levels_.size()) member = levels_[level].first;
    // Every unseen member scores at most last_ctr * bid (products of
    // non-negatives round monotonically). Stop only when the weakest kept
    // entry beats that bound strictly: an unseen member scoring exactly the
    // bound with a larger id would outrank it.
    if (bid <= 0) break;  // unseen members all score zero
    if (topk->size(slot) == topk->capacity() &&
        topk->entries(slot)[0].weight > last_ctr * static_cast<double>(bid)) {
      break;
    }
  }
}

void RoiPlanner::ExtendCtrOrder(SlotIndex slot) {
  // The next chunk is the best `chunk` members after the prefix's last
  // entry, kept in a bounded heap at the prefix's tail whose front is the
  // chunk's latest entry; sorting the heap appends them in order. One pass
  // over the members, and no memory beyond the grown prefix.
  std::vector<CtrEntry>& order = ctr_order_[slot];
  const size_t start = order.size();
  const size_t chunk = std::max<size_t>(start, kCtrPrefix);
  order.reserve(start + chunk);  // `heap` stays valid
  const auto heap = order.begin() + static_cast<std::ptrdiff_t>(start);
  for (const AdvertiserId i : members_) {
    const CtrEntry entry{Ctr(i, slot), i};
    if (start > 0 && !CtrBefore(order[start - 1], entry)) continue;
    if (order.size() - start < chunk) {
      order.push_back(entry);
      std::push_heap(heap, order.end(), CtrBefore);
    } else if (CtrBefore(entry, *heap)) {
      std::pop_heap(heap, order.end(), CtrBefore);
      order.back() = entry;
      std::push_heap(heap, order.end(), CtrBefore);
    }
  }
  std::sort_heap(heap, order.end(), CtrBefore);
  if (start > 0) ++stats_.ctr_extensions;
}

void RoiPlanner::OnSettled(AdvertiserId i, int64_t time,
                           const std::vector<AdvertiserAccount>& accounts) {
  if (state_ == State::kStale) return;
  ++gen_[i];  // any queued trigger was computed from the old spend
  Classify(i, time, accounts[i]);
  ScheduleTrigger(i, time, accounts[i]);
}

void RoiPlanner::WriteBack() {
  if (state_ != State::kAhead) return;
  for (const AdvertiserId m : members_) {
    for (int kw = 0; kw < num_keywords_; ++kw) {
      strategies_[m]->set_tentative_bid(kw, static_cast<Money>(Eff(kw, m)));
    }
  }
  state_ = State::kSynced;
}

}  // namespace ssa
