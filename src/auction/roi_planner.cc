#include "auction/roi_planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "core/bids_table.h"
#include "core/compiled_bids.h"

namespace ssa {
namespace {

/// Largest bid or cap the buckets cover; beyond it the members plan by brute
/// force (the Section V workload caps bids at 50 cents). Effective bids fit
/// 16 bits, so stored keys are kept modulo 2^16.
constexpr int64_t kMaxBucketBid = (1 << 16) - 1;

/// Length of each weight order's first sorted prefix, built when the
/// Threshold Algorithm first reads the order; it doubles a prefix whenever
/// it reaches the end (ExtendOrder).
constexpr int32_t kCtrPrefix = 128;

/// The Threshold Algorithm's bound on an unseen member's score when scores
/// are sums of up to four rounded products (ARCHITECTURE §8): weight × bid
/// inflated by a relative slack far above the few ulps that rounding can
/// move a score past it, plus an absolute slack above the error of
/// products that underflow.
constexpr double kBoundSlack = 1.0 + 0x1p-40;
constexpr double kUnderflowSlack = 0x1p-1000;

/// A weight order's strict (weight desc, id asc) comparison.
bool WeightBefore(const std::pair<double, int32_t>& a,
                  const std::pair<double, int32_t>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

/// Whether two doubles have the same bits (+0.0 and -0.0 differ).
bool SameBits(double a, double b) {
  return a == b && std::signbit(a) == std::signbit(b);
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
    int num_keywords) {
  for (AdvertiserId i = begin; i < end; ++i) {
    const RoiBidder* view = strategies[i]->roi_bidder();
    if (view == nullptr || view->roi_keywords() != num_keywords) return false;
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
      model_(model),
      click_(size_ > 0 ? model.ClickRow(0) : nullptr),
      population_(strategies),
      members_(std::move(members)),
      views_(strategies.size(), nullptr) {
  SSA_CHECK(!members_.empty());
  // A keyword is planned when every member bids one common formula on it.
  // Strategies built from one workload share their formula array
  // (RoiStrategy: one pointer compare per member) or at least their formula
  // nodes (ProgramStrategy: O(kw) node compares), so no strings are built.
  plannable_keyword_.assign(num_keywords_, 1);
  const Formula* checked = nullptr;  // the last array compared
  for (const AdvertiserId i : members_) {
    views_[i] = strategies[i]->roi_bidder();
    const Formula* formulas = views_[i]->roi_formulas();
    if (formulas == nullptr) {
      plannable_keyword_.assign(num_keywords_, 0);
    } else if (keyword_formula_.empty()) {
      keyword_formula_.assign(formulas, formulas + num_keywords_);
    } else if (formulas != checked) {
      for (int kw = 0; kw < num_keywords_; ++kw) {
        if (!formulas[kw].StructurallyEquals(keyword_formula_[kw])) {
          plannable_keyword_[kw] = 0;
        }
      }
    }
    checked = formulas;
  }
  keyword_formula_.resize(num_keywords_);

  // Each planned keyword's truth mask per slot state, from the compiled
  // kernel itself. The formula must pay +0.0 without a slot (the matrix's
  // unassigned entry, which the coordinator assumes for members; a
  // MatrixClickModel gives every advertiser the same unassigned
  // distribution, certainly no click), and the members of one (slot, mask)
  // share a weight order.
  order_of_.assign(static_cast<size_t>(num_keywords_) * num_slots_, -1);
  double unassigned[4];
  model.OutcomeDistribution(members_.front(), kNoSlot, unassigned);
  for (int kw = 0; kw < num_keywords_; ++kw) {
    if (!plannable_keyword_[kw]) continue;
    const Formula& formula = keyword_formula_[kw];
    if (!formula.DependsOnlyOnOwnPlacement()) {
      plannable_keyword_[kw] = 0;
      continue;
    }
    BidsTable table;
    table.AddBid(formula, 1.0);
    const CompiledBids compiled = CompiledBids::Compile(table, num_slots_);
    if (OneFormulaPayment(compiled.MasksForSlot(kNoSlot)[0], 1.0,
                          unassigned) != 0.0) {
      plannable_keyword_[kw] = 0;
      continue;
    }
    for (SlotIndex j = 0; j < num_slots_; ++j) {
      const uint8_t mask = compiled.MasksForSlot(j)[0];
      if (mask == 0) continue;  // never pays in slot j: every score is +0.0
      int32_t o = 0;
      while (o < static_cast<int32_t>(orders_.size()) &&
             (orders_[o].slot != j || orders_[o].mask != mask)) {
        ++o;
      }
      if (o == static_cast<int32_t>(orders_.size())) {
        orders_.emplace_back();
        orders_.back().slot = j;
        orders_.back().mask = mask;
      }
      order_of_[static_cast<size_t>(kw) * num_slots_ + j] = o;
    }
  }

  lists_.resize(num_keywords_);
  seen_.assign(size_, 0);
  bid_scratch_.resize(num_keywords_);
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
  if (kw < 0 || query.relevance[kw] <= 0.7 || !plannable_keyword_[kw]) {
    return -1;
  }
  return kw;
}

bool RoiPlanner::Prepare(const Query& query,
                         const std::vector<AdvertiserAccount>& accounts) {
  if (state_ != State::kStale && query.time < last_time_) {
    WriteBack(accounts);
    state_ = State::kStale;
  }
  return state_ != State::kStale || Rebuild(query.time, accounts);
}

bool RoiPlanner::Rebuild(int64_t time,
                         const std::vector<AdvertiserAccount>& accounts) {
  // Bucketing needs integral bids and caps in range, and triggers need
  // monotone spend targets; a restore may also have changed a member's view
  // or a planned keyword's formula. Anything else stays on the brute path.
  cap_.resize(static_cast<size_t>(num_keywords_) * size_);
  int64_t top = 0;
  const Formula* checked = nullptr;  // the last array found equal
  for (const AdvertiserId m : members_) {
    const AdvertiserAccount& a = accounts[m];
    if (!std::isfinite(a.amount_spent) || !std::isfinite(a.target_spend_rate) ||
        a.target_spend_rate < 0 || population_[m]->roi_bidder() == nullptr) {
      return false;
    }
    const RoiBidder& view = *views_[m];
    const Formula* formulas = view.roi_formulas();
    if (formulas == nullptr) return false;
    for (int kw = 0; kw < num_keywords_ && formulas != checked; ++kw) {
      if (plannable_keyword_[kw] &&
          !formulas[kw].StructurallyEquals(keyword_formula_[kw])) {
        return false;
      }
    }
    checked = formulas;
    for (int kw = 0; kw < num_keywords_; ++kw) {
      const double bid = view.roi_bid(kw);
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
  triggers_.clear();
  gen_.assign(size_, 0);

  for (const AdvertiserId m : members_) {
    const AdvertiserAccount& account = accounts[m];
    const RoiBidder& view = *views_[m];
    const Spend spend = SpendAt(account, time);
    double max_roi = account.Roi(0), min_roi = account.Roi(0);
    for (int kw = 1; kw < num_keywords_; ++kw) {
      max_roi = std::max(max_roi, account.Roi(kw));
      min_roi = std::min(min_roi, account.Roi(kw));
    }
    for (int kw = 0; kw < num_keywords_; ++kw) {
      const size_t node = Node(kw, m);
      stored_[node] = static_cast<uint16_t>(view.roi_bid(kw));
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

void RoiPlanner::Relink(const UndoMove& undo) {
  const size_t node = Node(undo.kw, undo.member);
  const size_t base = Node(undo.kw, 0);
  KeywordLists& lists = lists_[undo.kw];
  tag_[node] = undo.tag;
  stored_[node] = undo.stored;
  next_[node] = undo.next;
  prev_[node] = undo.prev;
  if (undo.prev >= 0) {
    next_[base + undo.prev] = undo.member;
  } else {
    lists.head[undo.tag][Bucket(undo.stored)] = undo.member;
  }
  if (undo.next >= 0) prev_[base + undo.next] = undo.member;
  if (undo.tag != kInc) return;
  cap_next_[node] = undo.cap_next;
  cap_prev_[node] = undo.cap_prev;
  if (undo.cap_prev >= 0) {
    cap_next_[base + undo.cap_prev] = undo.member;
  } else {
    lists.cap_head[Bucket(int64_t{cap_[node]} - undo.stored)] = undo.member;
  }
  if (undo.cap_next >= 0) cap_prev_[base + undo.cap_next] = undo.member;
}

void RoiPlanner::Move(int kw, int32_t m, Tag to) {
  const size_t node = Node(kw, m);
  const int64_t effective = Eff(kw, m);
  if (reading_) {
    journal_.push_back(UndoMove{kw, m, tag_[node], stored_[node], next_[node],
                                prev_[node], cap_next_[node],
                                cap_prev_[node]});
  }
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
  triggers_.push_back(Trigger{at, m, gen_[m]});
  std::push_heap(triggers_.begin(), triggers_.end(), std::greater<Trigger>());
}

void RoiPlanner::BidStep(const Query& query, int kw,
                         const std::vector<AdvertiserAccount>& accounts) {
  SSA_CHECK(state_ != State::kStale);
  const int64_t time = query.time;
  while (!triggers_.empty() && triggers_.front().time <= time) {
    std::pop_heap(triggers_.begin(), triggers_.end(), std::greater<Trigger>());
    const Trigger trigger = triggers_.back();
    triggers_.pop_back();
    if (reading_) due_.push_back(trigger);
    if (gen_[trigger.member] != trigger.gen) continue;  // superseded
    ++stats_.triggers_fired;
    const AdvertiserAccount& account = accounts[trigger.member];
    Classify(trigger.member, time, account);
    if (!reading_) ScheduleTrigger(trigger.member, time, account);
  }
  ApplyLogicalUpdate(kw);
}

void RoiPlanner::Advance(const Query& query, int kw,
                         const std::vector<AdvertiserAccount>& accounts) {
  BidStep(query, kw, accounts);
  state_ = State::kAhead;
  last_time_ = std::max(last_time_, query.time);
  last_query_ = query;
  settled_.clear();
  ++stats_.logical_plans;
}

void RoiPlanner::BeginRead(const Query& query, int kw,
                           const std::vector<AdvertiserAccount>& accounts) {
  SSA_CHECK(!reading_);
  reading_ = true;
  read_stats_ = stats_;
  read_kw_ = kw;
  std::copy(lists_[kw].adjustment, lists_[kw].adjustment + 3,
            read_adjustment_);
  due_.clear();
  BidStep(query, kw, accounts);
}

void RoiPlanner::EndRead() {
  SSA_CHECK(reading_);
  // Undone in reverse, each move finds the lists exactly as it left them.
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    Unlink(it->kw, it->member);
    Relink(*it);
  }
  journal_.clear();
  // A heap of the same triggers pops them in the same (time, member) order:
  // only a superseded entry can share its key, and it fires nothing.
  for (const Trigger& trigger : due_) {
    triggers_.push_back(trigger);
    std::push_heap(triggers_.begin(), triggers_.end(),
                   std::greater<Trigger>());
  }
  std::copy(read_adjustment_, read_adjustment_ + 3,
            lists_[read_kw_].adjustment);
  const int64_t ctr_extensions = stats_.ctr_extensions;
  stats_ = read_stats_;
  stats_.ctr_extensions = ctr_extensions;
  reading_ = false;
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
  const int32_t o = order_of_[static_cast<size_t>(kw) * num_slots_ + slot];
  if (o < 0) return;  // the formula never pays in this slot
  WeightOrder& order = orders_[static_cast<size_t>(o)];
  if (++epoch_ == 0) {  // wrapped: clear the stamps once
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const size_t base = Node(kw, 0);
  // Each side knows one factor of the bound: a weight entry carries its
  // weight, and every member of a bid level has that level's effective bid.
  auto consider = [&](int32_t m, double weight, int64_t bid) {
    seen_[m] = epoch_;
    const double b = static_cast<double>(bid);
    const double score =
        order.exact ? weight * b : Payment(order.mask, m, slot, b);
    if (score > 0.0) topk->Offer(slot, score, m);
  };

  size_t pos = 0;
  size_t level = 0;
  int32_t member = levels_.empty() ? -1 : levels_[0].first;
  double last_weight = std::numeric_limits<double>::infinity();
  for (;;) {
    if (pos == order.prefix.size() && pos < members_.size()) {
      ExtendOrder(&order);
    }
    if (pos < order.prefix.size()) {
      const auto [weight, m] = order.prefix[pos];
      last_weight = weight;
      if (seen_[m] != epoch_) consider(m, weight, Eff(kw, m));
      ++pos;
      ++stats_.probes;
    }
    if (member < 0) break;  // the bid view is exhausted: everyone was seen
    const int64_t bid = levels_[level].second;
    if (seen_[member] != epoch_) {
      consider(member, Weight(order, member), bid);
    }
    ++stats_.probes;
    member = next_[base + member];
    if (member < 0 && ++level < levels_.size()) member = levels_[level].first;
    // Every unseen member has weight <= last_weight and bid <= bid, and
    // scores at most the bound (exactly last_weight * bid when scores are
    // single products, which round monotonically). Stop only when the
    // weakest kept entry beats the bound strictly: an unseen member scoring
    // exactly the bound with a larger id would outrank it.
    if (bid <= 0 || last_weight <= 0.0) break;  // unseen members score +0.0
    if (topk->size(slot) == topk->capacity()) {
      const double product = last_weight * static_cast<double>(bid);
      const double bound =
          order.exact ? product : product * kBoundSlack + kUnderflowSlack;
      if (topk->entries(slot)[0].weight > bound) break;
    }
  }
}

double RoiPlanner::Payment(uint8_t mask, int32_t m, SlotIndex slot,
                           double bid) const {
  double prob[4];
  model_.MatrixClickModel::OutcomeDistribution(m, slot, prob);
  return OneFormulaPayment(mask, bid, prob);
}

void RoiPlanner::BuildWeights(WeightOrder* order) {
  // A member's weight is its score at bid 1. Its score at bid b is exactly
  // weight * b when at most one outcome term is nonzero: the sum is then
  // +0.0 + ... + p * b. When every weight is the member's click probability
  // bit for bit (plain Click without purchases), the click rows serve as
  // the weights and nothing is stored.
  std::vector<double> weights(static_cast<size_t>(size_), 0.0);
  bool is_click = true;
  for (const AdvertiserId m : members_) {
    double prob[4];
    model_.MatrixClickModel::OutcomeDistribution(m, order->slot, prob);
    const double weight = OneFormulaPayment(order->mask, 1.0, prob);
    weights[m] = weight;
    int terms = 0;
    for (int b = 0; b < 4; ++b) {
      terms += ((order->mask >> b) & 1) != 0 && prob[b] != 0.0;
    }
    order->exact &= terms <= 1;
    is_click &= SameBits(weight, click_[static_cast<size_t>(m) * num_slots_ +
                                        order->slot]);
  }
  if (is_click) {
    order->source = click_ + order->slot;
    order->stride = static_cast<size_t>(num_slots_);
  } else {
    order->own = std::move(weights);
    order->source = order->own.data();
    order->stride = 1;
  }
  order->built = true;
}

void RoiPlanner::ExtendOrder(WeightOrder* order) {
  if (!order->built) BuildWeights(order);
  // The next chunk is the best `chunk` members after the prefix's last
  // entry, kept in a bounded heap at the prefix's tail whose front is the
  // chunk's latest entry; sorting the heap appends them in order. One pass
  // over the members, and no memory beyond the grown prefix.
  std::vector<WeightEntry>& prefix = order->prefix;
  const size_t start = prefix.size();
  const size_t chunk = std::max<size_t>(start, kCtrPrefix);
  prefix.reserve(start + chunk);  // `heap` stays valid
  const auto heap = prefix.begin() + static_cast<std::ptrdiff_t>(start);
  for (const AdvertiserId i : members_) {
    const WeightEntry entry{Weight(*order, i), i};
    if (start > 0 && !WeightBefore(prefix[start - 1], entry)) continue;
    if (prefix.size() - start < chunk) {
      prefix.push_back(entry);
      std::push_heap(heap, prefix.end(), WeightBefore);
    } else if (WeightBefore(entry, *heap)) {
      std::pop_heap(heap, prefix.end(), WeightBefore);
      prefix.back() = entry;
      std::push_heap(heap, prefix.end(), WeightBefore);
    }
  }
  std::sort_heap(heap, prefix.end(), WeightBefore);
  if (start > 0) ++stats_.ctr_extensions;
}

void RoiPlanner::Payments(AdvertiserId i, int kw, double* out) const {
  const double bid = static_cast<double>(Eff(kw, i));
  for (SlotIndex j = 0; j < num_slots_; ++j) {
    const int32_t o = order_of_[static_cast<size_t>(kw) * num_slots_ + j];
    if (o < 0) {
      out[j] = 0.0;  // an all-zero mask pays +0.0
      continue;
    }
    // SelectTop(kw) built the order; its scores are TA's.
    const WeightOrder& order = orders_[static_cast<size_t>(o)];
    out[j] = order.exact ? Weight(order, i) * bid
                         : Payment(order.mask, i, j, bid);
  }
}

void RoiPlanner::BeforeSettle(const Query& query, const Allocation& allocation,
                              const std::vector<AdvertiserAccount>& accounts) {
  if (state_ != State::kAhead) return;
  // Settlement moves a winner's value gained and spend on the query's
  // keyword (and its spend total, which no strategy state holds).
  const int kw = query.keyword;
  for (const AdvertiserId i : allocation.slot_to_advertiser) {
    if (i < 0 || !Covers(i)) continue;
    settled_.push_back(SettledInputs{i, accounts[i].value_gained[kw],
                                     accounts[i].spent_per_keyword[kw]});
  }
}

void RoiPlanner::OnSettled(AdvertiserId i, int64_t time,
                           const std::vector<AdvertiserAccount>& accounts) {
  if (state_ == State::kStale) return;
  ++gen_[i];  // any queued trigger was computed from the old spend
  Classify(i, time, accounts[i]);
  ScheduleTrigger(i, time, accounts[i]);
}

void RoiPlanner::WriteMember(int32_t m, const AdvertiserAccount& account) {
  for (int kw = 0; kw < num_keywords_; ++kw) {
    bid_scratch_[kw] = static_cast<Money>(Eff(kw, m));
  }
  views_[m]->WriteRoiBids(last_query_, account, bid_scratch_.data());
}

void RoiPlanner::WriteBack(const std::vector<AdvertiserAccount>& accounts) {
  if (state_ != State::kAhead) return;
  for (const AdvertiserId m : members_) WriteMember(m, accounts[m]);
  // The last planned query saw its winners' ROI inputs before settlement.
  const int kw = last_query_.keyword;
  for (const SettledInputs& s : settled_) {
    settled_account_ = accounts[s.member];  // reuses its vectors' storage
    settled_account_.value_gained[kw] = s.value_gained;
    settled_account_.spent_per_keyword[kw] = s.spent;
    WriteMember(s.member, settled_account_);
  }
  state_ = State::kSynced;
}

}  // namespace ssa
