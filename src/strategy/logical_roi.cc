#include "strategy/logical_roi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "matching/hungarian.h"
#include "util/timer.h"

namespace ssa {

LogicalRoiEngine::LogicalRoiEngine(const EngineConfig& config,
                                   Workload workload)
    : config_(config),
      workload_(std::move(workload)),
      query_gen_(workload_.config.num_keywords, config.seed),
      user_rng_(config.seed ^ 0x5eed0f0e125eedULL) {
  SSA_CHECK_MSG(config_.pricing != PricingRule::kVcg,
                "LogicalRoiEngine supports per-click pricing rules only");
  SSA_CHECK_MSG(config_.wd_method == WdMethod::kReducedHungarian,
                "RHTALU builds on the reduced-Hungarian method");
  model_ = workload_.click_model.get();
  n_ = workload_.config.num_advertisers;
  k_ = workload_.config.num_slots;
  num_keywords_ = workload_.config.num_keywords;

  // Static sorted ctr lists, one per slot (Section IV-A keeps "a list of
  // bidders sorted by w_ij"). Descending (ctr, id asc on ties).
  ctr_sorted_.resize(k_);
  for (SlotIndex j = 0; j < k_; ++j) {
    auto& list = ctr_sorted_[j];
    list.reserve(n_);
    for (AdvertiserId i = 0; i < n_; ++i) {
      list.emplace_back(model_->ClickProbability(i, j), i);
    }
    std::sort(list.begin(), list.end(),
              [](const std::pair<double, AdvertiserId>& a,
                 const std::pair<double, AdvertiserId>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
  }

  // Initial membership at auction time 1: every bidder starts with spent 0
  // (underspending, since target rates are >= 1) and all-zero ROI, so every
  // keyword is in the argmax-ROI set; keywords with a positive cap join the
  // increment list, zero-cap keywords are constant at 0. Bulk-built sorted
  // (all stored bids are 0, ids ascending).
  keywords_.resize(num_keywords_);
  members_.assign(num_keywords_,
                  std::vector<Member>(n_, Member{kConst, 0.0, 0}));
  bidder_gen_.assign(n_, 0);
  for (int kw = 0; kw < num_keywords_; ++kw) {
    std::vector<SortedKeyList::Entry> inc_entries, const_entries;
    std::vector<BoundaryEntry> boundary;
    for (AdvertiserId i = 0; i < n_; ++i) {
      if (workload_.accounts[i].max_bid[kw] > 0) {
        members_[kw][i] = Member{kInc, 0.0, 0};
        inc_entries.push_back(SortedKeyList::Entry{0.0, i});
        boundary.push_back(
            BoundaryEntry{workload_.accounts[i].max_bid[kw], i, 0});
      } else {
        members_[kw][i] = Member{kConst, 0.0, 0};
        const_entries.push_back(SortedKeyList::Entry{0.0, i});
      }
    }
    keywords_[kw].lists[kInc].AssignSorted(std::move(inc_entries));
    keywords_[kw].lists[kConst].AssignSorted(std::move(const_entries));
    keywords_[kw].inc_boundary = BoundaryHeap(std::greater<BoundaryEntry>(),
                                              std::move(boundary));
  }

  seen_epoch_.assign(n_, 0);
  candidate_epoch_.assign(n_, 0);
}

LogicalRoiEngine::TimeState LogicalRoiEngine::StateAt(AdvertiserId i,
                                                      int64_t t) const {
  const AdvertiserAccount& a = workload_.accounts[i];
  if (a.Underspending(t)) return TimeState::kUnder;
  if (a.Overspending(t)) return TimeState::kOver;
  return TimeState::kEq;
}

Money LogicalRoiEngine::EffBid(AdvertiserId i, int kw) const {
  const Member& m = members_[kw][i];
  return m.stored + keywords_[kw].adjustment[m.tag];
}

Money LogicalRoiEngine::EffectiveBid(AdvertiserId i, int kw) const {
  SSA_CHECK(i >= 0 && i < n_ && kw >= 0 && kw < num_keywords_);
  return EffBid(i, kw);
}

void LogicalRoiEngine::MoveMember(AdvertiserId i, int kw, Tag new_tag) {
  KwState& state = keywords_[kw];
  Member& m = members_[kw][i];
  const Money effective = m.stored + state.adjustment[m.tag];
  state.lists[m.tag].Erase(i, m.stored);
  m.tag = new_tag;
  m.stored = effective - state.adjustment[new_tag];
  ++m.gen;
  state.lists[new_tag].Insert(i, m.stored);
  if (new_tag == kInc) {
    state.inc_boundary.push(BoundaryEntry{
        workload_.accounts[i].max_bid[kw] - m.stored, i, m.gen});
  } else if (new_tag == kDec) {
    state.dec_boundary.push(BoundaryEntry{m.stored, i, m.gen});
  }
  ++stats_.list_moves;
}

void LogicalRoiEngine::ClassifyBidder(AdvertiserId i, int64_t t) {
  const AdvertiserAccount& account = workload_.accounts[i];
  const TimeState state = StateAt(i, t);
  double max_roi = account.Roi(0), min_roi = account.Roi(0);
  for (int kw = 1; kw < num_keywords_; ++kw) {
    const double roi = account.Roi(kw);
    max_roi = std::max(max_roi, roi);
    min_roi = std::min(min_roi, roi);
  }
  for (int kw = 0; kw < num_keywords_; ++kw) {
    const Money bid = EffBid(i, kw);
    Tag desired = kConst;
    if (state == TimeState::kUnder && account.Roi(kw) == max_roi &&
        bid < account.max_bid[kw]) {
      desired = kInc;
    } else if (state == TimeState::kOver && account.Roi(kw) == min_roi &&
               bid > 0) {
      desired = kDec;
    }
    if (desired != members_[kw][i].tag) MoveMember(i, kw, desired);
  }
}

void LogicalRoiEngine::ScheduleTrigger(AdvertiserId i, int64_t t_now) {
  const TimeState state = StateAt(i, t_now);
  if (state == TimeState::kUnder) return;  // absorbing until the next win
  const AdvertiserAccount& a = workload_.accounts[i];
  int64_t t_next = t_now + 1;
  if (state == TimeState::kOver && a.target_spend_rate > 0) {
    // Crossing near amount_spent / rate; guess conservatively *early* (the
    // handler re-checks and re-schedules), so float error can never make a
    // membership stale at the auction where the state actually flips.
    const double boundary = a.amount_spent / a.target_spend_rate;
    t_next = std::max<int64_t>(
        t_now + 1, static_cast<int64_t>(std::floor(boundary)) - 1);
  }
  triggers_.push(Trigger{t_next, i, bidder_gen_[i]});
}

void LogicalRoiEngine::ApplyLogicalUpdate(int kw) {
  KwState& state = keywords_[kw];
  // Members whose bid reached its cap leave the increment list *before* the
  // shared +1 (the Figure 5 guard `bid < maxbid`).
  while (!state.inc_boundary.empty()) {
    const BoundaryEntry e = state.inc_boundary.top();
    const Member& m = members_[kw][e.id];
    if (m.gen != e.gen) {
      state.inc_boundary.pop();  // stale
      continue;
    }
    SSA_CHECK_MSG(e.key >= state.adjustment[kInc],
                  "increment member already above its cap");
    if (e.key != state.adjustment[kInc]) break;
    state.inc_boundary.pop();
    MoveMember(e.id, kw, kConst);
    ++stats_.boundary_moves;
  }
  state.adjustment[kInc] += 1;

  // Members whose bid reached zero leave the decrement list before the
  // shared -1 (the guard `bid > 0`).
  while (!state.dec_boundary.empty()) {
    const BoundaryEntry e = state.dec_boundary.top();
    const Member& m = members_[kw][e.id];
    if (m.gen != e.gen) {
      state.dec_boundary.pop();
      continue;
    }
    SSA_CHECK_MSG(e.key + state.adjustment[kDec] >= 0,
                  "decrement member already below zero");
    if (e.key + state.adjustment[kDec] != 0) break;
    state.dec_boundary.pop();
    MoveMember(e.id, kw, kConst);
    ++stats_.boundary_moves;
  }
  state.adjustment[kDec] -= 1;
}

void LogicalRoiEngine::TopForSlot(
    SlotIndex slot, int kw, int depth,
    std::vector<std::pair<double, AdvertiserId>>* out) {
  ++epoch_;
  const KwState& state = keywords_[kw];
  const auto& ctr_list = ctr_sorted_[slot];

  using Entry = std::pair<double, AdvertiserId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;

  size_t ctr_pos = 0;
  size_t bid_pos[3] = {0, 0, 0};
  double last_ctr = std::numeric_limits<double>::infinity();
  double last_bid = std::numeric_limits<double>::infinity();

  auto consider = [&](AdvertiserId id) {
    if (seen_epoch_[id] == epoch_) return;
    seen_epoch_[id] = epoch_;
    const double score = model_->ClickProbability(id, slot) * EffBid(id, kw);
    if (score <= 0.0) return;
    if (static_cast<int>(heap.size()) < depth) {
      heap.emplace(score, id);
    } else if (heap.top() < Entry(score, id)) {
      heap.pop();
      heap.emplace(score, id);
    }
  };

  for (;;) {
    bool exhausted = false;
    // Sorted access on the ctr list.
    if (ctr_pos < ctr_list.size()) {
      last_ctr = ctr_list[ctr_pos].first;
      consider(ctr_list[ctr_pos].second);
      ++ctr_pos;
      ++stats_.ta_sorted_accesses;
    } else {
      exhausted = true;
    }
    // Sorted access on the bid view: a lazy 3-way merge of the increment /
    // decrement / constant lists, each sorted by stored (hence effective)
    // bid descending.
    int best_list = -1;
    double best_eff = -std::numeric_limits<double>::infinity();
    for (int l = 0; l < 3; ++l) {
      if (bid_pos[l] >= state.lists[l].size()) continue;
      const double eff = state.lists[l].At(bid_pos[l]).key +
                         state.adjustment[l];
      if (eff > best_eff) {
        best_eff = eff;
        best_list = l;
      }
    }
    if (best_list >= 0) {
      last_bid = best_eff;
      consider(state.lists[best_list].At(bid_pos[best_list]).id);
      ++bid_pos[best_list];
      ++stats_.ta_sorted_accesses;
    } else {
      exhausted = true;
    }

    if (exhausted) break;  // one view ran dry => every bidder was seen
    const double tau = last_ctr * last_bid;
    if (static_cast<int>(heap.size()) >= depth && heap.top().first >= tau) {
      break;
    }
    if (tau <= 0.0) break;  // only zero bids remain unseen
  }

  out->clear();
  out->reserve(heap.size());
  while (!heap.empty()) {
    out->push_back(heap.top());
    heap.pop();
  }
  std::reverse(out->begin(), out->end());  // descending (score, id)
}

const AuctionOutcome& LogicalRoiEngine::RunAuction() {
  outcome_ = AuctionOutcome{};
  outcome_.query = query_gen_.Next();
  const int64_t t = outcome_.query.time;
  const int kw = outcome_.query.keyword;
  ++auctions_run_;
  SSA_CHECK(t == auctions_run_);

  // --- "Program evaluation": fire due time-triggers, then the O(1) logical
  // bid update for the queried keyword.
  WallTimer timer;
  while (!triggers_.empty() && triggers_.top().time <= t) {
    const Trigger trig = triggers_.top();
    triggers_.pop();
    if (bidder_gen_[trig.id] != trig.gen) continue;  // stale
    ++stats_.triggers_fired;
    ClassifyBidder(trig.id, t);
    ScheduleTrigger(trig.id, t);
  }
  ApplyLogicalUpdate(kw);
  outcome_.program_eval_ms = timer.ElapsedMillis();

  // --- Winner determination: TA top-(k+1) per slot, reduced matching on
  // the per-slot top-k union.
  timer.Reset();
  std::vector<std::vector<std::pair<double, AdvertiserId>>> slot_top(k_);
  std::vector<AdvertiserId> candidates;
  ++epoch_;  // candidate-dedup epoch (TopForSlot bumps its own)
  const int64_t cand_epoch = epoch_;
  for (SlotIndex j = 0; j < k_; ++j) {
    TopForSlot(j, kw, k_ + 1, &slot_top[j]);
    const int take = std::min<int>(k_, static_cast<int>(slot_top[j].size()));
    for (int r = 0; r < take; ++r) {
      const AdvertiserId id = slot_top[j][r].second;
      if (candidate_epoch_[id] != cand_epoch) {
        candidate_epoch_[id] = cand_epoch;
        candidates.push_back(id);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());

  const int m = static_cast<int>(candidates.size());
  std::vector<double> compact(static_cast<size_t>(m) * k_);
  for (int c = 0; c < m; ++c) {
    const AdvertiserId i = candidates[c];
    const Money bid = EffBid(i, kw);
    for (SlotIndex j = 0; j < k_; ++j) {
      compact[static_cast<size_t>(c) * k_ + j] =
          model_->ClickProbability(i, j) * bid;
    }
  }
  const Allocation reduced = MaxWeightMatchingDense(compact, m, k_);
  outcome_.wd.allocation = Allocation::Empty(n_, k_);
  for (SlotIndex j = 0; j < k_; ++j) {
    const int c = reduced.slot_to_advertiser[j];
    if (c < 0) continue;
    const AdvertiserId i = candidates[c];
    outcome_.wd.allocation.slot_to_advertiser[j] = i;
    outcome_.wd.allocation.advertiser_to_slot[i] = j;
  }
  outcome_.wd.allocation.total_weight = reduced.total_weight;
  outcome_.wd.matching_weight = reduced.total_weight;
  // Click-only bids pay nothing when unassigned, so the baseline is zero.
  outcome_.wd.expected_revenue = reduced.total_weight;
  outcome_.wd_ms = timer.ElapsedMillis();

  // --- Pricing (pay-your-bid or generalized second price), mirroring
  // auction/pricing.cc arithmetic exactly.
  timer.Reset();
  std::vector<Money> prices(k_, 0.0);
  for (SlotIndex j = 0; j < k_; ++j) {
    const AdvertiserId i = outcome_.wd.allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    const double ctr = model_->ClickProbability(i, j);
    if (ctr <= 0.0) continue;
    const double own_bid = ctr * EffBid(i, kw) / ctr;
    if (config_.pricing == PricingRule::kPayYourBid) {
      prices[j] = std::max(0.0, own_bid);
      continue;
    }
    // Best bidder for slot j left without any slot: guaranteed to appear in
    // the slot's TA top-(k+1) since at most k advertisers won slots.
    double r_next = 0.0;
    for (const auto& [score, other] : slot_top[j]) {
      if (outcome_.wd.allocation.advertiser_to_slot[other] == kNoSlot) {
        r_next = std::max(r_next, score);
      }
    }
    prices[j] = std::max(0.0, std::min(own_bid, r_next / ctr));
  }
  outcome_.pricing_ms = timer.ElapsedMillis();

  // --- User action, charging, accounting — identical arithmetic to
  // SettleAuction so the equivalence is exact.
  std::vector<AdvertiserId> changed;
  for (SlotIndex j = 0; j < k_; ++j) {
    const AdvertiserId i = outcome_.wd.allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    UserEvent event;
    event.advertiser = i;
    event.slot = j;
    event.clicked = user_rng_.Bernoulli(model_->ClickProbability(i, j));
    const double ppc = model_->PurchaseProbabilityGivenClick(i, j);
    if (event.clicked && ppc > 0.0) {
      event.purchased = user_rng_.Bernoulli(ppc);
    }
    AdvertiserAccount& account = workload_.accounts[i];
    if (event.clicked) {
      event.charged = prices[j];
      account.value_gained[kw] += account.value_per_click[kw];
      changed.push_back(i);
    }
    if (event.charged > 0) {
      account.amount_spent += event.charged;
      account.spent_per_keyword[kw] += event.charged;
    }
    outcome_.revenue_charged += event.charged;
    outcome_.events.push_back(event);
  }
  total_revenue_ += outcome_.revenue_charged;

  // Clicked winners' accounts changed: re-derive their memberships and
  // triggers (the only per-bidder work outside TA, O(k) bidders/auction).
  for (AdvertiserId i : changed) {
    ++bidder_gen_[i];
    ClassifyBidder(i, t);
    ScheduleTrigger(i, t);
  }
  return outcome_;
}

}  // namespace ssa
