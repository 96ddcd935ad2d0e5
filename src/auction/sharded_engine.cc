#include "auction/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "core/expected_revenue.h"
#include "durability/checkpoint.h"
#include "matching/hungarian.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ssa {

ShardedAuctionEngine::ShardedAuctionEngine(
    const ShardedEngineConfig& config, Workload workload,
    std::vector<std::unique_ptr<BiddingStrategy>> strategies)
    : config_(config),
      workload_(std::move(workload)),
      strategies_(std::move(strategies)),
      user_rng_(config.engine.seed ^ 0x5eed0f0e125eedULL) {
  SSA_CHECK(strategies_.size() == workload_.accounts.size());
  const int n = static_cast<int>(strategies_.size());
  SSA_CHECK(config_.num_shards >= 1);
  const int num_shards = std::min(config_.num_shards, std::max(1, n));
  ranges_.resize(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    // Same balanced contiguous partition as the Section III-E tree leaves.
    ranges_[s].begin =
        static_cast<AdvertiserId>(static_cast<int64_t>(n) * s / num_shards);
    ranges_[s].end =
        static_cast<AdvertiserId>(static_cast<int64_t>(n) * (s + 1) /
                                  num_shards);
  }
  capture_ns_.assign(ranges_.size(), 0);
  // RHTALU plans only reduced-Hungarian auctions: the dense methods read
  // the whole matrix. One planner covers every shard that qualifies.
  if (config_.engine.wd_method == WdMethod::kReducedHungarian) {
    const MatrixClickModel& model = *workload_.click_model;
    const int num_keywords = workload_.config.num_keywords;
    std::vector<AdvertiserId> members;
    for (const ShardRange& range : ranges_) {
      if (!RoiPlanner::Qualifies(range.begin, range.end, strategies_,
                                 num_keywords)) {
        continue;
      }
      for (AdvertiserId i = range.begin; i < range.end; ++i) {
        members.push_back(i);
      }
    }
    if (!members.empty()) {
      planner_ = std::make_unique<RoiPlanner>(std::move(members), strategies_,
                                              model, num_keywords);
    }
  }
  internal_lane_ = NewPlanLane();
}

std::unique_ptr<ShardedAuctionEngine::PlanLane>
ShardedAuctionEngine::NewPlanLane() const {
  // The compiled-bids cache is sized at the lane's first brute-force plan,
  // so an engine whose shards all plan logically never allocates it.
  auto lane = std::make_unique<PlanLane>();
  lane->shards.resize(ranges_.size());
  return lane;
}

void ShardedAuctionEngine::ForEachShard(
    const std::function<void(int)>& body) const {
  const int num_shards = static_cast<int>(ranges_.size());
  if (config_.pool != nullptr && num_shards > 1) {
    config_.pool->ParallelFor(num_shards, body);
  } else {
    for (int s = 0; s < num_shards; ++s) body(s);
  }
}

void ShardedAuctionEngine::CaptureShard(int s, const Query& query, bool read,
                                        CapturedBids* bids,
                                        uint64_t trace_seq) {
  const ShardRange& range = ranges_[static_cast<size_t>(s)];
  const bool traced = tracer_ != nullptr && trace_seq != 0;
  const uint64_t t0 = traced ? Tracer::NowNs() : 0;
  WallTimer timer;
  for (AdvertiserId i = range.begin; i < range.end; ++i) {
    BidsTable& table = (*bids)[i];
    table.Clear();
    if (read) {
      strategies_[i]->PeekBids(query, workload_.accounts[i], &table);
    } else {
      strategies_[i]->MakeBids(query, workload_.accounts[i], &table);
    }
  }
  // One timer per shard per auction; the fan-out writes disjoint
  // capture_ns_ slots.
  capture_ns_[static_cast<size_t>(s)] +=
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
  if (traced) {
    tracer_->RecordSpan(trace_seq, TraceStage::kShardCapture, 100 + s, t0,
                        Tracer::NowNs());
  }
}

void ShardedAuctionEngine::CaptureBids(const Query& query,
                                       CapturedBids* bids) {
  bids->resize(strategies_.size());
  SyncStrategies();
  // Strategies of different advertisers share no state (Section II-B), so
  // the capture fans out across shards; only captures of *distinct queries*
  // must serialize.
  ForEachShard([&](int s) {
    CaptureShard(s, query, /*read=*/false, bids, /*trace_seq=*/0);
  });
  if (planner_ != nullptr) planner_->Invalidate();
}

void ShardedAuctionEngine::RunShardPhase(const ShardRange& range,
                                         CompiledBidsCache* cache,
                                         PlanLane::ShardScratch* scratch,
                                         const CapturedBids& bids,
                                         RevenueMatrix* revenue) const {
  WallTimer phase_timer;
  const int k = workload_.config.num_slots;
  const ClickModel& model = *workload_.click_model;
  // Local per-slot top-(k+1) over the shard's rows — the leaf step of the
  // Section III-E aggregation, with global advertiser ids so the merge is a
  // plain re-offer. Each row is offered right after it is filled, while it
  // is still in L1.
  scratch->topk.Reset(k, k + 1);
  const double* base = revenue->UnassignedData();
  for (AdvertiserId i = range.begin; i < range.end; ++i) {
    const CompiledBids& compiled = cache->Get(i, bids[i], k);
    FillRevenueRow(compiled, model, revenue, i);
    scratch->topk.OfferRow(revenue->Row(i), base[i], i);
  }
  scratch->phase_ns +=
      static_cast<int64_t>(phase_timer.ElapsedSeconds() * 1e9);
}

void ShardedAuctionEngine::FinishPlan(PlanLane* lane,
                                      const RevenueMatrix* revenue,
                                      const RoiPlanner* logical, int kw,
                                      PlannedAuction* plan) const {
  const int n = static_cast<int>(strategies_.size());
  const int k = workload_.config.num_slots;
  const ClickModel& model = *workload_.click_model;
  const PricingRule pricing = config_.engine.pricing;
  const bool reduced =
      config_.engine.wd_method == WdMethod::kReducedHungarian;

  // --- Merge: re-offer every brute shard's retained entries into the global
  // heap set, which already holds the planner's. The (weight, id) order is
  // strict and insertion-order independent, and every globally top-(k+1)
  // entry is top-(k+1) within its own part, so the merged heaps hold exactly
  // the per-slot top-(k+1) of the population.
  WallTimer timer;  // the merge counts toward winner determination
  TopKHeapSet& merged = lane->merged_topk;
  const int num_shards = static_cast<int>(ranges_.size());
  for (int s = 0; s < num_shards; ++s) {
    if (!PlansBrute(s, logical)) continue;
    const PlanLane::ShardScratch& shard = lane->shards[s];
    for (SlotIndex j = 0; j < k; ++j) {
      const TopKHeapSet::Entry* entries = shard.topk.entries(j);
      for (int e = 0; e < shard.topk.size(j); ++e) {
        merged.Offer(j, entries[e].weight, entries[e].id);
      }
    }
  }

  // --- Step 4: winner determination. RH matches on the merged heaps' top-k
  // edges (each heap without its root once full: exactly the population's
  // per-slot top k), whose weights are the scores the shards and the
  // planner offered; a dense method solves the whole matrix.
  std::vector<double> own_weight(k, 0.0);
  WdResult& wd = plan->outcome.wd;
  if (reduced) {
    wd.allocation = MaxWeightMatchingTopK(merged, n, &own_weight);
    wd.matching_weight = wd.allocation.total_weight;
    // sum_i r_i(⊥) in id order. The planner's members keep the reset
    // matrix's +0.0, which never changes a sum that starts at +0.0.
    wd.expected_revenue =
        wd.matching_weight +
        (revenue != nullptr ? revenue->UnassignedTotal() : 0.0);
  } else {
    wd = DetermineWinners(*revenue, config_.engine.wd_method);
    // A dense method's winner may lie outside the heaps under ties, so its
    // weight comes from the matrix.
    for (SlotIndex j = 0; j < k; ++j) {
      const AdvertiserId i = wd.allocation.slot_to_advertiser[j];
      if (i >= 0) own_weight[j] = revenue->MarginalWeight(i, j);
    }
  }
  plan->outcome.wd_ms = timer.ElapsedMillis();

  // --- Step 6 prep: prices.
  timer.Reset();
  const Allocation& allocation = wd.allocation;
  if (pricing == PricingRule::kVcg) {
    // The pool: the merged top-(k+1)'s ids, roots included, deduplicated and
    // ascending — exactly SelectTopPerSlotCandidates(revenue, k + 1) — and
    // their marginal weights. A planner member's row is its one-formula
    // payments, and r_i(⊥) = +0.0: exactly the values the compiled kernel
    // computes.
    std::vector<AdvertiserId> pool;
    pool.reserve(static_cast<size_t>(k) * (k + 1));
    for (SlotIndex j = 0; j < k; ++j) {
      const TopKHeapSet::Entry* entries = merged.entries(j);
      for (int e = 0; e < merged.size(j); ++e) pool.push_back(entries[e].id);
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    std::vector<double>& rows = lane->pool_rows;
    rows.resize(pool.size() * static_cast<size_t>(k));
    for (size_t c = 0; c < pool.size(); ++c) {
      const AdvertiserId i = pool[c];
      double* out = rows.data() + c * k;
      if (logical != nullptr && logical->Covers(i)) {
        logical->Payments(i, kw, out);
      } else {
        const double* row = revenue->Row(i);
        const double base = revenue->UnassignedData()[i];
        for (SlotIndex j = 0; j < k; ++j) out[j] = row[j] - base;
      }
    }
    plan->prices = VcgChargesFrom(rows, pool, allocation, own_weight);
  } else {
    // GSP's reference point: the best loser of each slot is in the slot's
    // merged top-(k+1), since at most k advertisers won; positive weights
    // only, floored at +0.0 — the full-population scan's value exactly.
    std::vector<double> r_next(k, 0.0);
    if (pricing == PricingRule::kGeneralizedSecondPrice) {
      for (SlotIndex j = 0; j < k; ++j) {
        const TopKHeapSet::Entry* entries = merged.entries(j);
        for (int e = 0; e < merged.size(j); ++e) {
          if (allocation.advertiser_to_slot[entries[e].id] == kNoSlot) {
            r_next[j] = std::max(r_next[j], entries[e].weight);
          }
        }
      }
    }
    plan->prices =
        PerClickPricesFrom(pricing, model, allocation, own_weight, r_next);
  }
  plan->outcome.pricing_ms = timer.ElapsedMillis();
}

const AuctionOutcome& ShardedAuctionEngine::RunAuctionOn(const Query& query) {
  PlanAuction(query, &plan_scratch_);
  return SettlePlanned(&plan_scratch_);
}

void ShardedAuctionEngine::PlanCaptured(const Query& query,
                                        const CapturedBids& bids,
                                        PlanLane* lane,
                                        PlannedAuction* plan) const {
  const int n = static_cast<int>(strategies_.size());
  const int k = workload_.config.num_slots;
  SSA_CHECK(static_cast<int>(bids.size()) == n);
  plan->outcome = AuctionOutcome{};
  plan->outcome.query = query;

  // --- Shard phase: compile + the Theorem 2 matrix, fused, share-nothing.
  // Shards touch disjoint caches, heaps, and matrix rows, so the pool
  // schedule cannot change any value.
  WallTimer timer;
  RevenueMatrix& revenue = lane->revenue;
  revenue.Reset(n, k);
  // Pre-sized so parallel shard tasks only ever touch existing, disjoint
  // entries (CompiledBidsCache's concurrency precondition).
  lane->cache.Reserve(strategies_.size());
  ForEachShard([&](int s) {
    RunShardPhase(ranges_[s], &lane->cache, &lane->shards[s], bids, &revenue);
  });
  plan->outcome.program_eval_ms = timer.ElapsedMillis();
  lane->merged_topk.Reset(k, k + 1);
  FinishPlan(lane, &revenue, /*logical=*/nullptr, /*kw=*/-1, plan);
}

void ShardedAuctionEngine::PlanAuction(const Query& query,
                                       PlannedAuction* plan,
                                       uint64_t trace_seq) {
  Plan(query, /*read=*/false, plan, trace_seq);
}

void ShardedAuctionEngine::WhatIfAuction(const Query& query,
                                         PlannedAuction* plan) {
  Plan(query, /*read=*/true, plan, /*trace_seq=*/0);
}

void ShardedAuctionEngine::Plan(const Query& query, bool read,
                                PlannedAuction* plan, uint64_t trace_seq) {
  const int n = static_cast<int>(strategies_.size());
  const int k = workload_.config.num_slots;
  PlanLane* lane = internal_lane_.get();
  plan->outcome = AuctionOutcome{};
  plan->outcome.query = query;
  lane->merged_topk.Reset(k, k + 1);
  WallTimer timer;
  const bool traced = tracer_ != nullptr && trace_seq != 0;

  // --- The logical bid step (triggers + logical update) replaces capture on
  // the planner's shards. Prepare may rebuild the lists first (stale after a
  // capture or restore, or a time before theirs); a read's bid step goes
  // into a journal that EndRead rolls back.
  RoiPlanner* logical = nullptr;
  const int kw = planner_ != nullptr ? planner_->PlannableKeyword(query) : -1;
  if (kw >= 0) {
    const uint64_t t0 = traced ? Tracer::NowNs() : 0;
    WallTimer planner_timer;
    if (planner_->Prepare(query, workload_.accounts)) {
      if (read) {
        planner_->BeginRead(query, kw, workload_.accounts);
      } else {
        planner_->Advance(query, kw, workload_.accounts);
      }
      logical = planner_.get();
    }
    planner_ns_ += static_cast<int64_t>(planner_timer.ElapsedSeconds() * 1e9);
    if (traced) {
      tracer_->RecordSpan(trace_seq, TraceStage::kShardCapture, kPlannerTrack,
                          t0, Tracer::NowNs());
    }
  }

  // --- Brute shard phase: every shard the planner did not plan captures its
  // programs (a read peeks them) and runs the compile + fill phase.
  const int num_shards = static_cast<int>(ranges_.size());
  bool any_brute = false;
  for (int s = 0; s < num_shards; ++s) any_brute |= PlansBrute(s, logical);
  RevenueMatrix* revenue = nullptr;
  if (any_brute) {
    revenue = &lane->revenue;
    revenue->Reset(n, k);
    lane->cache.Reserve(strategies_.size());
    lane->capture.resize(strategies_.size());
    if (logical == nullptr) SyncStrategies();
    ForEachShard([&](int s) {
      if (!PlansBrute(s, logical)) return;
      CaptureShard(s, query, read, &lane->capture, trace_seq);
      const uint64_t t0 = traced ? Tracer::NowNs() : 0;
      RunShardPhase(ranges_[s], &lane->cache, &lane->shards[s], lane->capture,
                    revenue);
      if (traced) {
        tracer_->RecordSpan(trace_seq, TraceStage::kShardPlan, 200 + s, t0,
                            Tracer::NowNs());
      }
    });
    if (!read && logical == nullptr && planner_ != nullptr) {
      planner_->Invalidate();
    }
  }

  // --- The Threshold Algorithm, once per slot, into the coordinator's merge.
  if (logical != nullptr) {
    const uint64_t t0 = traced ? Tracer::NowNs() : 0;
    WallTimer planner_timer;
    logical->SelectTop(kw, &lane->merged_topk);
    planner_ns_ += static_cast<int64_t>(planner_timer.ElapsedSeconds() * 1e9);
    if (traced) {
      tracer_->RecordSpan(trace_seq, TraceStage::kShardPlan, kPlannerTrack,
                          t0, Tracer::NowNs());
    }
  }
  plan->outcome.program_eval_ms = timer.ElapsedMillis();
  FinishPlan(lane, revenue, logical, kw, plan);
  if (read) {
    if (logical != nullptr) logical->EndRead();
    ++(logical != nullptr ? logical_reads_ : brute_reads_);
  }
}

void ShardedAuctionEngine::SyncStrategies() const {
  // Logically const: the strategies receive the bids they already stand
  // for. Callers hold the engine exclusively.
  if (planner_ != nullptr) planner_->WriteBack(workload_.accounts);
}

const AuctionOutcome& ShardedAuctionEngine::SettlePlanned(
    PlannedAuction* plan) {
  const ClickModel& model = *workload_.click_model;
  outcome_ = std::move(plan->outcome);
  outcome_.prices = std::move(plan->prices);
  ++auctions_run_;
  if (planner_ != nullptr) {
    planner_->BeforeSettle(outcome_.query, outcome_.wd.allocation,
                           workload_.accounts);
  }

  // --- Step 5: user action simulation, charging, accounting, notifications.
  SettleAuction(config_.engine.pricing, model, outcome_.prices,
                &workload_.accounts, strategies_, &user_rng_, &outcome_);
  total_revenue_ += outcome_.revenue_charged;
  // Settlement touched only the winners' accounts: their list memberships
  // and triggers are the planner's only per-bidder work outside the TA.
  if (planner_ != nullptr) {
    for (const UserEvent& event : outcome_.events) {
      if (!planner_->Covers(event.advertiser)) continue;
      planner_->OnSettled(event.advertiser, outcome_.query.time,
                          workload_.accounts);
    }
  }
  return outcome_;
}

ShardedAuctionEngine::ShardStats ShardedAuctionEngine::shard_stats(
    int shard) const {
  SSA_CHECK(shard >= 0 && shard < num_shards());
  const ShardRange& range = ranges_[shard];
  ShardStats stats;
  stats.begin = range.begin;
  stats.end = range.end;
  stats.capture_ns = capture_ns_[static_cast<size_t>(shard)];
  stats.phase_ns = internal_lane_->shards[static_cast<size_t>(shard)].phase_ns;
  return stats;
}

bool ShardedAuctionEngine::has_roi_planner() const {
  return planner_ != nullptr;
}

RoiPlannerStats ShardedAuctionEngine::planner_stats() const {
  return planner_ != nullptr ? planner_->stats() : RoiPlannerStats{};
}

int64_t ShardedAuctionEngine::cache_hits() const {
  return internal_lane_->cache.hits();
}

int64_t ShardedAuctionEngine::cache_misses() const {
  return internal_lane_->cache.misses();
}

void ShardedAuctionEngine::CaptureCheckpoint(EngineCheckpoint* ckpt) const {
  *ckpt = EngineCheckpoint{};
  ckpt->seq = static_cast<uint64_t>(auctions_run_);
  ckpt->total_revenue = total_revenue_;
  user_rng_.SaveState(ckpt->user_rng);
  ckpt->num_advertisers = static_cast<int32_t>(strategies_.size());
  ckpt->num_slots = workload_.config.num_slots;
  ckpt->num_keywords = workload_.config.num_keywords;
  ckpt->accounts = workload_.accounts;
  SyncStrategies();
  ckpt->strategy_state.resize(strategies_.size());
  for (size_t i = 0; i < strategies_.size(); ++i) {
    strategies_[i]->SaveState(&ckpt->strategy_state[i]);
  }
}

Status ShardedAuctionEngine::RestoreCheckpoint(const EngineCheckpoint& ckpt) {
  const size_t n = strategies_.size();
  if (ckpt.num_advertisers != static_cast<int32_t>(n) ||
      ckpt.num_slots != workload_.config.num_slots ||
      ckpt.num_keywords != workload_.config.num_keywords) {
    return Status::InvalidArgument(
        "checkpoint workload shape does not match this engine");
  }
  if (ckpt.accounts.size() != n || ckpt.strategy_state.size() != n) {
    return Status::InvalidArgument("checkpoint population size mismatch");
  }
  // Settlement indexes the per-keyword vectors by keyword unchecked.
  const size_t kws = static_cast<size_t>(workload_.config.num_keywords);
  for (const AdvertiserAccount& a : ckpt.accounts) {
    if (a.value_per_click.size() != kws || a.max_bid.size() != kws ||
        a.value_gained.size() != kws || a.spent_per_keyword.size() != kws) {
      return Status::InvalidArgument(
          "checkpoint account keyword count mismatch");
    }
  }
  // Strategies not restored by a failing blob must hold their current bids,
  // and the planner's lists are stale afterwards either way.
  SyncStrategies();
  if (planner_ != nullptr) planner_->Invalidate();
  for (size_t i = 0; i < n; ++i) {
    SSA_RETURN_IF_ERROR(strategies_[i]->RestoreState(ckpt.strategy_state[i]));
  }
  workload_.accounts = ckpt.accounts;
  user_rng_.RestoreState(ckpt.user_rng);
  auctions_run_ = static_cast<int64_t>(ckpt.seq);
  total_revenue_ = ckpt.total_revenue;
  outcome_ = AuctionOutcome{};
  return Status::Ok();
}

Status ShardedAuctionEngine::WriteCheckpoint(const std::string& path) const {
  EngineCheckpoint ckpt;
  CaptureCheckpoint(&ckpt);
  return WriteCheckpointFile(path, ckpt);
}

Status ShardedAuctionEngine::RestoreFromCheckpoint(const std::string& path) {
  EngineCheckpoint ckpt;
  SSA_RETURN_IF_ERROR(ReadCheckpointFile(path, &ckpt));
  return RestoreCheckpoint(ckpt);
}

}  // namespace ssa
