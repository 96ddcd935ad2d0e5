#include "auction/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "core/expected_revenue.h"
#include "durability/checkpoint.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ssa {

ShardedAuctionEngine::ShardedAuctionEngine(
    const ShardedEngineConfig& config, Workload workload,
    std::vector<std::unique_ptr<BiddingStrategy>> strategies)
    : config_(config),
      workload_(std::move(workload)),
      strategies_(std::move(strategies)),
      query_gen_(workload_.config.num_keywords, config.engine.seed),
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
  internal_lane_ = NewPlanLane();
  // The internal lane is the engine's only lane on the RunAuctionOn path, so
  // intra-query shard parallelism is the right use of the pool there.
  internal_lane_->pool = config_.pool;
}

std::unique_ptr<ShardedAuctionEngine::PlanLane>
ShardedAuctionEngine::NewPlanLane() const {
  auto lane = std::make_unique<PlanLane>();
  // Pre-sized so parallel shard tasks only ever touch existing, disjoint
  // entries (CompiledBidsCache's concurrency precondition).
  lane->cache.Reserve(strategies_.size());
  lane->shards.resize(ranges_.size());
  lane->pool = nullptr;
  return lane;
}

void ShardedAuctionEngine::CaptureBids(const Query& query, CapturedBids* bids,
                                       uint64_t trace_seq) {
  const int n = static_cast<int>(strategies_.size());
  bids->resize(n);
  const bool traced = tracer_ != nullptr && trace_seq != 0;
  auto capture_range = [&](int s) {
    const ShardRange& range = ranges_[static_cast<size_t>(s)];
    const uint64_t t0 = traced ? Tracer::NowNs() : 0;
    WallTimer timer;
    for (AdvertiserId i = range.begin; i < range.end; ++i) {
      BidsTable& table = (*bids)[i];
      table.Clear();
      strategies_[i]->MakeBids(query, workload_.accounts[i], &table);
    }
    // One timer per shard per auction; the fan-out writes disjoint
    // capture_ns_ slots.
    capture_ns_[static_cast<size_t>(s)] +=
        static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
    if (traced) {
      tracer_->RecordSpan(trace_seq, TraceStage::kShardCapture, 100 + s, t0,
                          Tracer::NowNs());
    }
  };
  const int num_shards = static_cast<int>(ranges_.size());
  if (config_.pool != nullptr && num_shards > 1) {
    // Strategies of different advertisers share no state (Section II-B), so
    // the capture fans out across shards; only captures of *distinct
    // queries* must serialize.
    config_.pool->ParallelFor(num_shards, capture_range);
  } else {
    for (int s = 0; s < num_shards; ++s) capture_range(s);
  }
}

void ShardedAuctionEngine::RunShardPhase(const ShardRange& range,
                                         CompiledBidsCache* cache,
                                         PlanLane::ShardScratch* scratch,
                                         const CapturedBids& bids,
                                         RevenueMatrix* revenue,
                                         bool collect_topk) const {
  WallTimer phase_timer;
  const int k = workload_.config.num_slots;
  const ClickModel& model = *workload_.click_model;
  // Local per-slot top-k over the shard's rows — the leaf step of the
  // Section III-E aggregation, with global advertiser ids so the merge is a
  // plain re-offer. Each row is offered right after it is filled, while it
  // is still in L1.
  if (collect_topk) scratch->topk.Reset(k, std::max(k, 1));
  const double* base = revenue->UnassignedData();
  for (AdvertiserId i = range.begin; i < range.end; ++i) {
    const CompiledBids& compiled = cache->Get(i, bids[i], k);
    FillRevenueRow(compiled, model, revenue, i);
    if (!collect_topk) continue;
    const double* row = revenue->Row(i);
    for (SlotIndex j = 0; j < k; ++j) {
      const double w = row[j] - base[i];
      if (w <= 0.0) continue;  // never beats leaving the slot empty
      scratch->topk.Offer(j, w, i);
    }
  }
  scratch->phase_ns +=
      static_cast<int64_t>(phase_timer.ElapsedSeconds() * 1e9);
}

std::vector<AdvertiserId> ShardedAuctionEngine::MergeShardCandidates(
    PlanLane* lane, int num_advertisers, int num_slots) const {
  // Re-offer every shard's retained entries into one global heap set. The
  // (weight, id) order is strict and insertion-order independent, and every
  // globally top-k entry is top-k within its own shard, so the merged heaps
  // hold exactly the entries SelectTopPerSlotCandidates(revenue, k) keeps.
  TopKHeapSet& merged = lane->merged_topk;
  merged.Reset(num_slots, std::max(num_slots, 1));
  for (const PlanLane::ShardScratch& shard : lane->shards) {
    for (SlotIndex j = 0; j < num_slots; ++j) {
      const TopKHeapSet::Entry* entries = shard.topk.entries(j);
      for (int e = 0; e < shard.topk.size(j); ++e) {
        merged.Offer(j, entries[e].weight, entries[e].id);
      }
    }
  }
  // Candidate extraction mirrors SelectTopPerSlotCandidates: union across
  // slots, deduplicated, sorted ascending (the sort makes the vector
  // canonical, so heap iteration order is immaterial).
  std::vector<char> seen(num_advertisers, 0);
  std::vector<AdvertiserId> candidates;
  candidates.reserve(static_cast<size_t>(num_slots) * num_slots);
  for (SlotIndex j = 0; j < num_slots; ++j) {
    const TopKHeapSet::Entry* entries = merged.entries(j);
    for (int e = 0; e < merged.size(j); ++e) {
      const AdvertiserId i = entries[e].id;
      if (!seen[i]) {
        seen[i] = 1;
        candidates.push_back(i);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

const AuctionOutcome& ShardedAuctionEngine::RunAuction() {
  return RunAuctionOn(query_gen_.Next());
}

const AuctionOutcome& ShardedAuctionEngine::RunAuctionOn(const Query& query) {
  PlanAuction(query, &plan_scratch_);
  return SettlePlanned(&plan_scratch_);
}

void ShardedAuctionEngine::PlanCaptured(const Query& query,
                                        const CapturedBids& bids,
                                        PlanLane* lane, PlannedAuction* plan,
                                        uint64_t trace_seq) const {
  const int n = static_cast<int>(strategies_.size());
  const int k = workload_.config.num_slots;
  const ClickModel& model = *workload_.click_model;
  SSA_CHECK(static_cast<int>(bids.size()) == n);
  plan->outcome = AuctionOutcome{};
  plan->outcome.query = query;

  // --- Shard phase: compile + the Theorem 2 matrix, fused, share-nothing.
  // Shards touch disjoint caches, heaps, and matrix rows, so the pool
  // schedule cannot change any value.
  WallTimer timer;
  RevenueMatrix& revenue = lane->revenue;
  revenue.Reset(n, k);
  const bool reduced =
      config_.engine.wd_method == WdMethod::kReducedHungarian;
  const int num_shards = static_cast<int>(ranges_.size());
  const bool traced = tracer_ != nullptr && trace_seq != 0;
  auto plan_shard = [&](int s) {
    const uint64_t t0 = traced ? Tracer::NowNs() : 0;
    RunShardPhase(ranges_[s], &lane->cache, &lane->shards[s], bids, &revenue,
                  reduced);
    if (traced) {
      tracer_->RecordSpan(trace_seq, TraceStage::kShardPlan,
                          lane->trace_track_base + s, t0, Tracer::NowNs());
    }
  };
  if (lane->pool != nullptr && num_shards > 1) {
    lane->pool->ParallelFor(num_shards, plan_shard);
  } else {
    for (int s = 0; s < num_shards; ++s) plan_shard(s);
  }
  plan->outcome.program_eval_ms = timer.ElapsedMillis();

  // --- Step 4: winner determination. The reduced method consumes the
  // merged shard candidates; the dense methods see the full matrix.
  timer.Reset();
  if (reduced) {
    plan->outcome.wd = SolveOnCandidates(revenue,
                                         MergeShardCandidates(lane, n, k));
  } else {
    plan->outcome.wd = DetermineWinners(revenue, config_.engine.wd_method);
  }
  plan->outcome.wd_ms = timer.ElapsedMillis();

  // --- Step 6 prep: prices.
  timer.Reset();
  plan->prices = ComputePrices(config_.engine.pricing, revenue, model,
                               plan->outcome.wd.allocation);
  plan->outcome.pricing_ms = timer.ElapsedMillis();
}

void ShardedAuctionEngine::PlanAuction(const Query& query,
                                       PlannedAuction* plan,
                                       uint64_t trace_seq) {
  // Capture (Step 3, order-dependent) then plan on the internal lane. The
  // reported program_eval_ms spans both halves, matching the fused phase the
  // pre-lane engine timed.
  WallTimer timer;
  CaptureBids(query, &capture_scratch_, trace_seq);
  const double capture_ms = timer.ElapsedMillis();
  PlanCaptured(query, capture_scratch_, internal_lane_.get(), plan,
               trace_seq);
  plan->outcome.program_eval_ms += capture_ms;
}

void ShardedAuctionEngine::CaptureBidsForRead(const Query& query,
                                              CapturedBids* bids) const {
  const int n = static_cast<int>(strategies_.size());
  bids->resize(n);
  for (AdvertiserId i = 0; i < n; ++i) {
    BidsTable& table = (*bids)[i];
    table.Clear();
    strategies_[i]->PeekBids(query, workload_.accounts[i], &table);
  }
}

void ShardedAuctionEngine::WhatIfAuction(const Query& query, PlanLane* lane,
                                         PlannedAuction* plan) const {
  WallTimer timer;
  CaptureBidsForRead(query, &lane->peek_capture);
  const double capture_ms = timer.ElapsedMillis();
  PlanCaptured(query, lane->peek_capture, lane, plan);
  plan->outcome.program_eval_ms += capture_ms;
}

const AuctionOutcome& ShardedAuctionEngine::SettlePlanned(
    PlannedAuction* plan) {
  const ClickModel& model = *workload_.click_model;
  outcome_ = std::move(plan->outcome);
  outcome_.prices = std::move(plan->prices);
  ++auctions_run_;

  // --- Step 5: user action simulation, charging, accounting, notifications.
  SettleAuction(config_.engine.pricing, model, outcome_.prices,
                &workload_.accounts, strategies_, &user_rng_, &outcome_);
  total_revenue_ += outcome_.revenue_charged;
  return outcome_;
}

ShardedAuctionEngine::ShardStats ShardedAuctionEngine::shard_stats(
    int shard) const {
  SSA_CHECK(shard >= 0 && shard < num_shards());
  const ShardRange& range = ranges_[shard];
  const CompiledBidsCache& cache = internal_lane_->cache;
  ShardStats stats;
  stats.begin = range.begin;
  stats.end = range.end;
  stats.cache_hits = cache.HitsInRange(range.begin, range.end);
  stats.cache_misses = cache.MissesInRange(range.begin, range.end);
  stats.capture_ns = capture_ns_[static_cast<size_t>(shard)];
  stats.phase_ns = internal_lane_->phase_ns(shard);
  return stats;
}

int64_t ShardedAuctionEngine::cache_hits() const {
  return internal_lane_->cache_hits();
}

int64_t ShardedAuctionEngine::cache_misses() const {
  return internal_lane_->cache_misses();
}

int64_t ShardedAuctionEngine::verified_recompiles() const {
  return internal_lane_->cache.verified_recompiles();
}

void ShardedAuctionEngine::CaptureCheckpoint(EngineCheckpoint* ckpt) const {
  *ckpt = EngineCheckpoint{};
  ckpt->seq = static_cast<uint64_t>(auctions_run_);
  ckpt->total_revenue = total_revenue_;
  user_rng_.SaveState(ckpt->user_rng);
  ckpt->query_gen = query_gen_.SaveState();
  ckpt->num_advertisers = static_cast<int32_t>(strategies_.size());
  ckpt->num_slots = workload_.config.num_slots;
  ckpt->num_keywords = workload_.config.num_keywords;
  ckpt->accounts = workload_.accounts;
  ckpt->strategy_state.resize(strategies_.size());
  for (size_t i = 0; i < strategies_.size(); ++i) {
    strategies_[i]->SaveState(&ckpt->strategy_state[i]);
  }
  // The lane cache keys by global advertiser id, so its key snapshot is
  // already portable across shard layouts. Only the internal lane's cache
  // persists — external PlanLanes are scratch.
  ckpt->cache_keys = internal_lane_->cache.ExportKeys();
  ckpt->cache_keys.resize(strategies_.size());
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
  for (size_t i = 0; i < n; ++i) {
    SSA_RETURN_IF_ERROR(strategies_[i]->RestoreState(ckpt.strategy_state[i]));
  }
  workload_.accounts = ckpt.accounts;
  user_rng_.RestoreState(ckpt.user_rng);
  query_gen_.RestoreState(ckpt.query_gen);
  auctions_run_ = static_cast<int64_t>(ckpt.seq);
  total_revenue_ = ckpt.total_revenue;
  // Cache keys are global-id indexed on both sides, so a checkpoint written
  // under one shard layout restores under any other.
  internal_lane_->cache.PrimeExpectedKeys(ckpt.cache_keys);
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
