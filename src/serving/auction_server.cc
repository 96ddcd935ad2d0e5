#include "serving/auction_server.h"

#include <utility>

#include "util/timer.h"

namespace ssa {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Elapsed microseconds between two steady-clock points, as the difference
/// of their whole-microsecond timestamps (not the truncated difference), so
/// consecutive stages telescope: queue wait + auction + settlement equals
/// end-to-end exactly when they share their boundary points.
uint64_t ElapsedUs(SteadyClock::time_point from, SteadyClock::time_point to) {
  const auto us = [](SteadyClock::time_point tp) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               tp.time_since_epoch())
        .count();
  };
  return us(to) > us(from) ? static_cast<uint64_t>(us(to) - us(from)) : 0;
}

/// Steady-clock point as absolute nanoseconds — the tracer's time base
/// (Tracer::NowNs uses the same clock, so spans from both sources align).
uint64_t ToNs(SteadyClock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

std::string LaneLabel(int lane) {
  return "lane=\"" + std::to_string(lane) + "\"";
}

std::string ShardLabel(int shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

/// Mirrors a monotone total kept in plain (non-atomic) state into a
/// registry counter by advancing it by the change since the last publish.
/// Single writer (the executor), so the read-then-add cannot race.
void AdvanceCounter(Counter* counter, int64_t total) {
  counter->Increment(total - counter->value());
}

}  // namespace

AuctionServer::AuctionServer(
    const ServerConfig& config, Workload workload,
    std::vector<std::unique_ptr<BiddingStrategy>> strategies)
    : config_(config),
      engine_(config.engine, std::move(workload), std::move(strategies)),
      queue_(config.queue_capacity, config.backpressure) {
  SSA_CHECK(config_.max_batch_size >= 1);
  SSA_CHECK(config_.num_plan_lanes >= 1);
  if (config_.mode == ServingMode::kBatchedSettlement) {
    lanes_.reserve(static_cast<size_t>(config_.num_plan_lanes));
    for (int e = 0; e < config_.num_plan_lanes; ++e) {
      lanes_.push_back(engine_.NewPlanLane());
    }
    // Worker threads start here and idle until the executor dispatches an
    // epoch slot; they only ever run the const PlanCaptured half on their
    // own lane's scratch.
    lane_pool_ = std::make_unique<LanePool>(
        config_.num_plan_lanes,
        [this](int lane, int64_t ticket) { RunLane(lane, ticket); });
  }
  SetupObservability();
}

void AuctionServer::SetupObservability() {
  const ObsConfig& obs = config_.obs;
  if (obs.trace.sample_every > 0) {
    tracer_ = std::make_unique<Tracer>(obs.trace);
    engine_.set_tracer(tracer_.get());
    // Distinct kShardPlan track base per lane, so Perfetto shows which lane
    // planned each shard slice (the internal lane keeps base 200).
    for (size_t e = 0; e < lanes_.size(); ++e) {
      lanes_[e]->set_trace_track_base(200 + 100 * (static_cast<int>(e) + 1));
    }
  }
  if (!obs.metrics) return;
  registry_.RegisterExternal("serving_queue_wait_us", "",
                             "Queue wait per request, microseconds",
                             &queue_wait_us_);
  registry_.RegisterExternal("serving_auction_us", "",
                             "Planning (capture + plan) per query, "
                             "microseconds",
                             &auction_us_);
  registry_.RegisterExternal("serving_settlement_us", "",
                             "Settlement per query, microseconds",
                             &settlement_us_);
  registry_.RegisterExternal("serving_end_to_end_us", "",
                             "Submit-to-settled per query, microseconds",
                             &end_to_end_us_);
  batch_size_hist_ = registry_.GetHistogram(
      "serving_batch_queries", "", "Micro-batch size in queries");
  for (int e = 0; e < static_cast<int>(lanes_.size()); ++e) {
    lane_barrier_wait_us_.push_back(registry_.GetHistogram(
        "serving_barrier_wait_us", LaneLabel(e),
        "Executor wait at the ordered commit barrier, by the lane that "
        "planned the slot, microseconds"));
    lane_plans_total_.push_back(registry_.GetCounter(
        "serving_lane_plans_total", LaneLabel(e),
        "Epoch slots planned per lane (lane occupancy)"));
  }
  // Pull-side collector: admission/completion counters and queue depth.
  // Everything read here is atomic or guarded by the source's own mutex, so
  // the reporter thread may snapshot while producers and the executor run.
  registry_.AddCollector([this](MetricsSnapshot* snap) {
    auto add = [snap](const char* name, MetricSample::Kind kind, double v) {
      MetricSample s;
      s.name = name;
      s.kind = kind;
      s.value = v;
      snap->samples.push_back(std::move(s));
    };
    add("serving_accepted_total", MetricSample::kCounter,
        static_cast<double>(accepted()));
    add("serving_rejected_total", MetricSample::kCounter,
        static_cast<double>(rejected()));
    add("serving_dropped_oldest_total", MetricSample::kCounter,
        static_cast<double>(dropped_oldest()));
    add("serving_completed_total", MetricSample::kCounter,
        static_cast<double>(completed()));
    add("serving_batches_total", MetricSample::kCounter,
        static_cast<double>(batches()));
    add("serving_queue_depth", MetricSample::kGauge,
        static_cast<double>(queue_.size()));
    if (tracer_ != nullptr) {
      add("trace_spans_recorded_total", MetricSample::kCounter,
          static_cast<double>(tracer_->spans_recorded()));
    }
  });
}

AuctionServer::~AuctionServer() { Stop(); }

void AuctionServer::set_on_complete(CompletionFn fn) {
  SSA_CHECK(!started_);
  on_complete_ = std::move(fn);
}

Status AuctionServer::Start() {
  SSA_CHECK(!started_);
  const DurabilityConfig& durability = config_.durability;
  if (!durability.log_path.empty()) {
    if (config_.mode == ServingMode::kBatchedSettlement) {
      // Recovery and followers re-execute the log one auction at a time;
      // batched boundaries are timing-dependent, so a batched log would
      // replay onto a different trajectory.
      return Status::FailedPrecondition(
          "batched settlement cannot write a settlement log: serial replay "
          "of the log would not reproduce its batch boundaries");
    }
    if (durability.recover_on_start) {
      RecoveryOptions options;
      options.checkpoint_path = durability.checkpoint_path;
      options.log_path = durability.log_path;
      options.stream = QueryStream::kExternal;
      SSA_RETURN_IF_ERROR(RecoverEngine(&engine_, options, &recovery_));
    }
    LogWriterOptions writer_options = durability.writer;
    if (config_.obs.metrics) {
      writer_options.fsync_us = registry_.GetHistogram(
          "durability_fsync_us", "", "Settlement-log fsync, microseconds");
      writer_options.commit_records = registry_.GetHistogram(
          "durability_commit_records", "", "Records per group commit");
    }
    writer_options.tracer = tracer_.get();
    SSA_ASSIGN_OR_RETURN(
        log_writer_,
        SettlementLogWriter::Open(
            durability.log_path, writer_options,
            static_cast<uint64_t>(engine_.auctions_run()) + 1,
            durability.injector));
  }
  // Recovery (if any) repositioned the engine; the settled token starts
  // there, so kAtLeastSeq reads issued before the first new settlement gate
  // on the recovered position.
  settled_seq_.store(static_cast<uint64_t>(engine_.auctions_run()),
                     std::memory_order_release);
  if (config_.obs.metrics && !durability.log_path.empty()) {
    // Recovery is done and final; publish it once as gauges (only a server
    // with a settlement log has anything to recover).
    registry_
        .GetGauge("recovery_checkpoint_seq", "",
                   "Checkpoint sequence recovery restored from")
        ->Set(static_cast<int64_t>(recovery_.checkpoint_seq));
    registry_
        .GetGauge("recovery_records_replayed", "",
                   "Settlement records replayed at Start")
        ->Set(recovery_.records_replayed);
    registry_
        .GetGauge("recovery_records_skipped", "",
                   "Pre-checkpoint records skipped at Start")
        ->Set(recovery_.records_skipped);
    registry_
        .GetGauge("recovery_truncated_bytes", "",
                   "Corrupt log-tail bytes truncated at Start")
        ->Set(static_cast<int64_t>(recovery_.truncated_bytes));
    registry_
        .GetGauge("recovery_verify_mismatches", "",
                   "Replay verification mismatches at Start")
        ->Set(recovery_.verify_mismatches);
    registry_
        .GetGauge("recovery_recovered_seq", "",
                   "Engine position after recovery (last durable auction)")
        ->Set(static_cast<int64_t>(recovery_.recovered_seq));
    registry_
        .GetGauge("recovery_tail_truncated", "",
                   "1 when recovery discarded a torn/corrupt log tail")
        ->Set(static_cast<int64_t>(recovery_.tail_truncated ? 1 : 0));
  }
  PublishEngineGauges();
  started_ = true;
  executor_ = std::thread([this] { ExecutorLoop(); });
  return Status::Ok();
}

void AuctionServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  queue_.Close();
  executor_.join();
  // The executor has settled (and staged) everything admitted; push the
  // staged suffix to the OS so a clean shutdown loses nothing.
  if (log_writer_ != nullptr) {
    const Status status = log_writer_->Flush();
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(log_status_mu_);
      if (log_status_.ok()) log_status_ = status;
    }
  }
  // Executor joined: publishing the final engine/log state is race-free.
  PublishEngineGauges();
}

void AuctionServer::PublishEngineGauges() {
  if (!config_.obs.metrics) return;
  // Shard-phase time and cache totals sum the engine's internal lane
  // (replay) and the server's planning lanes (batched settlement), so they
  // read true in either mode. Only replay plans on the internal lane, so
  // only a replay server whose engine has the RHTALU planner exports the
  // planner's work.
  const bool logical = config_.mode == ServingMode::kDeterministicReplay &&
                       engine_.has_roi_planner();
  const int num_shards = engine_.num_shards();
  for (int s = 0; s < num_shards; ++s) {
    const ShardedAuctionEngine::ShardStats stats = engine_.shard_stats(s);
    int64_t phase_ns = stats.phase_ns;
    for (const auto& lane : lanes_) phase_ns += lane->phase_ns(s);
    const std::string label = ShardLabel(s);
    registry_
        .GetGauge("engine_shard_capture_ns", label,
                  "Bid-capture wall time per shard, ns")
        ->Set(stats.capture_ns);
    registry_
        .GetGauge("engine_shard_phase_ns", label,
                  "Shard-phase wall time per shard, internal lane plus "
                  "planning lanes, ns")
        ->Set(phase_ns);
    registry_
        .GetGauge("engine_shard_advertisers", label,
                  "Advertisers owned by the shard")
        ->Set(static_cast<int64_t>(stats.end - stats.begin));
  }
  if (logical) {
    const RoiPlannerStats planner = engine_.planner_stats();
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_logical_plans_total", "",
                             "Auctions the RHTALU planner planned instead "
                             "of capture + fill on its shards"),
        planner.logical_plans);
    AdvanceCounter(registry_.GetCounter("engine_roi_planner_probes_total", "",
                                        "Threshold Algorithm sorted accesses"),
                   planner.probes);
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_list_moves_total", "",
                             "Logical-update list membership moves"),
        planner.list_moves);
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_triggers_fired_total", "",
                             "Spend-rate triggers fired"),
        planner.triggers_fired);
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_rebuilds_total", "",
                             "Planner list rebuilds from the strategies"),
        planner.rebuilds);
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_ctr_extensions_total", "",
                             "Per-slot ctr prefixes doubled when the "
                             "Threshold Algorithm ran past them"),
        planner.ctr_extensions);
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_ns_total", "",
                             "Planner wall time: list preparation, bid step "
                             "and Threshold Algorithm, ns"),
        engine_.planner_ns());
  }
  int64_t cache_hits = engine_.cache_hits();
  int64_t cache_misses = engine_.cache_misses();
  for (const auto& lane : lanes_) {
    cache_hits += lane->cache_hits();
    cache_misses += lane->cache_misses();
  }
  AdvanceCounter(
      registry_.GetCounter(
          "engine_cache_hits_total", "",
          "Compiled-bids cache hits, internal lane plus planning lanes"),
      cache_hits);
  AdvanceCounter(
      registry_.GetCounter(
          "engine_cache_misses_total", "",
          "Compiled-bids cache misses, internal lane plus planning lanes"),
      cache_misses);
  for (size_t e = 0; e < lanes_.size(); ++e) {
    const std::string label = LaneLabel(static_cast<int>(e));
    AdvanceCounter(registry_.GetCounter("lane_cache_hits_total", label,
                                        "Per-lane compiled-bids cache hits"),
                   lanes_[e]->cache_hits());
    AdvanceCounter(
        registry_.GetCounter("lane_cache_misses_total", label,
                             "Per-lane compiled-bids cache misses"),
        lanes_[e]->cache_misses());
  }
  if (log_writer_ != nullptr) {
    AdvanceCounter(
        registry_.GetCounter("durability_records_appended_total", "",
                             "Settlement records appended to the log"),
        log_writer_->records_appended());
    AdvanceCounter(
        registry_.GetCounter("durability_commits_total", "",
                             "Log group commits"),
        log_writer_->commits());
    AdvanceCounter(
        registry_.GetCounter("durability_syncs_total", "", "Log fsyncs"),
        log_writer_->syncs());
    AdvanceCounter(registry_.GetCounter("durability_bytes_written_total", "",
                                        "Log bytes written"),
                   static_cast<int64_t>(log_writer_->bytes_written()));
    registry_
        .GetGauge("durability_checkpoint_age", "",
                  "Auctions settled since the recovered checkpoint (crash "
                  "replay cost)")
        ->Set(checkpoint_age());
    registry_
        .GetGauge("durability_sync_mode", "",
                  "Configured LogSyncMode (0=buffered, 1=group fsync, "
                  "2=fsync each)")
        ->Set(static_cast<int64_t>(config_.durability.writer.sync));
    registry_
        .GetGauge("durability_group_records", "",
                  "Configured group-commit threshold, records")
        ->Set(static_cast<int64_t>(config_.durability.writer.group_records));
  }
}

Status AuctionServer::WriteCheckpoint() const {
  if (config_.durability.checkpoint_path.empty()) {
    return Status::FailedPrecondition("no checkpoint_path configured");
  }
  return engine_.WriteCheckpoint(config_.durability.checkpoint_path);
}

Status AuctionServer::log_status() const {
  std::lock_guard<std::mutex> lock(log_status_mu_);
  return log_status_;
}

void AuctionServer::LogSettlement(const AuctionOutcome& outcome,
                                  uint64_t trace_seq) {
  // The read-your-writes token advances for every settled auction, log sink
  // or not — replicated reads gate on it even when durability is off.
  settled_seq_.store(static_cast<uint64_t>(engine_.auctions_run()),
                     std::memory_order_release);
  if (log_writer_ == nullptr) return;
  const bool traced = tracer_ != nullptr && trace_seq != 0;
  const uint64_t t0 = traced ? Tracer::NowNs() : 0;
  const Status status = log_writer_->Append(SettlementRecord::FromOutcome(
      static_cast<uint64_t>(engine_.auctions_run()), outcome));
  if (traced) {
    tracer_->RecordSpan(trace_seq, TraceStage::kLogAppend, /*track=*/0, t0,
                        Tracer::NowNs());
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(log_status_mu_);
    if (log_status_.ok()) log_status_ = status;
  }
}

QueuePushResult AuctionServer::Submit(Query query) {
  ServingRequest request;
  request.query = std::move(query);
  request.admitted_at = SteadyClock::now();
  if (tracer_ != nullptr) {
    // Deterministic 1-in-N on the admission sequence: the same queries are
    // sampled on every run, so replay comparisons carry identical
    // instrumentation load.
    request.trace_seq = tracer_->Sample(
        admissions_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  return queue_.Push(std::move(request));
}

void AuctionServer::ExecutorLoop() {
  std::vector<ServingRequest> batch;
  for (;;) {
    batch.clear();
    if (!queue_.PopBatch(&batch,
                         static_cast<size_t>(config_.max_batch_size))) {
      return;  // closed and drained
    }
    // Batch envelope span, stamped with the batch's first sampled query (a
    // batch with no sampled query records no envelope).
    uint64_t batch_trace_seq = 0;
    if (tracer_ != nullptr) {
      for (const ServingRequest& r : batch) {
        if (r.trace_seq != 0) {
          batch_trace_seq = r.trace_seq;
          break;
        }
      }
    }
    const uint64_t batch_t0 = batch_trace_seq != 0 ? Tracer::NowNs() : 0;
    RunBatch(&batch);
    if (batch_trace_seq != 0) {
      tracer_->RecordSpan(batch_trace_seq, TraceStage::kBatch, /*track=*/0,
                          batch_t0, Tracer::NowNs());
    }
    // Per-batch gauge refresh: shard stats, lane caches, log counters. Off
    // the per-query path; plain engine state is only ever read here, on the
    // executor, which is what keeps registry snapshots race-free.
    PublishEngineGauges();
  }
}

void AuctionServer::RecordQueueWait(const ServingRequest& r,
                                    SteadyClock::time_point started_at) {
  queue_wait_us_.Record(ElapsedUs(r.admitted_at, started_at));
  if (tracer_ != nullptr && r.trace_seq != 0) {
    tracer_->RecordSpan(r.trace_seq, TraceStage::kQueueWait, /*track=*/0,
                        ToNs(r.admitted_at), ToNs(started_at));
  }
}

void AuctionServer::RunBatch(std::vector<ServingRequest>* batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (batch_size_hist_ != nullptr) batch_size_hist_->Record(batch->size());

  if (config_.mode == ServingMode::kBatchedSettlement) {
    RunBatchWithLanes(batch);
    return;
  }
  // Replay: plan+settle interleaved per query on this thread. Batch
  // boundaries group work but never reorder it, so the trajectory equals
  // the serial engine loop. Each request's stages share boundary points
  // (started, planned, settled), so its queue wait, auction and settlement
  // add up to its end-to-end time.
  plans_.resize(1);
  for (const ServingRequest& r : *batch) {
    const auto started_at = SteadyClock::now();
    RecordQueueWait(r, started_at);
    engine_.PlanAuction(r.query, &plans_[0], r.trace_seq);
    const auto planned_at = SteadyClock::now();
    if (tracer_ != nullptr && r.trace_seq != 0) {
      tracer_->RecordSpan(r.trace_seq, TraceStage::kPlan, /*track=*/0,
                          ToNs(started_at), ToNs(planned_at));
    }
    SettleSlot(r, &plans_[0], ElapsedUs(started_at, planned_at), planned_at);
  }
}

void AuctionServer::SettleSlot(const ServingRequest& r,
                               ShardedAuctionEngine::PlannedAuction* plan,
                               uint64_t plan_us,
                               SteadyClock::time_point settle_from) {
  const bool traced = tracer_ != nullptr && r.trace_seq != 0;
  auction_us_.Record(plan_us);
  const AuctionOutcome& outcome = engine_.SettlePlanned(plan);
  LogSettlement(outcome, r.trace_seq);
  const auto settled_at = SteadyClock::now();
  settlement_us_.Record(ElapsedUs(settle_from, settled_at));
  if (traced) {
    tracer_->RecordSpan(r.trace_seq, TraceStage::kSettle, /*track=*/0,
                        ToNs(settle_from), ToNs(settled_at));
    tracer_->RecordSpan(r.trace_seq, TraceStage::kQuery, /*track=*/0,
                        ToNs(r.admitted_at), ToNs(settled_at));
  }
  end_to_end_us_.Record(ElapsedUs(r.admitted_at, settled_at));
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (on_complete_) on_complete_(outcome);
}

void AuctionServer::RunLane(int lane, int64_t slot) {
  const size_t i = static_cast<size_t>(slot);
  const uint64_t trace_seq = (*epoch_batch_)[i].trace_seq;
  const bool traced = tracer_ != nullptr && trace_seq != 0;
  WallTimer timer;
  const uint64_t t0 = traced ? Tracer::NowNs() : 0;
  // Pure planning on this lane's private scratch: reads the executor's
  // captured bids (published by Dispatch), writes only lanes_[lane] and
  // plans_[i] (published to the settler by MarkReady).
  engine_.PlanCaptured((*epoch_batch_)[i].query, captures_[i],
                       lanes_[static_cast<size_t>(lane)].get(), &plans_[i],
                       trace_seq);
  if (traced) {
    tracer_->RecordSpan(trace_seq, TraceStage::kPlan, /*track=*/1 + lane, t0,
                        Tracer::NowNs());
  }
  if (!lane_plans_total_.empty()) {
    lane_plans_total_[static_cast<size_t>(lane)]->Increment();
  }
  plan_us_[i] = static_cast<uint64_t>(timer.ElapsedMillis() * 1e3);
  // Published to the executor by MarkReady's mutex — lets the settler
  // attribute its barrier wait to the lane that planned the slot.
  slot_lane_[i] = lane;
  settle_barrier_.MarkReady(slot);
}

void AuctionServer::RunBatchWithLanes(std::vector<ServingRequest>* batch) {
  const size_t b = batch->size();
  plans_.resize(b);
  captures_.resize(b);
  capture_us_.assign(b, 0);
  plan_us_.assign(b, 0);
  slot_lane_.assign(b, -1);
  epoch_batch_ = batch;
  settle_barrier_.Reset(static_cast<int64_t>(b));

  // Every capture reads batch-start account state, so all captures precede
  // the first settlement. The overlap is everything else: capture i+1
  // proceeds while lanes plan earlier slots, and the settler drains slot i
  // while lanes still plan slots j > i.
  for (size_t i = 0; i < b; ++i) {
    const ServingRequest& r = (*batch)[i];
    const auto started_at = SteadyClock::now();
    RecordQueueWait(r, started_at);
    engine_.CaptureBids(r.query, &captures_[i], r.trace_seq);
    const auto captured_at = SteadyClock::now();
    if (tracer_ != nullptr && r.trace_seq != 0) {
      tracer_->RecordSpan(r.trace_seq, TraceStage::kCapture, /*track=*/0,
                          ToNs(started_at), ToNs(captured_at));
    }
    capture_us_[i] = ElapsedUs(started_at, captured_at);
    lane_pool_->Dispatch(static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < b; ++i) {
    const ServingRequest& r = (*batch)[i];
    const bool traced = tracer_ != nullptr && r.trace_seq != 0;
    // AwaitReady's blocked time is charged to the lane that planned the
    // slot (slot_lane_, published by MarkReady).
    const auto wait_from = SteadyClock::now();
    settle_barrier_.AwaitReady(static_cast<int64_t>(i));
    const auto ready_at = SteadyClock::now();
    if (traced) {
      tracer_->RecordSpan(r.trace_seq, TraceStage::kBarrierWait, /*track=*/0,
                          ToNs(wait_from), ToNs(ready_at));
    }
    if (!lane_barrier_wait_us_.empty()) {
      lane_barrier_wait_us_[static_cast<size_t>(slot_lane_[i])]->Record(
          ElapsedUs(wait_from, ready_at));
    }
    // auction_us spans both planning halves: the executor's capture plus
    // the lane's pure plan.
    SettleSlot(r, &plans_[i], capture_us_[i] + plan_us_[i], ready_at);
  }
  epoch_batch_ = nullptr;
}

}  // namespace ssa
