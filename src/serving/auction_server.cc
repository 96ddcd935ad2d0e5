#include "serving/auction_server.h"

#include <utility>

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
  SetupObservability();
}

void AuctionServer::SetupObservability() {
  const ObsConfig& obs = config_.obs;
  if (obs.trace.sample_every > 0) {
    tracer_ = std::make_unique<Tracer>(obs.trace);
    engine_.set_tracer(tracer_.get());
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
  // Pull-side collector: admission/completion counters and queue depth.
  // Everything read here is atomic or guarded by the source's own mutex, so
  // a snapshotting thread may read while producers and the executor run.
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
    if (durability.recover_on_start) {
      RecoveryOptions options;
      options.checkpoint_path = durability.checkpoint_path;
      options.log_path = durability.log_path;
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
  // The brute-force totals below only grow, and stay 0 while the RHTALU
  // planner plans every auction, so each series appears once it is nonzero:
  // an all-logical server exports none of them.
  const int num_shards = engine_.num_shards();
  for (int s = 0; s < num_shards; ++s) {
    const ShardedAuctionEngine::ShardStats stats = engine_.shard_stats(s);
    const std::string label = ShardLabel(s);
    if (stats.capture_ns > 0) {
      AdvanceCounter(
          registry_.GetCounter("engine_shard_capture_ns_total", label,
                               "Bid-capture wall time per shard, ns"),
          stats.capture_ns);
    }
    if (stats.phase_ns > 0) {
      AdvanceCounter(
          registry_.GetCounter("engine_shard_phase_ns_total", label,
                               "Brute-force shard-phase wall time, ns"),
          stats.phase_ns);
    }
    registry_
        .GetGauge("engine_shard_advertisers", label,
                  "Advertisers owned by the shard")
        ->Set(static_cast<int64_t>(stats.end - stats.begin));
  }
  // Only an engine with the RHTALU planner exports the planner's work.
  if (engine_.has_roi_planner()) {
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
                             "Weight-order (ctr) prefixes doubled when "
                             "the Threshold Algorithm ran past them"),
        planner.ctr_extensions);
    AdvanceCounter(
        registry_.GetCounter("engine_roi_planner_ns_total", "",
                             "Planner wall time: list preparation, bid step "
                             "and Threshold Algorithm, ns"),
        engine_.planner_ns());
  }
  const int64_t cache_hits = engine_.cache_hits();
  const int64_t cache_misses = engine_.cache_misses();
  if (cache_hits > 0) {
    AdvanceCounter(registry_.GetCounter("engine_cache_hits_total", "",
                                        "Compiled-bids lookups on brute-force "
                                        "shards that reused the truth masks"),
                   cache_hits);
  }
  if (cache_misses > 0) {
    AdvanceCounter(registry_.GetCounter("engine_cache_misses_total", "",
                                        "Compiled-bids lookups on brute-force "
                                        "shards that compiled the formulas"),
                   cache_misses);
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
    // Per-batch gauge refresh: shard stats, caches, log counters. Off
    // the per-query path; plain engine state is only ever read here, on the
    // executor, which is what keeps registry snapshots race-free.
    PublishEngineGauges();
  }
}

void AuctionServer::RunBatch(std::vector<ServingRequest>* batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (batch_size_hist_ != nullptr) batch_size_hist_->Record(batch->size());
  // Plan and settle interleaved per query. Batch boundaries group work but
  // never reorder it, so the trajectory equals the serial engine loop. Each
  // request's stages share boundary points (started, planned, settled), so
  // its queue wait, auction and settlement add up to its end-to-end time.
  for (const ServingRequest& r : *batch) {
    const bool traced = tracer_ != nullptr && r.trace_seq != 0;
    const auto started_at = SteadyClock::now();
    queue_wait_us_.Record(ElapsedUs(r.admitted_at, started_at));
    engine_.PlanAuction(r.query, &plan_, r.trace_seq);
    const auto planned_at = SteadyClock::now();
    auction_us_.Record(ElapsedUs(started_at, planned_at));
    const AuctionOutcome& outcome = engine_.SettlePlanned(&plan_);
    LogSettlement(outcome, r.trace_seq);
    const auto settled_at = SteadyClock::now();
    settlement_us_.Record(ElapsedUs(planned_at, settled_at));
    if (traced) {
      tracer_->RecordSpan(r.trace_seq, TraceStage::kQueueWait, /*track=*/0,
                          ToNs(r.admitted_at), ToNs(started_at));
      tracer_->RecordSpan(r.trace_seq, TraceStage::kPlan, /*track=*/0,
                          ToNs(started_at), ToNs(planned_at));
      tracer_->RecordSpan(r.trace_seq, TraceStage::kSettle, /*track=*/0,
                          ToNs(planned_at), ToNs(settled_at));
      tracer_->RecordSpan(r.trace_seq, TraceStage::kQuery, /*track=*/0,
                          ToNs(r.admitted_at), ToNs(settled_at));
    }
    end_to_end_us_.Record(ElapsedUs(r.admitted_at, settled_at));
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (on_complete_) on_complete_(outcome);
  }
}

}  // namespace ssa
