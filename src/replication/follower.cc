#include "replication/follower.h"

#include <utility>

#include "durability/wire.h"

namespace ssa {

FollowerEngine::FollowerEngine(
    const FollowerConfig& config, Workload workload,
    std::vector<std::unique_ptr<BiddingStrategy>> strategies)
    : config_(config),
      engine_(config.engine, std::move(workload), std::move(strategies)) {}

FollowerEngine::~FollowerEngine() { Stop(); }

Status FollowerEngine::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("follower already started");
  }
  // --- Bootstrap: restore the checkpoint if one exists, else replay from
  // seq 1. RestoreFromCheckpoint is all-or-nothing, so a missing file and
  // a fresh engine are the same starting state.
  if (!config_.checkpoint_path.empty() && FileExists(config_.checkpoint_path)) {
    SSA_RETURN_IF_ERROR(engine_.RestoreFromCheckpoint(config_.checkpoint_path));
  }
  const uint64_t boot_seq = static_cast<uint64_t>(engine_.auctions_run());
  applied_seq_.store(boot_seq, std::memory_order_release);

  LogTailerOptions tail_options;
  tail_options.start_after_seq = boot_seq;
  SSA_ASSIGN_OR_RETURN(tailer_, LogTailer::Open(config_.log_path,
                                                tail_options));

  if (config_.metrics != nullptr) {
    applied_seq_gauge_ = config_.metrics->GetGauge(
        "replication_applied_seq", config_.metric_labels,
        "Highest settlement sequence applied to this follower");
    lag_seq_gauge_ = config_.metrics->GetGauge(
        "replication_lag_seq", config_.metric_labels,
        "Leader settled seq minus follower applied seq");
    lag_bytes_gauge_ = config_.metrics->GetGauge(
        "replication_lag_bytes", config_.metric_labels,
        "Log bytes past the follower's last consumed frame");
    applied_counter_ = config_.metrics->GetCounter(
        "replication_records_applied_total", config_.metric_labels,
        "Settlement records replayed onto this follower");
    const std::string labels =
        config_.metric_labels.empty() ? "" : config_.metric_labels + ",";
    auto reads = [&](const char* path) {
      return config_.metrics->GetCounter(
          "replication_reads_total", labels + "path=\"" + path + "\"",
          "What-if reads served: planned from the RHTALU planner's lists "
          "(logical) or by the brute-force fallback (brute)");
    };
    logical_reads_counter_ = reads("logical");
    brute_reads_counter_ = reads("brute");
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  apply_thread_ = std::thread([this] { ApplyLoop(); });
  return Status::Ok();
}

void FollowerEngine::Stop() {
  stop_.store(true, std::memory_order_release);
  applied_cv_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
  running_.store(false, std::memory_order_release);
}

Status FollowerEngine::status() const {
  std::lock_guard<std::mutex> guard(lock_);
  return err_;
}

bool FollowerEngine::WaitForSeq(uint64_t seq,
                                std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> guard(lock_);
  applied_cv_.wait_for(guard, timeout, [&] {
    return applied_seq_.load(std::memory_order_acquire) >= seq ||
           !err_.ok() || stop_.load(std::memory_order_acquire);
  });
  return applied_seq_.load(std::memory_order_acquire) >= seq;
}

void FollowerEngine::ApplyLoop() {
  std::vector<SettlementRecord> batch;
  bool at_limit = false;
  while (!stop_.load(std::memory_order_acquire)) {
    if (at_limit) {
      // Test knob: hold at the limit (the sweep's kill point) until Stop.
      std::this_thread::sleep_for(config_.poll_interval);
      continue;
    }
    batch.clear();
    const Status polled = tailer_->Poll(&batch);
    if (!polled.ok()) {
      std::lock_guard<std::mutex> guard(lock_);
      err_ = polled;
      applied_cv_.notify_all();
      break;
    }
    bytes_behind_.store(tailer_->bytes_behind(), std::memory_order_relaxed);
    bool applied_any = false;
    for (const SettlementRecord& record : batch) {
      if (config_.apply_limit_seq != 0 &&
          record.seq > config_.apply_limit_seq) {
        at_limit = true;
        break;
      }
      if (!ApplyRecord(record)) return;
      applied_any = true;
    }
    PublishGauges();
    if (!applied_any && !at_limit) {
      std::this_thread::sleep_for(config_.poll_interval);
    }
  }
  PublishGauges();
}

bool FollowerEngine::ApplyRecord(const SettlementRecord& record) {
  const uint64_t trace_seq =
      config_.tracer != nullptr ? config_.tracer->Sample(record.seq) : 0;
  const uint64_t t0 = trace_seq != 0 ? Tracer::NowNs() : 0;
  {
    std::lock_guard<std::mutex> guard(lock_);
    // Replay-as-apply: re-executing the logged query IS the state
    // transition. Same seed + same account state -> the user RNG reproduces
    // the leader's events bitwise, which the check below pins per record.
    const AuctionOutcome& outcome = engine_.RunAuctionOn(record.query);
    if (!record.MatchesOutcome(outcome)) {
      err_ = Status::DataLoss(
          "follower diverged from the settlement log at seq " +
          std::to_string(record.seq) +
          " (seed/workload/strategy mismatch with the leader?)");
      applied_cv_.notify_all();
      return false;
    }
    applied_seq_.store(record.seq, std::memory_order_release);
    records_applied_.fetch_add(1, std::memory_order_relaxed);
    applied_cv_.notify_all();
  }
  if (applied_counter_ != nullptr) applied_counter_->Increment();
  if (trace_seq != 0) {
    config_.tracer->RecordSpan(trace_seq, TraceStage::kFollowerApply,
                               kFollowerTrack, t0, Tracer::NowNs());
  }
  return true;
}

void FollowerEngine::PublishGauges() {
  const uint64_t applied = applied_seq_.load(std::memory_order_acquire);
  if (applied_seq_gauge_ != nullptr) {
    applied_seq_gauge_->Set(static_cast<int64_t>(applied));
  }
  if (lag_bytes_gauge_ != nullptr) {
    lag_bytes_gauge_->Set(
        static_cast<int64_t>(bytes_behind_.load(std::memory_order_relaxed)));
  }
  if (lag_seq_gauge_ != nullptr && config_.leader_seq) {
    const uint64_t leader = config_.leader_seq();
    lag_seq_gauge_->Set(
        static_cast<int64_t>(leader > applied ? leader - applied : 0));
  }
}

Status FollowerEngine::WhatIf(const Query& query,
                              ShardedAuctionEngine::PlannedAuction* plan,
                              uint64_t* applied_at) {
  std::lock_guard<std::mutex> guard(lock_);
  SSA_RETURN_IF_ERROR(err_);
  const int64_t logical_before = engine_.logical_reads();
  engine_.WhatIfAuction(query, plan);
  Counter* path = engine_.logical_reads() > logical_before
                      ? logical_reads_counter_
                      : brute_reads_counter_;
  if (path != nullptr) path->Increment();
  if (applied_at != nullptr) {
    *applied_at = applied_seq_.load(std::memory_order_acquire);
  }
  return Status::Ok();
}

Status FollowerEngine::EstimatePrices(const Query& query,
                                      std::vector<Money>* prices,
                                      uint64_t* applied_at) {
  ShardedAuctionEngine::PlannedAuction plan;
  SSA_RETURN_IF_ERROR(WhatIf(query, &plan, applied_at));
  *prices = std::move(plan.prices);
  return Status::Ok();
}

Status FollowerEngine::AccountSnapshot(AdvertiserId id,
                                       AdvertiserAccount* account,
                                       uint64_t* applied_at) {
  std::lock_guard<std::mutex> guard(lock_);
  SSA_RETURN_IF_ERROR(err_);
  const std::vector<AdvertiserAccount>& accounts = engine_.accounts();
  if (id < 0 || id >= static_cast<AdvertiserId>(accounts.size())) {
    return Status::InvalidArgument("no such advertiser: " +
                                   std::to_string(id));
  }
  *account = accounts[id];
  if (applied_at != nullptr) {
    *applied_at = applied_seq_.load(std::memory_order_acquire);
  }
  return Status::Ok();
}

Status FollowerEngine::AccountsSnapshot(
    std::vector<AdvertiserAccount>* accounts, uint64_t* applied_at) {
  std::lock_guard<std::mutex> guard(lock_);
  SSA_RETURN_IF_ERROR(err_);
  *accounts = engine_.accounts();
  if (applied_at != nullptr) {
    *applied_at = applied_seq_.load(std::memory_order_acquire);
  }
  return Status::Ok();
}

Status FollowerEngine::TotalRevenue(Money* revenue, uint64_t* applied_at) {
  std::lock_guard<std::mutex> guard(lock_);
  SSA_RETURN_IF_ERROR(err_);
  *revenue = engine_.total_revenue();
  if (applied_at != nullptr) {
    *applied_at = applied_seq_.load(std::memory_order_acquire);
  }
  return Status::Ok();
}

Status FollowerEngine::WriteCheckpoint(const std::string& path) {
  std::lock_guard<std::mutex> guard(lock_);
  SSA_RETURN_IF_ERROR(err_);
  return engine_.WriteCheckpoint(path);
}

}  // namespace ssa
