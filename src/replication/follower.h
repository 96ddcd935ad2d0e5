#ifndef SSA_REPLICATION_FOLLOWER_H_
#define SSA_REPLICATION_FOLLOWER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "auction/sharded_engine.h"
#include "auction/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/log_tailer.h"
#include "strategy/strategy.h"
#include "util/status.h"

namespace ssa {

struct FollowerConfig {
  /// Engine shape — must match the leader's workload, strategy lineup, and
  /// seed (the bitwise contract's preconditions). The shard count and pool
  /// may differ freely: checkpoints and replay are shard-layout-portable.
  ShardedEngineConfig engine;
  /// Checkpoint to bootstrap from; skipped when empty or absent (the
  /// follower then replays the log from seq 1).
  std::string checkpoint_path;
  /// The leader's settlement log to tail.
  std::string log_path;
  /// Apply-thread sleep between polls that found nothing.
  std::chrono::milliseconds poll_interval{2};
  /// Test knob: stop applying past this sequence (0 = no limit). The apply
  /// thread idles there — the kill point of the restart sweep.
  uint64_t apply_limit_seq = 0;

  // --- Observability (all optional, not owned).
  /// Registry for replication_* gauges/counters; null = no metrics.
  MetricsRegistry* metrics = nullptr;
  /// Label value for this follower's metrics, e.g. "follower=\"f0\"".
  std::string metric_labels;
  /// Span sink: one kFollowerApply span per applied record (subject to the
  /// tracer's own sampling, keyed by record seq).
  Tracer* tracer = nullptr;
  /// The leader's settled sequence, for the replication_lag_seq gauge and
  /// bounded-staleness routing. Must be safe to call from the apply thread
  /// (e.g. AuctionServer::settled_seq, an atomic read). Null = lag gauges
  /// report only byte lag.
  std::function<uint64_t()> leader_seq;
};

/// A read-only replica: a private ShardedAuctionEngine bootstrapped from
/// the leader's checkpoint, fed by a LogTailer, serving snapshot reads.
///
/// Replaying the log IS the state machine: each record is applied by
/// re-executing RunAuctionOn(record.query) on the replica, which — given
/// equal seed, workload, and strategies — reproduces the leader's
/// settlement bitwise (same user-RNG draws, same account deltas, same
/// revenue; fault_injection_test pins the same property for recovery).
/// Every applied record is verified bitwise against its replayed outcome
/// (SettlementRecord::MatchesOutcome); a mismatch is sticky kDataLoss, so a
/// configuration mismatch surfaces at the first divergent record instead of
/// silently wrong reads — a diverged follower never serves reads.
///
/// Threading: one internal apply thread owns the tailer; a mutex serializes
/// applies against reads, so every read sees a frame-complete state at some
/// exact applied_seq (never mid-settlement). Reads on one follower
/// therefore contend with its applies — read throughput scales by adding
/// followers (ReadReplicaSet), not threads per follower.
class FollowerEngine {
 public:
  FollowerEngine(const FollowerConfig& config, Workload workload,
                 std::vector<std::unique_ptr<BiddingStrategy>> strategies);
  ~FollowerEngine();

  /// Bootstraps (checkpoint restore if configured and present), opens the
  /// tailer at the restored sequence, and starts the apply thread.
  Status Start();

  /// Stops and joins the apply thread. Idempotent. The engine state stays
  /// readable (at whatever applied_seq it reached) after Stop.
  void Stop();

  /// Highest sequence applied to the replica. Safe from any thread.
  uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }

  /// Byte lag as of the last poll (in-progress tail bytes count).
  uint64_t bytes_behind() const {
    return bytes_behind_.load(std::memory_order_relaxed);
  }

  int64_t records_applied() const {
    return records_applied_.load(std::memory_order_relaxed);
  }

  /// Sticky apply-path error (tailer corruption, replay divergence,
  /// bootstrap failure). A follower with !status().ok() refuses reads.
  Status status() const;

  /// True while the apply thread runs.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Blocks until applied_seq() >= seq, the timeout passes, or the
  /// follower stops/fails. Returns whether the target was reached — the
  /// read-your-writes gate.
  bool WaitForSeq(uint64_t seq, std::chrono::milliseconds timeout);

  /// One what-if auction at the replica's current snapshot (pure read:
  /// nothing on the replica moves). On success `*applied_at` (if non-null)
  /// reports the applied_seq the result is a function of.
  Status WhatIf(const Query& query, ShardedAuctionEngine::PlannedAuction* plan,
                uint64_t* applied_at = nullptr);

  /// Price estimate: the per-slot prices a query would clear at right now
  /// (the what-if's pricing output alone).
  Status EstimatePrices(const Query& query, std::vector<Money>* prices,
                        uint64_t* applied_at = nullptr);

  /// Snapshot of one advertiser's account at a frame-complete sequence.
  Status AccountSnapshot(AdvertiserId id, AdvertiserAccount* account,
                         uint64_t* applied_at = nullptr);

  /// Full account-state snapshot (the bitwise-equivalence probe).
  Status AccountsSnapshot(std::vector<AdvertiserAccount>* accounts,
                          uint64_t* applied_at = nullptr);

  /// Telemetry reads (frame-complete, like the snapshots).
  Status TotalRevenue(Money* revenue, uint64_t* applied_at = nullptr);

  /// Writes the replica's state as a standard engine checkpoint — a
  /// follower can absorb checkpoint I/O the leader would otherwise pay,
  /// and a restarted follower (or a new one) bootstraps from it.
  Status WriteCheckpoint(const std::string& path);

 private:
  void ApplyLoop();
  /// Applies one record under lock_. Sets err_ and returns false on
  /// divergence.
  bool ApplyRecord(const SettlementRecord& record);
  void PublishGauges();

  FollowerConfig config_;
  ShardedAuctionEngine engine_;
  std::unique_ptr<LogTailer> tailer_;
  std::thread apply_thread_;

  /// Serializes applies against reads; protects engine_ and err_.
  mutable std::mutex lock_;
  std::condition_variable applied_cv_;
  Status err_ = Status::Ok();

  std::atomic<uint64_t> applied_seq_{0};
  std::atomic<uint64_t> bytes_behind_{0};
  std::atomic<int64_t> records_applied_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Metric handles (null when metrics are off).
  Gauge* applied_seq_gauge_ = nullptr;
  Gauge* lag_seq_gauge_ = nullptr;
  Gauge* lag_bytes_gauge_ = nullptr;
  Counter* applied_counter_ = nullptr;
  /// replication_reads_total{path="logical"|"brute"}.
  Counter* logical_reads_counter_ = nullptr;
  Counter* brute_reads_counter_ = nullptr;
};

}  // namespace ssa

#endif  // SSA_REPLICATION_FOLLOWER_H_
