#ifndef SSA_SERVING_AUCTION_SERVER_H_
#define SSA_SERVING_AUCTION_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "auction/sharded_engine.h"
#include "durability/recovery.h"
#include "durability/settlement_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bounded_queue.h"
#include "util/histogram.h"

namespace ssa {

/// One admitted query: what travels through the ingestion queue.
struct ServingRequest {
  Query query;
  /// Admission timestamp — queue-wait and end-to-end latency anchor.
  std::chrono::steady_clock::time_point admitted_at{};
  /// Sampled trace sequence (0 = this query records no spans). Assigned at
  /// Submit from the admission counter, deterministically 1-in-N.
  uint64_t trace_seq = 0;
};

/// Observability knobs. Metrics default on (wait-free instruments; the
/// executor additionally publishes engine/log gauges and totals once per
/// batch); tracing defaults off. Neither path touches auction values —
/// instrumentation only reads clocks and writes side state — so the
/// served trajectory stays bitwise-identical at any sampling rate
/// (serving_test pins this at full sampling). For periodic export, snapshot
/// metrics() from the caller's own thread.
struct ObsConfig {
  /// Register instruments and publish per-batch gauges. false = the
  /// registry stays empty and the serving path records only the four
  /// pre-existing stage histograms.
  bool metrics = true;
  /// sample_every = 0 disables tracing; the hot path then pays one null
  /// check per stage.
  TraceConfig trace;
};

/// Durability knobs for the serving path. All off by default — the server
/// behaves exactly as before unless a log path is configured.
struct DurabilityConfig {
  /// Settlement-log sink: every settled auction is appended as a sequenced,
  /// checksummed record. Empty = durability off.
  std::string log_path;
  LogWriterOptions writer;
  /// Checkpoint file recovery rewinds to (and WriteCheckpoint() targets).
  /// Empty or missing = recover by replaying the whole log.
  std::string checkpoint_path;
  /// Run restore-then-replay in Start() before the executor launches.
  bool recover_on_start = true;
  /// Test hook threaded into the log writer (crash/corruption injection).
  /// Not owned; null in production.
  FaultInjector* injector = nullptr;
};

/// Serving-layer knobs on top of the sharded engine configuration.
struct ServerConfig {
  /// Engine knobs (winner determination, pricing, seed, shard count, pool).
  /// `engine.pool` is the same pool the shard phase of every planned
  /// auction runs on — the server adds no pool of its own.
  ShardedEngineConfig engine;
  /// Ingestion bound (one mutex-guarded BoundedQueue).
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Micro-batch cap. The executor never waits to fill a batch: it takes
  /// the first request as soon as one is queued, plus whatever else is
  /// already waiting, up to `max_batch_size` requests.
  int max_batch_size = 16;
  DurabilityConfig durability;
  ObsConfig obs;
};

/// Asynchronous serving front-end for the sharded auction engine: producers
/// Submit() queries into one bounded, mutex-guarded ingestion queue (block or
/// reject backpressure); a single executor thread pulls micro-batches of
/// whatever is queued, never waiting for batch-mates, and drives them
/// through the ShardedAuctionEngine (whose shard phase fans out on the
/// configured ThreadPool, the executor running shard chunks too).
/// Each query is planned against the current account state and settled
/// before the next one is planned, so given a fixed arrival order the
/// served trajectory reproduces the serial engine loop *bitwise* — for any
/// batch size, shard count, or pool — because batch boundaries only group
/// work, never reorder it (serving_test pins this against the test-only
/// serial reference engine). Per-stage latencies — queue wait, auction
/// (plan), settlement, end-to-end — are recorded into log-bucketed
/// histograms (a request's queue wait runs until its own planning starts,
/// so the three stages sum exactly to end-to-end), and admission verdicts
/// are counted, so tail latency under load is a measured quantity rather
/// than an offline extrapolation.
///
/// Threading contract: Submit() is safe from any number of producer
/// threads; the engine's mutable state (accounts, strategies, user RNG) is
/// touched only by the executor; telemetry accessors are safe any time
/// (relaxed atomics) but meaningfully consistent after Stop(). The
/// completion hook runs on the executor thread, in settlement (arrival)
/// order.
class AuctionServer {
 public:
  using CompletionFn = std::function<void(const AuctionOutcome&)>;

  AuctionServer(const ServerConfig& config, Workload workload,
                std::vector<std::unique_ptr<BiddingStrategy>> strategies);
  ~AuctionServer();

  AuctionServer(const AuctionServer&) = delete;
  AuctionServer& operator=(const AuctionServer&) = delete;

  /// Installs the per-auction completion hook. Must precede Start().
  void set_on_complete(CompletionFn fn);

  /// Launches the executor thread. Must be called at most once. With
  /// durability configured, first runs restore-then-replay recovery
  /// (checkpoint, then the settlement log's intact suffix, every record
  /// verified; a torn tail is truncated) and opens the log sink at the
  /// recovered sequence — a recovery error leaves the server unstarted.
  /// Without durability, never fails.
  Status Start();

  /// Closes the ingestion queue, lets the executor drain every admitted
  /// request, joins it, and then flushes the settlement log — every settled
  /// auction is in the OS (and on disk under kGroupFsync/kFsyncEach) when
  /// Stop() returns. Idempotent; also invoked by the destructor.
  void Stop();

  /// Checkpoints the engine to `durability.checkpoint_path`. Call while the
  /// executor is quiescent (before Start() or after Stop()): checkpoints
  /// must snapshot a settlement boundary.
  Status WriteCheckpoint() const;

  /// Admits one query per the backpressure policy. Thread-safe.
  QueuePushResult Submit(Query query);

  // --- Telemetry -----------------------------------------------------------
  /// Stage latencies in microseconds.
  const LatencyHistogram& queue_wait_us() const { return queue_wait_us_; }
  const LatencyHistogram& auction_us() const { return auction_us_; }
  const LatencyHistogram& settlement_us() const { return settlement_us_; }
  const LatencyHistogram& end_to_end_us() const { return end_to_end_us_; }

  /// Clears the four stage histograms (admission counters are untouched) —
  /// the warmup/measured boundary of the load harnesses. Call only while no
  /// request is in flight (e.g. after completed() has caught up with every
  /// submission), otherwise concurrent Record()s may straddle the reset.
  void ResetTelemetry() {
    queue_wait_us_.Reset();
    auction_us_.Reset();
    settlement_us_.Reset();
    end_to_end_us_.Reset();
  }

  /// Admission / completion counters.
  int64_t accepted() const { return queue_.accepted(); }
  int64_t rejected() const { return queue_.rejected(); }
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  int64_t batches() const { return batches_.load(std::memory_order_relaxed); }

  /// The served engine (read after Stop() for settled accounts/revenue).
  const ShardedAuctionEngine& engine() const { return engine_; }
  const ServerConfig& config() const { return config_; }

  // --- Durability telemetry -----------------------------------------------
  /// What Start()'s recovery did (zeroes when durability is off or
  /// recover_on_start was false).
  const RecoveryReport& recovery() const { return recovery_; }
  /// Auctions settled since the checkpoint recovery restored (== the replay
  /// cost of a crash right now, in auctions).
  int64_t checkpoint_age() const {
    return engine_.auctions_run() -
           static_cast<int64_t>(recovery_.checkpoint_seq);
  }
  /// Sequence of the last settled auction, readable from any thread — the
  /// read-your-writes token for replicated reads: a client that saw its
  /// write complete passes this as ReadOptions::min_seq (kAtLeastSeq) and
  /// any follower at or past it reflects the write. Monotone; equals
  /// engine().auctions_run() but, unlike it, is safe to read while the
  /// executor settles.
  uint64_t settled_seq() const {
    return settled_seq_.load(std::memory_order_acquire);
  }
  /// First settlement-log append/flush error, if any (OK otherwise). The
  /// executor keeps serving on log errors; callers decide whether a lame
  /// log sink is fatal.
  Status log_status() const;
  /// The log sink, if configured (counters: records appended, commits,
  /// syncs, bytes). Null when durability is off.
  const SettlementLogWriter* log_writer() const { return log_writer_.get(); }

  // --- Observability --------------------------------------------------------
  /// The unified metrics registry: stage histograms, admission/completion
  /// counters, queue depth, per-shard engine and planner telemetry, and
  /// durability gauges all snapshot through here.
  /// Snapshot()/exporters are safe any time; per-shard and log gauges are
  /// refreshed by the executor at batch boundaries (and once more at
  /// Stop()), so they trail live state by at most one batch.
  const MetricsRegistry& metrics() const { return registry_; }
  MetricsRegistry* mutable_metrics() { return &registry_; }
  /// The pipeline tracer (null when obs.trace.sample_every == 0).
  const Tracer* tracer() const { return tracer_.get(); }
  /// Decoded spans currently in the trace ring, start-ordered (empty when
  /// tracing is off). Export with Tracer::ExportChromeTrace.
  std::vector<TraceEvent> DrainTrace() const {
    return tracer_ != nullptr ? tracer_->Drain() : std::vector<TraceEvent>();
  }

 private:
  void ExecutorLoop();
  /// Plans and settles each query of the batch in turn, on this thread,
  /// recording its stage latencies, spans, log record and completion.
  void RunBatch(std::vector<ServingRequest>* batch);
  /// Registers instruments/collectors and constructs the tracer (called from
  /// the constructor; no-ops per ObsConfig).
  void SetupObservability();
  /// Pushes plain (non-atomic) engine and log-writer state into the
  /// registry: shard stats and checkpoint age as gauges, cache and log
  /// totals as counters (advanced by the change since the last publish).
  /// Executor thread only (batch boundaries + Stop), which is what keeps
  /// the snapshot side race-free: snapshots read only atomic
  /// instrument words, never the engine's plain state.
  void PublishEngineGauges();

  ServerConfig config_;
  ShardedAuctionEngine engine_;
  BoundedQueue<ServingRequest> queue_;

  /// Appends the settled outcome to the log sink (no-op when off); records
  /// the first failure in log_status_. Executor thread only.
  void LogSettlement(const AuctionOutcome& outcome, uint64_t trace_seq);

  CompletionFn on_complete_;
  std::thread executor_;
  bool started_ = false;
  bool stopped_ = false;

  std::unique_ptr<SettlementLogWriter> log_writer_;
  RecoveryReport recovery_;
  /// Last settled sequence (see settled_seq()). Written by the executor in
  /// LogSettlement — which runs for every settled auction, log sink or not.
  std::atomic<uint64_t> settled_seq_{0};
  mutable std::mutex log_status_mu_;
  Status log_status_;  // guarded by log_status_mu_

  LatencyHistogram queue_wait_us_;
  LatencyHistogram auction_us_;
  LatencyHistogram settlement_us_;
  LatencyHistogram end_to_end_us_;
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> batches_{0};

  // --- Observability state --------------------------------------------------
  MetricsRegistry registry_;
  std::unique_ptr<Tracer> tracer_;
  /// Admission sequence feeding the deterministic trace sampler (counted
  /// only when tracing is configured).
  std::atomic<uint64_t> admissions_{0};
  /// Interned instrument, null when obs.metrics is false.
  LatencyHistogram* batch_size_hist_ = nullptr;

  /// Plan scratch, reused by every query.
  ShardedAuctionEngine::PlannedAuction plan_;
};

}  // namespace ssa

#endif  // SSA_SERVING_AUCTION_SERVER_H_
