#ifndef SSA_OBS_TRACE_H_
#define SSA_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ssa {

/// Pipeline stages a query passes through in the serving executor. One span
/// is stamped per stage crossing; together they reconstruct the query's
/// journey submit -> queue wait -> plan (per-shard capture and plan slices,
/// or the RHTALU planner's bid step and Threshold Algorithm) -> settle ->
/// log append / group fsync. Values are stable across releases; retired
/// stages leave gaps.
enum class TraceStage : uint8_t {
  kQuery = 0,        // umbrella: submit -> settled (async span)
  kQueueWait = 1,    // submit -> planning starts (async span)
  kPlan = 3,         // planning, capture included (executor track)
  kSettle = 5,       // settlement + strategy updates
  kLogAppend = 6,    // settlement record append (buffered)
  kLogFsync = 7,     // group-commit fsync covering this batch
  kShardCapture = 8,  // per-shard slice of capture (shard track)
  kShardPlan = 9,     // per-shard slice of planning (shard plan track)
  kBatch = 10,        // executor micro-batch envelope
  kFollowerApply = 12,  // follower replays one settlement record
};

const char* TraceStageName(TraceStage stage);

/// Tracing knobs. `sample_every = N` records every N-th sampled query
/// (deterministic modulo on the admission sequence — the same queries are
/// sampled on every run, so replay comparisons see identical instrumentation
/// load). 0 disables tracing entirely (spans become a single predictable
/// branch).
struct TraceConfig {
  uint32_t sample_every = 0;      // 0 = off, 1 = every query, N = 1-in-N
  uint32_t ring_capacity = 1 << 16;  // spans retained (power of two)
};

/// One completed span. Fields are atomics only so the overwriting ring can
/// be read while writers race past it (see Tracer); logically this is plain
/// data guarded by `version`.
struct TraceSpan {
  std::atomic<uint64_t> version{0};  // seqlock: odd = write in progress
  std::atomic<uint64_t> seq{0};      // query admission sequence (0 = none)
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> end_ns{0};
  std::atomic<int32_t> track{0};  // see Tracer track-id scheme
  std::atomic<uint8_t> stage{0};
};

/// A decoded span, safe to copy/sort/serialize.
struct TraceEvent {
  uint64_t seq = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t track = 0;
  TraceStage stage = TraceStage::kQuery;
};

/// Tracks of the follower's apply spans and of the engine's RHTALU planner
/// spans (see the scheme below).
constexpr int32_t kFollowerTrack = 90;
constexpr int32_t kPlannerTrack = 199;

/// Fixed-size lock-free overwriting span ring with deterministic 1-in-N
/// sampling.
///
/// Write path: one relaxed fetch_add on the ring cursor, a CAS claiming
/// the cell's seqlock version (even -> odd), and relaxed field stores —
/// wait-free, allocation-free, safe from the executor, shard tasks on the
/// pool, and the follower concurrently. When the ring wraps, old spans are
/// overwritten. Two writers a full wrap apart can land on the same cell:
/// only the one whose CAS succeeds writes it, and the other drops its span
/// (it never retries or waits). Readers discard cells whose version is odd
/// or changed mid-read, so a drained span is never a mix of two writes.
/// Tracing is best-effort by design: it must never block or perturb the
/// pipeline.
///
/// Track-id scheme (rendered as Chrome trace tids):
///   0            executor thread
///   90           follower apply
///   100 + s      shard s capture slice
///   199          the RHTALU planner: its bid step (kShardCapture) and
///                Threshold Algorithm (kShardPlan)
///   200 + s      shard s plan slice
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config);

  /// True when tracing is configured on (sample_every > 0).
  bool enabled() const { return sample_every_ > 0; }

  /// Assigns the sampling decision for the query admitted with sequence
  /// number `admission_seq` (1-based). Returns a nonzero trace sequence if
  /// the query is sampled, 0 otherwise. Deterministic: seq 1, 1+N, 1+2N,
  /// ... are sampled.
  uint64_t Sample(uint64_t admission_seq) const {
    if (sample_every_ == 0) return 0;
    return (admission_seq - 1) % sample_every_ == 0 ? admission_seq : 0;
  }

  /// Current monotonic timestamp in ns (steady clock, same base for every
  /// span in this process).
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Records a completed span for sampled query `trace_seq` (no-op when 0).
  /// Wait-free; callable from any thread.
  void RecordSpan(uint64_t trace_seq, TraceStage stage, int32_t track,
                  uint64_t start_ns, uint64_t end_ns);

  /// Spans offered to the ring (its cursor), including those since
  /// overwritten by wrap-around or dropped on a lost cell claim.
  uint64_t spans_recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Decodes every consistent span currently in the ring, sorted by
  /// start_ns. Safe concurrently with writers (torn cells are skipped).
  std::vector<TraceEvent> Drain() const;

  /// Renders events as Chrome trace-event JSON (the `traceEvents` array
  /// format Perfetto loads directly): serial tracks emit complete "X"
  /// events; kQuery/kQueueWait — which overlap freely across queries — emit
  /// async "b"/"e" pairs keyed by query seq. A metadata record names each
  /// track.
  static std::string ExportChromeTrace(const std::vector<TraceEvent>& events);

 private:
  const uint32_t sample_every_;
  const uint32_t capacity_;  // power of two
  std::vector<TraceSpan> ring_;
  mutable std::atomic<uint64_t> cursor_{0};
};

}  // namespace ssa

#endif  // SSA_OBS_TRACE_H_
