#ifndef SSA_DURABILITY_SETTLEMENT_LOG_H_
#define SSA_DURABILITY_SETTLEMENT_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "auction/outcome.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "util/status.h"

namespace ssa {

/// One settled auction, as persisted: everything needed to re-derive the
/// account deltas (the events carry charges and clicks per winner) and to
/// verify a replayed auction against what the pre-crash engine actually did.
/// `seq` is the engine's auction counter — records are strictly sequenced,
/// and recovery refuses a log with a gap.
struct SettlementRecord {
  uint64_t seq = 0;
  Query query;
  /// Winners per slot (slot_to_advertiser; -1 = unfilled).
  std::vector<AdvertiserId> winners;
  /// Per-slot charge for the allocation (GSP per-click or VCG lump).
  std::vector<Money> prices;
  /// Realized user behavior + charges, one entry per filled slot. These are
  /// the account deltas: clicked adds value_gained, charged adds spend.
  std::vector<UserEvent> events;
  double matching_weight = 0.0;
  double expected_revenue = 0.0;
  Money revenue_charged = 0;

  /// Builds the record for `outcome`, settled as auction number `seq`.
  static SettlementRecord FromOutcome(uint64_t seq,
                                      const AuctionOutcome& outcome);

  /// Bitwise comparison against a (re-)executed outcome — the recovery
  /// verification predicate. Exact double equality throughout: replay is
  /// only correct if it is bitwise.
  bool MatchesOutcome(const AuctionOutcome& outcome) const;
};

/// Fault-injection hook consulted by SettlementLogWriter on every append —
/// the test harness's lever for killing the engine at an exact auction index
/// and corrupting whatever had not yet been committed. Production writers
/// run without one.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Consulted after the framed record `seq` is staged into the writer's
  /// unsynced buffer. Returning true simulates process death at exactly this
  /// point: the writer passes the unsynced suffix to MutateUnsynced, writes
  /// whatever survives, and goes dead (every later call is a silent no-op,
  /// matching a killed process).
  virtual bool KillAt(uint64_t seq) {
    (void)seq;
    return false;
  }

  /// The fate of the bytes staged since the last durable commit, edited in
  /// place: erase all (clean kill — the OS never saw them), keep a prefix
  /// (torn write / short read), or flip bits (media corruption). The
  /// committed prefix of the log is never touched — that is the durability
  /// contract group commit buys.
  virtual void MutateUnsynced(std::string* unsynced) { unsynced->clear(); }
};

/// When appended records become durable.
enum class LogSyncMode {
  /// Stage in user space; write() to the OS every `group_records` appends
  /// and on Flush(). Survives process death for committed groups, not power
  /// loss.
  kBuffered,
  /// Like kBuffered plus fsync per group commit — the classic group commit:
  /// one fsync amortized over `group_records` settlements.
  kGroupFsync,
  /// write() + fsync every record. The durability ceiling and the cost
  /// floor bench_durability quantifies.
  kFsyncEach,
};

struct LogWriterOptions {
  LogSyncMode sync = LogSyncMode::kBuffered;
  /// Commit threshold in records for the buffered/group-fsync modes.
  size_t group_records = 32;

  // --- Observability sinks (not owned; null = off). The writer stays
  // single-threaded; the histograms are wait-free, so a metrics snapshot may
  // read them while the executor commits.
  /// fsync latency per sync, microseconds.
  LatencyHistogram* fsync_us = nullptr;
  /// Records per group commit (the group-size distribution).
  LatencyHistogram* commit_records = nullptr;
  /// kLogFsync spans (one per fsync, stamped with the last committed seq).
  Tracer* tracer = nullptr;
};

/// Append-only settlement-log writer: length-prefixed, CRC32-checksummed
/// frames, group-commit batching so the serving hot path pays one write (and
/// at most one fsync) per `group_records` settlements. Single-writer by
/// contract — the serving executor owns it, and no method is thread-safe:
/// Append/Flush must come from one thread, with Appends strictly in
/// settlement order (seq gaps are rejected). The server settles, and hence
/// appends, on its executor thread, in arrival order.
class SettlementLogWriter {
 public:
  /// Opens `path` for appending, creating it if absent. `next_seq` is the
  /// sequence number the first Append must carry (1 for a fresh log; the
  /// recovered seq + 1 after restore-then-replay). `injector` may be null
  /// and is not owned.
  static StatusOr<std::unique_ptr<SettlementLogWriter>> Open(
      const std::string& path, const LogWriterOptions& options,
      uint64_t next_seq = 1, FaultInjector* injector = nullptr);

  ~SettlementLogWriter();
  SettlementLogWriter(const SettlementLogWriter&) = delete;
  SettlementLogWriter& operator=(const SettlementLogWriter&) = delete;

  /// Stages one record; commits the pending group when the threshold is
  /// reached. Records must arrive in sequence (seq == next expected).
  Status Append(const SettlementRecord& record);

  /// Commits everything staged (write + fsync per the sync mode). The
  /// graceful-shutdown path: Stop() drains the executor, then flushes.
  Status Flush();

  /// True once a FaultInjector killed this writer; all operations are
  /// no-ops from then on.
  bool dead() const { return dead_; }

  uint64_t next_seq() const { return next_seq_; }
  int64_t records_appended() const { return records_appended_; }
  int64_t commits() const { return commits_; }
  int64_t syncs() const { return syncs_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  SettlementLogWriter(int fd, std::string path, const LogWriterOptions& opts,
                      uint64_t next_seq, FaultInjector* injector);

  /// Writes the pending buffer to the fd (+fsync per mode) and clears it.
  Status CommitPending(bool force_sync);
  /// Kill path: mutates the unsynced suffix per the injector, writes what
  /// survives, and marks the writer dead.
  void Die();

  const int fd_;
  const std::string path_;
  const LogWriterOptions options_;
  FaultInjector* const injector_;
  std::string pending_;
  size_t pending_records_ = 0;
  uint64_t next_seq_;
  bool dead_ = false;
  int64_t records_appended_ = 0;
  int64_t commits_ = 0;
  int64_t syncs_ = 0;
  uint64_t bytes_written_ = 0;
};

/// How a log scan's tail ended — the distinction that lets a live tailer
/// (src/replication/log_tailer.h) wait for more bytes instead of declaring
/// data loss.
enum class LogTailKind : uint8_t {
  /// The last byte of the file ends the last intact frame.
  kClean,
  /// The tail is a *prefix* of a well-formed frame: a short header or a
  /// payload shorter than its length prefix. Indistinguishable from a
  /// group-commit write in progress, so a tailer should wait and re-read;
  /// after a crash it is the classic torn-write artifact recovery truncates.
  kIncomplete,
  /// The tail is provably not a frame prefix: an insane length, a CRC
  /// mismatch on a complete payload, an undecodable payload, or a sequence
  /// gap. Waiting cannot fix it — truncate (recovery) or fail (tailer).
  kCorrupt,
};

/// What a log scan found. `valid_bytes` is the byte offset of the first
/// undecodable frame (== file size for a clean log): truncating the file to
/// it removes the corrupt tail while keeping every intact record.
struct LogReadStats {
  int64_t records = 0;
  uint64_t last_seq = 0;
  uint64_t valid_bytes = 0;
  /// Bytes past the last intact record (torn tail, bit flip, short read).
  uint64_t corrupt_bytes = 0;
  LogTailKind tail = LogTailKind::kClean;
  bool tail_truncated() const { return corrupt_bytes > 0; }
};

/// Reads every intact record of `path` in order. A frame that fails the
/// length, CRC, decode, or sequence check ends the scan: the suffix from
/// that offset on is reported in `stats->corrupt_bytes` rather than being an
/// error — a torn tail is an expected crash artifact, and the caller decides
/// whether to truncate (see RecoverEngine). A missing file reads as an empty
/// log.
Status ReadSettlementLog(const std::string& path,
                         std::vector<SettlementRecord>* records,
                         LogReadStats* stats);

/// Encodes `record` as one framed log entry:
///   [u32 payload_len][u32 crc32(payload)][payload]
/// (exposed for tests that hand-craft corrupt logs).
void EncodeLogFrame(const SettlementRecord& record, std::string* out);

/// What ParseLogFrame found at a buffer position.
enum class FrameParse : uint8_t {
  kRecord,      // one intact frame decoded; *frame_bytes consumed
  kIncomplete,  // the buffer ends inside a plausible frame (live tail)
  kCorrupt,     // provably not a frame (bad length / CRC / payload)
};

/// Decodes the frame starting at `data[pos]`. On kRecord, `*record` holds
/// the decoded settlement and `*frame_bytes` the framed size (header +
/// payload). Sequence continuity is the caller's concern — the frame itself
/// carries its seq. Shared by the recovery scan and the live tailer, so the
/// two agree byte-for-byte on what counts as intact.
FrameParse ParseLogFrame(std::string_view data, size_t pos,
                         SettlementRecord* record, size_t* frame_bytes);

}  // namespace ssa

#endif  // SSA_DURABILITY_SETTLEMENT_LOG_H_
