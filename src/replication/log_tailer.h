#ifndef SSA_REPLICATION_LOG_TAILER_H_
#define SSA_REPLICATION_LOG_TAILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/settlement_log.h"
#include "util/status.h"

namespace ssa {

struct LogTailerOptions {
  /// Records with seq <= this are scanned past without being delivered —
  /// the resume point after a checkpoint bootstrap (pass the checkpoint's
  /// seq; the first delivered record is then start_after_seq + 1).
  uint64_t start_after_seq = 0;
};

/// Polling reader over a live settlement log: the follower's feed.
///
/// Unlike ReadSettlementLog — which reads a *dead* log once and treats the
/// tail as a crash artifact to truncate — the tailer reads a log a leader is
/// still appending to. The distinction that makes this safe is
/// LogTailKind/FrameParse (settlement_log.h): a tail that is a prefix of a
/// well-formed frame is indistinguishable from a group commit caught
/// mid-write, so the tailer holds those bytes in a carry buffer and retries
/// on the next poll; only a provably-bad frame (insane length, CRC mismatch
/// on a complete payload, undecodable payload, sequence gap) or the file
/// shrinking beneath already-consumed bytes is data loss. Errors are sticky:
/// once a poll fails, every later poll returns the same status — a tailer
/// cannot resynchronize past corruption, its owner must re-bootstrap.
///
/// Single-threaded by contract (the follower's apply thread owns it).
/// Opening a path that does not exist yet is fine — the leader may not have
/// settled anything; polls deliver nothing until the file appears.
class LogTailer {
 public:
  static StatusOr<std::unique_ptr<LogTailer>> Open(
      const std::string& path, const LogTailerOptions& options = {});

  ~LogTailer();
  LogTailer(const LogTailer&) = delete;
  LogTailer& operator=(const LogTailer&) = delete;

  /// Bytes one poll reads at most (about 400 records of the paper
  /// workload).
  static constexpr uint64_t kPollBytes = 256 << 10;

  /// Reads up to kPollBytes of what the leader has written since the last
  /// poll and appends every newly complete record with seq >
  /// start_after_seq to `*records` (which is NOT cleared), in sequence
  /// order. Returning OK with nothing appended means "no complete record
  /// yet" (a clean live tail, or a frame longer than one poll's read);
  /// wait and poll again. The in-progress tail of a buffered/group-commit
  /// write is carried, not consumed, so a frame split across two polls is
  /// delivered exactly once, whole.
  Status Poll(std::vector<SettlementRecord>* records);

  /// Highest sequence delivered so far (start_after_seq until the first
  /// delivery).
  uint64_t last_seq() const { return last_seq_; }

  /// Bytes the file held past the last fully consumed frame at the last
  /// poll, read or not yet read — the replication byte lag as seen from
  /// this side (an in-progress frame tail counts until it completes).
  uint64_t bytes_behind() const { return bytes_behind_; }

  int64_t records_delivered() const { return records_delivered_; }
  int64_t polls() const { return polls_; }
  const std::string& path() const { return path_; }

 private:
  LogTailer(std::string path, const LogTailerOptions& options);

  /// Opens the fd if the file now exists. OK (fd still -1) while it
  /// doesn't.
  Status EnsureOpen();
  Status Fail(Status status);  // records + returns the sticky error

  const std::string path_;
  const LogTailerOptions options_;
  int fd_ = -1;
  Status status_ = Status::Ok();  // sticky
  /// Unconsumed bytes read from the file: at most one in-progress frame
  /// plus whatever a read picked up beyond the last parse.
  std::string carry_;
  /// File offset of the next byte to read (== consumed bytes + carry_).
  uint64_t file_offset_ = 0;
  /// Seq of the last frame *parsed* (delivered or skipped); 0 before any.
  uint64_t parsed_seq_ = 0;
  uint64_t last_seq_;
  uint64_t bytes_behind_ = 0;
  int64_t records_delivered_ = 0;
  int64_t polls_ = 0;
};

}  // namespace ssa

#endif  // SSA_REPLICATION_LOG_TAILER_H_
