#include "replication/log_tailer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace ssa {

StatusOr<std::unique_ptr<LogTailer>> LogTailer::Open(
    const std::string& path, const LogTailerOptions& options) {
  std::unique_ptr<LogTailer> tailer(new LogTailer(path, options));
  // A missing file is not an error — the leader may not have settled its
  // first group yet. Anything else (permissions, a directory) is.
  SSA_RETURN_IF_ERROR(tailer->EnsureOpen());
  return tailer;
}

LogTailer::LogTailer(std::string path, const LogTailerOptions& options)
    : path_(std::move(path)),
      options_(options),
      last_seq_(options.start_after_seq) {}

LogTailer::~LogTailer() {
  if (fd_ >= 0) ::close(fd_);
}

Status LogTailer::EnsureOpen() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    if (errno == ENOENT) return Status::Ok();  // not written yet
    return Status::Internal("open " + path_ + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

Status LogTailer::Fail(Status status) {
  status_ = std::move(status);
  return status_;
}

Status LogTailer::Poll(std::vector<SettlementRecord>* records) {
  ++polls_;
  if (!status_.ok()) return status_;
  SSA_RETURN_IF_ERROR(EnsureOpen());
  if (fd_ < 0) return Status::Ok();  // file still absent: nothing yet

  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Fail(
        Status::Internal("fstat " + path_ + ": " + std::strerror(errno)));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < file_offset_) {
    // The log is append-only by contract; bytes this tailer already read
    // vanishing means the file was truncated or replaced underneath it.
    return Fail(Status::DataLoss(
        "settlement log " + path_ + " shrank beneath the tailer (" +
        std::to_string(size) + " < " + std::to_string(file_offset_) + ")"));
  }

  // Pull what is new into the carry buffer, at most kPollBytes per poll:
  // a follower far behind a fast leader takes the backlog in bounded
  // batches instead of holding all of it, raw and decoded, at once.
  uint64_t budget = kPollBytes;
  while (file_offset_ < size && budget > 0) {
    char buf[64 << 10];
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        std::min<uint64_t>(sizeof(buf), budget), size - file_offset_));
    const ssize_t n =
        ::pread(fd_, buf, want, static_cast<off_t>(file_offset_));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail(
          Status::Internal("pread " + path_ + ": " + std::strerror(errno)));
    }
    if (n == 0) break;  // raced a truncation check; next poll re-stats
    carry_.append(buf, static_cast<size_t>(n));
    file_offset_ += static_cast<uint64_t>(n);
    budget -= static_cast<uint64_t>(n);
  }

  // Parse complete frames off the front of the carry buffer.
  size_t pos = 0;
  while (pos < carry_.size()) {
    SettlementRecord record;
    size_t frame_bytes = 0;
    const FrameParse parse = ParseLogFrame(carry_, pos, &record, &frame_bytes);
    if (parse == FrameParse::kIncomplete) break;  // live tail — wait
    if (parse == FrameParse::kCorrupt) {
      carry_.erase(0, pos);
      return Fail(Status::DataLoss(
          "settlement log " + path_ + " corrupt at offset " +
          std::to_string(file_offset_ - carry_.size())));
    }
    if (parsed_seq_ != 0 && record.seq != parsed_seq_ + 1) {
      carry_.erase(0, pos);
      return Fail(Status::DataLoss(
          "settlement log " + path_ + " sequence gap: got " +
          std::to_string(record.seq) + " after " +
          std::to_string(parsed_seq_)));
    }
    parsed_seq_ = record.seq;
    pos += frame_bytes;
    if (record.seq > options_.start_after_seq) {
      if (record.seq != last_seq_ + 1) {
        // First delivery past the resume point must be exactly the next
        // sequence — a log starting beyond it cannot rebuild the state.
        carry_.erase(0, pos);
        return Fail(Status::DataLoss(
            "settlement log " + path_ + " resumes at seq " +
            std::to_string(record.seq) + ", tailer needs " +
            std::to_string(last_seq_ + 1)));
      }
      last_seq_ = record.seq;
      ++records_delivered_;
      records->push_back(std::move(record));
    }
  }
  carry_.erase(0, pos);
  bytes_behind_ = carry_.size() + (size - file_offset_);
  return Status::Ok();
}

}  // namespace ssa
