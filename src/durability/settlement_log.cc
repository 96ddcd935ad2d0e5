#include "durability/settlement_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "durability/wire.h"

namespace ssa {
namespace {

/// Frames larger than this are treated as corruption: no auction encodes to
/// gigabytes, and an insane length prefix must not drive a giant allocation.
constexpr uint32_t kMaxFrameBytes = 64u << 20;
/// Encoded size of one winner and of one UserEvent (advertiser, slot,
/// clicked, purchased, charged).
constexpr size_t kWinnerBytes = 4;
constexpr size_t kEventBytes = 4 + 4 + 1 + 1 + 8;

void EncodePayload(const SettlementRecord& record, std::string* out) {
  WireWriter w(out);
  w.PutU64(record.seq);
  w.PutI32(record.query.keyword);
  w.PutI64(record.query.time);
  w.PutDoubleVector(record.query.relevance);
  w.PutU32(static_cast<uint32_t>(record.winners.size()));
  for (AdvertiserId id : record.winners) w.PutI32(id);
  w.PutDoubleVector(record.prices);
  w.PutU32(static_cast<uint32_t>(record.events.size()));
  for (const UserEvent& e : record.events) {
    w.PutI32(e.advertiser);
    w.PutI32(e.slot);
    w.PutU8(e.clicked ? 1 : 0);
    w.PutU8(e.purchased ? 1 : 0);
    w.PutDouble(e.charged);
  }
  w.PutDouble(record.matching_weight);
  w.PutDouble(record.expected_revenue);
  w.PutDouble(record.revenue_charged);
}

Status DecodePayload(std::string_view payload, SettlementRecord* record) {
  WireReader r(payload);
  SSA_RETURN_IF_ERROR(r.GetU64(&record->seq));
  SSA_RETURN_IF_ERROR(r.GetI32(&record->query.keyword));
  SSA_RETURN_IF_ERROR(r.GetI64(&record->query.time));
  SSA_RETURN_IF_ERROR(r.GetDoubleVector(&record->query.relevance));
  // A count is checked against the bytes left before anything is sized by
  // it: a forged count must not drive a giant allocation.
  uint32_t n = 0;
  SSA_RETURN_IF_ERROR(r.GetU32(&n));
  if (n > r.remaining() / kWinnerBytes) {
    return Status::InvalidArgument("short read: winner list");
  }
  record->winners.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    SSA_RETURN_IF_ERROR(r.GetI32(&record->winners[i]));
  }
  SSA_RETURN_IF_ERROR(r.GetDoubleVector(&record->prices));
  SSA_RETURN_IF_ERROR(r.GetU32(&n));
  if (n > r.remaining() / kEventBytes) {
    return Status::InvalidArgument("short read: event list");
  }
  record->events.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    UserEvent& e = record->events[i];
    uint8_t clicked = 0, purchased = 0;
    SSA_RETURN_IF_ERROR(r.GetI32(&e.advertiser));
    SSA_RETURN_IF_ERROR(r.GetI32(&e.slot));
    SSA_RETURN_IF_ERROR(r.GetU8(&clicked));
    SSA_RETURN_IF_ERROR(r.GetU8(&purchased));
    SSA_RETURN_IF_ERROR(r.GetDouble(&e.charged));
    e.clicked = clicked != 0;
    e.purchased = purchased != 0;
  }
  SSA_RETURN_IF_ERROR(r.GetDouble(&record->matching_weight));
  SSA_RETURN_IF_ERROR(r.GetDouble(&record->expected_revenue));
  SSA_RETURN_IF_ERROR(r.GetDouble(&record->revenue_charged));
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in log payload");
  }
  return Status::Ok();
}

}  // namespace

SettlementRecord SettlementRecord::FromOutcome(uint64_t seq,
                                               const AuctionOutcome& outcome) {
  SettlementRecord record;
  record.seq = seq;
  record.query = outcome.query;
  record.winners = outcome.wd.allocation.slot_to_advertiser;
  record.prices = outcome.prices;
  record.events = outcome.events;
  record.matching_weight = outcome.wd.matching_weight;
  record.expected_revenue = outcome.wd.expected_revenue;
  record.revenue_charged = outcome.revenue_charged;
  return record;
}

bool SettlementRecord::MatchesOutcome(const AuctionOutcome& outcome) const {
  if (query.keyword != outcome.query.keyword ||
      query.time != outcome.query.time ||
      winners != outcome.wd.allocation.slot_to_advertiser ||
      prices != outcome.prices ||
      matching_weight != outcome.wd.matching_weight ||
      expected_revenue != outcome.wd.expected_revenue ||
      revenue_charged != outcome.revenue_charged ||
      events.size() != outcome.events.size()) {
    return false;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const UserEvent& a = events[i];
    const UserEvent& b = outcome.events[i];
    if (a.advertiser != b.advertiser || a.slot != b.slot ||
        a.clicked != b.clicked || a.purchased != b.purchased ||
        a.charged != b.charged) {
      return false;
    }
  }
  return true;
}

void EncodeLogFrame(const SettlementRecord& record, std::string* out) {
  std::string payload;
  EncodePayload(record, &payload);
  WireWriter w(out);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  out->append(payload);
}

StatusOr<std::unique_ptr<SettlementLogWriter>> SettlementLogWriter::Open(
    const std::string& path, const LogWriterOptions& options,
    uint64_t next_seq, FaultInjector* injector) {
  if (options.group_records < 1) {
    return Status::InvalidArgument("group_records must be >= 1");
  }
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<SettlementLogWriter>(
      new SettlementLogWriter(fd, path, options, next_seq, injector));
}

SettlementLogWriter::SettlementLogWriter(int fd, std::string path,
                                         const LogWriterOptions& options,
                                         uint64_t next_seq,
                                         FaultInjector* injector)
    : fd_(fd),
      path_(std::move(path)),
      options_(options),
      injector_(injector),
      next_seq_(next_seq) {}

SettlementLogWriter::~SettlementLogWriter() {
  if (!dead_) Flush();  // best effort; Stop() should have flushed already
  ::close(fd_);
}

Status SettlementLogWriter::Append(const SettlementRecord& record) {
  if (dead_) return Status::Ok();  // a killed process appends nothing
  if (record.seq != next_seq_) {
    return Status::FailedPrecondition(
        "out-of-sequence settlement record: got " +
        std::to_string(record.seq) + ", want " + std::to_string(next_seq_));
  }
  EncodeLogFrame(record, &pending_);
  ++pending_records_;
  ++next_seq_;
  ++records_appended_;
  if (injector_ != nullptr && injector_->KillAt(record.seq)) {
    Die();
    return Status::Ok();
  }
  if (options_.sync == LogSyncMode::kFsyncEach ||
      pending_records_ >= options_.group_records) {
    return CommitPending(options_.sync == LogSyncMode::kFsyncEach);
  }
  return Status::Ok();
}

Status SettlementLogWriter::Flush() {
  if (dead_) return Status::Ok();
  return CommitPending(/*force_sync=*/false);
}

Status SettlementLogWriter::CommitPending(bool force_sync) {
  if (pending_.empty()) return Status::Ok();
  if (options_.commit_records != nullptr) {
    options_.commit_records->Record(pending_records_);
  }
  size_t written = 0;
  while (written < pending_.size()) {
    const ssize_t n =
        ::write(fd_, pending_.data() + written, pending_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("write " + path_ + ": " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  bytes_written_ += pending_.size();
  pending_.clear();
  pending_records_ = 0;
  ++commits_;
  if (force_sync || options_.sync == LogSyncMode::kGroupFsync) {
    const bool timed =
        options_.fsync_us != nullptr || options_.tracer != nullptr;
    const uint64_t t0 = timed ? Tracer::NowNs() : 0;
    if (::fsync(fd_) != 0) {
      return Status::Internal("fsync " + path_ + ": " + std::strerror(errno));
    }
    ++syncs_;
    if (timed) {
      const uint64_t t1 = Tracer::NowNs();
      if (options_.fsync_us != nullptr) {
        options_.fsync_us->Record((t1 - t0) / 1000);
      }
      if (options_.tracer != nullptr && options_.tracer->enabled()) {
        // The group fsync covers every record staged since the last commit;
        // stamp it with the last committed seq (next_seq_ - 1 >= 1).
        options_.tracer->RecordSpan(next_seq_ - 1, TraceStage::kLogFsync,
                                    /*track=*/0, t0, t1);
      }
    }
  }
  return Status::Ok();
}

void SettlementLogWriter::Die() {
  injector_->MutateUnsynced(&pending_);
  // Whatever the injector left of the unsynced suffix reaches the file —
  // modelling a partial page write / corrupted tail at the kill instant.
  size_t written = 0;
  while (written < pending_.size()) {
    const ssize_t n =
        ::write(fd_, pending_.data() + written, pending_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // dying anyway
    }
    written += static_cast<size_t>(n);
  }
  bytes_written_ += written;
  pending_.clear();
  pending_records_ = 0;
  dead_ = true;
}

FrameParse ParseLogFrame(std::string_view data, size_t pos,
                         SettlementRecord* record, size_t* frame_bytes) {
  // Frame: [u32 len][u32 crc][payload]. A buffer that ends inside the
  // header or the payload is a *plausible* frame prefix (a group commit may
  // be mid-write); everything else that fails is definitive corruption.
  if (data.size() - pos < 8) return FrameParse::kIncomplete;
  uint32_t len = 0, crc = 0;
  std::memcpy(&len, data.data() + pos, 4);
  std::memcpy(&crc, data.data() + pos + 4, 4);
  if (len > kMaxFrameBytes) return FrameParse::kCorrupt;
  if (data.size() - pos - 8 < len) return FrameParse::kIncomplete;
  const std::string_view payload(data.data() + pos + 8, len);
  if (Crc32(payload) != crc) return FrameParse::kCorrupt;
  if (!DecodePayload(payload, record).ok()) return FrameParse::kCorrupt;
  *frame_bytes = 8 + static_cast<size_t>(len);
  return FrameParse::kRecord;
}

Status ReadSettlementLog(const std::string& path,
                         std::vector<SettlementRecord>* records,
                         LogReadStats* stats) {
  records->clear();
  *stats = LogReadStats{};
  std::string data;
  const Status read_status = ReadFileToString(path, &data);
  if (read_status.code() == StatusCode::kNotFound) {
    return Status::Ok();  // no log yet: empty history
  }
  SSA_RETURN_IF_ERROR(read_status);

  size_t pos = 0;
  while (pos < data.size()) {
    SettlementRecord record;
    size_t frame_bytes = 0;
    const FrameParse parse = ParseLogFrame(data, pos, &record, &frame_bytes);
    if (parse != FrameParse::kRecord) {
      stats->tail = parse == FrameParse::kIncomplete ? LogTailKind::kIncomplete
                                                     : LogTailKind::kCorrupt;
      break;
    }
    if (stats->records > 0 && record.seq != stats->last_seq + 1) {
      // A decodable frame with the wrong sequence is corruption, not a
      // write in progress — more bytes cannot repair a gap.
      stats->tail = LogTailKind::kCorrupt;
      break;
    }
    records->push_back(std::move(record));
    ++stats->records;
    stats->last_seq = records->back().seq;
    pos += frame_bytes;
  }
  stats->valid_bytes = pos;
  stats->corrupt_bytes = data.size() - pos;
  return Status::Ok();
}

}  // namespace ssa
