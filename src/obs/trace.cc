#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

namespace ssa {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kQuery:
      return "query";
    case TraceStage::kQueueWait:
      return "queue_wait";
    case TraceStage::kPlan:
      return "plan";
    case TraceStage::kSettle:
      return "settle";
    case TraceStage::kLogAppend:
      return "log_append";
    case TraceStage::kLogFsync:
      return "log_fsync";
    case TraceStage::kShardCapture:
      return "shard_capture";
    case TraceStage::kShardPlan:
      return "shard_plan";
    case TraceStage::kBatch:
      return "batch";
    case TraceStage::kFollowerApply:
      return "follower_apply";
  }
  return "unknown";
}

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  if (v < 2) return 2;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  return v + 1;
}

std::string TrackName(int32_t track) {
  char buf[64];
  if (track == 0) {
    return "executor";
  } else if (track == kFollowerTrack) {
    return "follower apply";
  } else if (track == kPlannerTrack) {
    return "RHTALU planner";
  } else if (track < 100) {
    std::snprintf(buf, sizeof(buf), "track %d", track);
  } else if (track < 200) {
    std::snprintf(buf, sizeof(buf), "shard %d capture", track - 100);
  } else {
    std::snprintf(buf, sizeof(buf), "shard %d plan", track - 200);
  }
  return buf;
}

}  // namespace

Tracer::Tracer(const TraceConfig& config)
    : sample_every_(config.sample_every),
      capacity_(RoundUpPow2(config.ring_capacity)),
      ring_(sample_every_ > 0 ? capacity_ : 0) {}

void Tracer::RecordSpan(uint64_t trace_seq, TraceStage stage, int32_t track,
                        uint64_t start_ns, uint64_t end_ns) {
  if (trace_seq == 0 || ring_.empty()) return;
  const uint64_t slot =
      cursor_.fetch_add(1, std::memory_order_relaxed) & (capacity_ - 1);
  TraceSpan& cell = ring_[slot];
  // Per-cell seqlock. The writer claims the cell with a CAS from an even
  // version to the next odd one; if the cell is mid-write (odd) or another
  // writer lapping the ring claims it first (CAS fails), this span is
  // dropped — two writers never publish into one cell, so Drain can never
  // accept a torn span. The release fence orders the odd version before the
  // field stores (pairs with Drain's acquire fence); the final release
  // store publishes the fields with the next even version.
  uint64_t v0 = cell.version.load(std::memory_order_relaxed);
  if ((v0 & 1) != 0 ||
      !cell.version.compare_exchange_strong(v0, v0 + 1,
                                            std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  cell.seq.store(trace_seq, std::memory_order_relaxed);
  cell.start_ns.store(start_ns, std::memory_order_relaxed);
  cell.end_ns.store(end_ns, std::memory_order_relaxed);
  cell.track.store(track, std::memory_order_relaxed);
  cell.stage.store(static_cast<uint8_t>(stage), std::memory_order_relaxed);
  cell.version.store(v0 + 2, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::Drain() const {
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  for (const TraceSpan& cell : ring_) {
    const uint64_t v1 = cell.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;  // never written / mid-write
    TraceEvent e;
    e.seq = cell.seq.load(std::memory_order_relaxed);
    e.start_ns = cell.start_ns.load(std::memory_order_relaxed);
    e.end_ns = cell.end_ns.load(std::memory_order_relaxed);
    e.track = cell.track.load(std::memory_order_relaxed);
    e.stage = static_cast<TraceStage>(cell.stage.load(std::memory_order_relaxed));
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t v2 = cell.version.load(std::memory_order_relaxed);
    if (v1 != v2) continue;  // torn read: a writer raced past
    if (e.seq == 0) continue;
    events.push_back(e);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.seq < b.seq;
            });
  return events;
}

std::string Tracer::ExportChromeTrace(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&]() {
    if (!first) out << ",";
    first = false;
  };
  // Thread-name metadata for every track that appears.
  std::map<int32_t, bool> tracks;
  for (const TraceEvent& e : events) tracks[e.track] = true;
  for (const auto& kv : tracks) {
    comma();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << kv.first << ",\"args\":{\"name\":\"" << TrackName(kv.first)
        << "\"}}";
  }
  for (const TraceEvent& e : events) {
    const char* name = TraceStageName(e.stage);
    const double ts_us = static_cast<double>(e.start_ns) / 1000.0;
    const double dur_us =
        static_cast<double>(e.end_ns - e.start_ns) / 1000.0;
    char ts[48], dur[48];
    std::snprintf(ts, sizeof(ts), "%.3f", ts_us);
    std::snprintf(dur, sizeof(dur), "%.3f", dur_us);
    if (e.stage == TraceStage::kQuery || e.stage == TraceStage::kQueueWait) {
      // Overlapping across queries: async begin/end pairs keyed by seq so
      // Perfetto nests them per query instead of malforming one track.
      char te[48];
      std::snprintf(te, sizeof(te), "%.3f",
                    static_cast<double>(e.end_ns) / 1000.0);
      comma();
      out << "{\"name\":\"" << name << "\",\"cat\":\"" << name
          << "\",\"ph\":\"b\",\"id\":" << e.seq
          << ",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << ts << "}";
      comma();
      out << "{\"name\":\"" << name << "\",\"cat\":\"" << name
          << "\",\"ph\":\"e\",\"id\":" << e.seq
          << ",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << te << "}";
    } else {
      comma();
      out << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << e.track << ",\"ts\":" << ts << ",\"dur\":" << dur
          << ",\"args\":{\"seq\":" << e.seq << "}}";
    }
  }
  out << "],\"displayTimeUnit\":\"ns\"}";
  return out.str();
}

}  // namespace ssa
