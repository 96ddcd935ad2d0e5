#ifndef SSA_OBS_METRICS_H_
#define SSA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace ssa {

/// Monotone event counter. Increment is wait-free (one relaxed fetch_add) —
/// safe from any thread, including the serving hot path and shard tasks on
/// the pool. Readers get an instantaneous relaxed snapshot.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, shard cost, checkpoint
/// age). Stored as IEEE-754 bits in one atomic word: Set/value are wait-free
/// and never torn.
class Gauge {
 public:
  void Set(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  void Set(int64_t v) { Set(static_cast<double>(v)); }
  double value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // IEEE-754 bit pattern; 0 == +0.0
};

/// One scalar sample of a snapshot. `labels` is the rendered Prometheus
/// label body without braces (e.g. `shard="2"`), empty for unlabeled
/// metrics.
struct MetricSample {
  std::string name;
  std::string labels;
  enum Kind { kCounter, kGauge } kind = kCounter;
  double value = 0;
};

/// One histogram of a snapshot: aggregates, pre-computed percentiles, and
/// the non-empty buckets as (inclusive upper bound, count) pairs — exactly
/// what the Prometheus exposition needs cumulated into `le` buckets.
struct HistogramSample {
  std::string name;
  std::string labels;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

/// A point-in-time copy of every registered metric, safe to serialize or
/// ship off-thread (plain data, no atomics).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
  std::vector<HistogramSample> histograms;
};

/// Process- or subsystem-wide registry of named counters, gauges, and
/// log-bucketed latency histograms.
///
/// Usage contract: Get* interns an instrument under (name, labels) and
/// returns a pointer that stays valid for the registry's lifetime — fetch
/// instruments once at setup, then update them lock-free on the hot path
/// (the registry mutex guards only registration and snapshotting, never a
/// Record/Increment/Set). RegisterExternal adds a histogram the caller owns
/// (e.g. the AuctionServer stage histograms) to snapshots without copying
/// its hot path. AddCollector registers a pull-style callback run at
/// snapshot time for values that are cheap to read but not worth a pushed
/// instrument (queue depth); collectors must only perform reads that are
/// safe from a foreign thread (own-mutex or atomic state).
///
/// Snapshot() is safe concurrently with hot-path updates from any thread
/// (relaxed reads of atomic instruments — the same contract as
/// LatencyHistogram's read side).
class MetricsRegistry {
 public:
  using Collector = std::function<void(MetricsSnapshot*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns and returns the counter/gauge/histogram for (name, labels).
  /// `help` is kept from the first registration of `name`. Registration
  /// takes the registry mutex — setup/cold path only.
  Counter* GetCounter(const std::string& name, const std::string& labels = "",
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "",
                  const std::string& help = "");
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& labels = "",
                                 const std::string& help = "");

  /// Adds a caller-owned histogram to snapshots. The histogram must outlive
  /// the registry (or be deregistered by destroying the registry first).
  void RegisterExternal(const std::string& name, const std::string& labels,
                        const std::string& help, const LatencyHistogram* hist);

  /// Registers a pull-style collector invoked on every Snapshot().
  void AddCollector(Collector fn);

  /// Help text recorded for `name` ("" if none).
  std::string help(const std::string& name) const;

  /// Point-in-time copy of everything registered. Thread-safe.
  MetricsSnapshot Snapshot() const;

 private:
  struct HistEntry {
    std::string name;
    std::string labels;
    const LatencyHistogram* hist = nullptr;  // external, or &owned
    std::unique_ptr<LatencyHistogram> owned;
  };
  template <typename T>
  struct ScalarEntry {
    std::string name;
    std::string labels;
    T instrument;
  };

  void RecordHelp(const std::string& name, const std::string& help);

  mutable std::mutex mu_;
  // Deques: pointer stability across registrations.
  std::deque<ScalarEntry<Counter>> counters_;
  std::deque<ScalarEntry<Gauge>> gauges_;
  std::deque<HistEntry> histograms_;
  std::map<std::string, size_t> counter_index_;
  std::map<std::string, size_t> gauge_index_;
  std::map<std::string, size_t> histogram_index_;
  std::map<std::string, std::string> help_;
  std::vector<Collector> collectors_;
};

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` headers per family, `name{labels} value`
/// samples, histograms as cumulative `_bucket{le=...}` series plus `_sum`
/// and `_count`.
std::string ExportPrometheus(const MetricsSnapshot& snapshot,
                             const MetricsRegistry* help_source = nullptr);

/// Renders a snapshot as one JSON object:
///   {"counters": {"name{labels}": v}, "gauges": {...},
///    "histograms": {"name{labels}": {"count","sum","min","max",
///                                    "p50","p95","p99"}}}
std::string ExportMetricsJson(const MetricsSnapshot& snapshot);

}  // namespace ssa

#endif  // SSA_OBS_METRICS_H_
