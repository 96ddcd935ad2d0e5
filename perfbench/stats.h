// Sample statistics and open-loop bookkeeping for the repository benchmark.
// Header-only and free of library dependencies so the self-test can check
// it in isolation (selftest.cc).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of raw samples: the smallest sample with at least
/// p% of the samples at or below it. No bucketing, so no bucket error.
/// Returns NaN for an empty input.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(std::max<size_t>(rank, 1), samples.size());
  return samples[rank - 1];
}

/// The highest percentile, capped at `cap`, that has at least `min_beyond`
/// of `n` samples beyond it; NaN when there are too few samples.
inline double HighestSupportedPercentile(size_t n, double cap = 99,
                                         size_t min_beyond = 10) {
  if (n <= min_beyond) return std::nan("");
  const double p = 100.0 * static_cast<double>(n - min_beyond) /
                   static_cast<double>(n);
  return std::min(cap, p);
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nan("");
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Poisson arrival schedule: offsets (seconds from the phase start) of
/// exactly `count` arrivals at `rate_per_s`, from uniform draws in [0, 1)
/// supplied by `uniform` (so the caller owns the seed). A fixed count, not a
/// fixed duration, so every run has the samples its tail percentiles need.
template <typename UniformFn>
std::vector<double> PoissonSchedule(double rate_per_s, size_t count,
                                    UniformFn&& uniform) {
  std::vector<double> offsets;
  offsets.reserve(count);
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - uniform()) / rate_per_s;
    offsets.push_back(t);
  }
  return offsets;
}

/// Arrivals a phase of `duration_s` holds at `rate_per_s`, rounded up.
inline size_t ArrivalCount(double rate_per_s, double duration_s) {
  return static_cast<size_t>(std::ceil(rate_per_s * duration_s));
}

/// One open-loop request as the generator saw it, in nanoseconds on one
/// monotonic clock: when it was due, when the generator actually sent it,
/// and when its completion was observed (done < 0 = never completed).
struct OpenLoopSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = -1;
};

/// Latency of each completed request measured from its *due* time, so a
/// stall of the generator or of the system is charged to every request that
/// should have been sent during it, not hidden by sending late.
inline std::vector<double> LatenciesFromDueMs(
    const std::vector<OpenLoopSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    if (s.done_ns < 0) continue;
    out.push_back(static_cast<double>(s.done_ns - s.due_ns) / 1e6);
  }
  return out;
}

/// How late the generator fired each request versus its schedule (never
/// negative: sending early is clamped to on time).
inline std::vector<double> LatenessMs(
    const std::vector<OpenLoopSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    out.push_back(static_cast<double>(std::max<int64_t>(0, s.sent_ns - s.due_ns)) /
                  1e6);
  }
  return out;
}

/// Completions per second in each of `windows` equal sub-windows of
/// [begin_ns, end_ns).
inline std::vector<double> WindowRates(const std::vector<int64_t>& done_ns,
                                       int64_t begin_ns, int64_t end_ns,
                                       int windows) {
  if (windows < 1 || end_ns <= begin_ns) return {};
  std::vector<double> rates(static_cast<size_t>(windows), 0.0);
  const double width = static_cast<double>(end_ns - begin_ns) / windows;
  for (int64_t t : done_ns) {
    if (t < begin_ns || t >= end_ns) continue;
    const int w = std::min(
        windows - 1, static_cast<int>(static_cast<double>(t - begin_ns) / width));
    rates[static_cast<size_t>(w)] += 1;
  }
  for (double& r : rates) r /= width / 1e9;
  return rates;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
