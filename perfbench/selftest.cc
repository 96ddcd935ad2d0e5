// Self-tests of the benchmark's own measurement code (stats.h): raw-sample
// percentiles, the ten-samples-beyond rule for tail percentiles, open-loop
// latency measured from the due time, generator lateness, the Poisson
// schedule and the capacity windows. Run with
//   python3 perfbench/run.py --selftest
// or `ctest` in the benchmark build tree.

#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void PercentilesFromRawSamples() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(perfbench::Percentile(v, 50) == 50);
  EXPECT(perfbench::Percentile(v, 99) == 99);
  EXPECT(perfbench::Percentile(v, 100) == 100);
  EXPECT(perfbench::Percentile(v, 0) == 1);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(std::isnan(perfbench::Percentile({}, 50)));
  // No bucketing: a value between two log buckets comes back exactly.
  EXPECT(perfbench::Percentile({1.2345678, 9.87654321}, 50) == 1.2345678);
  EXPECT(perfbench::Percentile({1.2345678, 9.87654321}, 99) == 9.87654321);
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p) {
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

void TailHasTenSamplesBeyond() {
  EXPECT(perfbench::HighestSupportedPercentile(5000) == 99);
  EXPECT(perfbench::HighestSupportedPercentile(1000) == 99);
  EXPECT(SamplesBeyond(1000, 99) == 10);
  // With fewer samples the reported tail drops to the highest percentile
  // that still has ten beyond it.
  EXPECT(Near(perfbench::HighestSupportedPercentile(500), 98, 1e-12));
  EXPECT(Near(perfbench::HighestSupportedPercentile(263), 96.1977186311787,
              1e-9));
  EXPECT(std::isnan(perfbench::HighestSupportedPercentile(10)));
  for (size_t n : {11, 37, 250, 999, 1001, 1575}) {
    const double p = perfbench::HighestSupportedPercentile(n);
    EXPECT(SamplesBeyond(n, p) >= 10);
    EXPECT(p <= 99);
  }
}

void OpenLoopLatencyCountsFromDueTime() {
  // Ten requests due 1 ms apart. The system stalls for 50 ms on the first;
  // the generator, blocked meanwhile, sends the other nine at 50 ms and each
  // completes 1 ms after the previous one.
  const int64_t ms = 1000000;
  std::vector<perfbench::OpenLoopSample> s(10);
  for (int i = 0; i < 10; ++i) {
    s[i].due_ns = i * ms;
    s[i].sent_ns = i == 0 ? 0 : 50 * ms;
    s[i].done_ns = (50 + i) * ms;
  }
  const std::vector<double> lat = perfbench::LatenciesFromDueMs(s);
  EXPECT(lat.size() == 10);
  // Every request waited out the stall: 50 ms from its due time, none of
  // them the ~1 ms a send-time measurement would report.
  for (double l : lat) EXPECT(Near(l, 50.0, 1e-9));
  EXPECT(Near(perfbench::Percentile(lat, 50), 50.0, 1e-9));
  // A request that never completed contributes no latency sample.
  s[3].done_ns = -1;
  EXPECT(perfbench::LatenciesFromDueMs(s).size() == 9);
}

void GeneratorLatenessAccounting() {
  const int64_t ms = 1000000;
  std::vector<perfbench::OpenLoopSample> s(3);
  s[0] = {10 * ms, 10 * ms, 11 * ms};  // on time
  s[1] = {20 * ms, 23 * ms, 24 * ms};  // 3 ms late
  s[2] = {30 * ms, 29 * ms, 31 * ms};  // early: clamped to on time
  const std::vector<double> late = perfbench::LatenessMs(s);
  EXPECT(late.size() == 3);
  EXPECT(Near(late[0], 0.0, 1e-12));
  EXPECT(Near(late[1], 3.0, 1e-12));
  EXPECT(Near(late[2], 0.0, 1e-12));
  EXPECT(Near(perfbench::Percentile(late, 99), 3.0, 1e-12));
}

void PoissonScheduleIsSeededAndAtRate() {
  std::mt19937_64 a(7), b(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const size_t count = perfbench::ArrivalCount(1000.0, 100.0);
  EXPECT(count == 100000);
  EXPECT(perfbench::ArrivalCount(70.0, 15.0) == 1050);
  const auto s1 = perfbench::PoissonSchedule(1000.0, count, [&] { return u(a); });
  const auto s2 = perfbench::PoissonSchedule(1000.0, count, [&] { return u(b); });
  EXPECT(s1 == s2);
  EXPECT(s1.size() == count);
  // 100,000 arrivals at 1000/s span ~100 s (standard deviation ~0.3 s).
  EXPECT(Near(s1.back(), 100.0, 2.0));
  bool increasing = true;
  for (size_t i = 1; i < s1.size(); ++i) increasing &= s1[i] > s1[i - 1];
  EXPECT(increasing);
  EXPECT(s1.front() > 0.0);
}

void CapacityFromWindowRates() {
  const int64_t s = 1000000000;
  std::vector<int64_t> done;
  for (int i = 0; i < 400; ++i) done.push_back(i * s / 100);  // 100/s, 4 s
  std::vector<double> rates = perfbench::WindowRates(done, 0, 4 * s, 4);
  EXPECT(rates.size() == 4);
  for (double r : rates) EXPECT(Near(r, 100.0, 1e-9));
  // Another tenant takes the CPU for most of the second window: the upper
  // quartile of the window rates still reads the undisturbed rate.
  done.erase(done.begin() + 110, done.begin() + 190);
  rates = perfbench::WindowRates(done, 0, 4 * s, 4);
  EXPECT(Near(rates[1], 20.0, 1e-9));
  EXPECT(Near(perfbench::Percentile(rates, 75), 100.0, 1e-9));
  // Completions outside the measured interval are ignored.
  rates = perfbench::WindowRates(done, 2 * s, 4 * s, 2);
  EXPECT(Near(rates[0], 100.0, 1e-9) && Near(rates[1], 100.0, 1e-9));
  EXPECT(perfbench::WindowRates(done, 4 * s, 4 * s, 2).empty());
}

}  // namespace

int main() {
  PercentilesFromRawSamples();
  TailHasTenSamplesBeyond();
  OpenLoopLatencyCountsFromDueTime();
  GeneratorLatenessAccounting();
  PoissonScheduleIsSeededAndAtRate();
  CapacityFromWindowRates();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
