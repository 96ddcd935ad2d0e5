// Tests for the observability subsystem: metrics registry + exporters and
// the sampling tracer ring. The concurrency tests at the bottom are TSan
// targets: producer threads hammer the trace ring and registry instruments
// while a reader drains or snapshots them.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace ssa {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(ObsTest, CounterIncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsTest, GaugeLastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.25);
  g.Set(static_cast<int64_t>(-7));
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(ObsTest, RegistryInternsByNameAndLabels) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("requests_total", "", "Total requests.");
  Counter* b = reg.GetCounter("requests_total");
  EXPECT_EQ(a, b);  // same (name, labels) -> same instrument
  Counter* c = reg.GetCounter("requests_total", "shard=\"1\"");
  EXPECT_NE(a, c);  // different labels -> different series
  EXPECT_EQ(reg.help("requests_total"), "Total requests.");

  Gauge* g1 = reg.GetGauge("depth");
  Gauge* g2 = reg.GetGauge("depth");
  EXPECT_EQ(g1, g2);

  LatencyHistogram* h1 = reg.GetHistogram("latency_us");
  LatencyHistogram* h2 = reg.GetHistogram("latency_us");
  EXPECT_EQ(h1, h2);
}

TEST(ObsTest, SnapshotCarriesEveryInstrument) {
  MetricsRegistry reg;
  reg.GetCounter("hits_total")->Increment(5);
  reg.GetGauge("depth")->Set(2.5);
  LatencyHistogram* h = reg.GetHistogram("lat_us");
  h->Record(10);
  h->Record(1000);

  const MetricsSnapshot snap = reg.Snapshot();
  bool saw_counter = false, saw_gauge = false;
  for (const MetricSample& s : snap.samples) {
    if (s.name == "hits_total") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricSample::kCounter);
      EXPECT_DOUBLE_EQ(s.value, 5.0);
    }
    if (s.name == "depth") {
      saw_gauge = true;
      EXPECT_EQ(s.kind, MetricSample::kGauge);
      EXPECT_DOUBLE_EQ(s.value, 2.5);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSample& hs = snap.histograms[0];
  EXPECT_EQ(hs.name, "lat_us");
  EXPECT_EQ(hs.count, 2u);
  EXPECT_EQ(hs.sum, 1010u);
  EXPECT_EQ(hs.min, 10u);
  EXPECT_EQ(hs.max, 1000u);
  // Bucket counts must sum to the total count.
  uint64_t bucket_total = 0;
  for (const auto& [upper, n] : hs.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, hs.count);
}

TEST(ObsTest, ExternalHistogramIsSnapshottedNotCopied) {
  LatencyHistogram external;
  external.Record(77);
  MetricsRegistry reg;
  reg.RegisterExternal("stage_us", "stage=\"plan\"", "Stage latency.",
                       &external);
  external.Record(88);  // recorded after registration, still visible
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].labels, "stage=\"plan\"");
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].max, 88u);
}

TEST(ObsTest, CollectorRunsAtSnapshotTime) {
  MetricsRegistry reg;
  std::atomic<int> depth{3};
  reg.AddCollector([&depth](MetricsSnapshot* out) {
    MetricSample s;
    s.name = "queue_depth";
    s.kind = MetricSample::kGauge;
    s.value = depth.load();
    out->samples.push_back(std::move(s));
  });
  depth = 9;
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].name, "queue_depth");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 9.0);  // value at snapshot time
}

// ---------------------------------------------------------------------------
// Exporters

TEST(ObsTest, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.GetCounter("req_total", "", "Requests.")->Increment(3);
  reg.GetGauge("depth", "shard=\"0\"")->Set(4.0);
  LatencyHistogram* h = reg.GetHistogram("lat_us", "", "Latency.");
  h->Record(5);
  h->Record(500);

  const std::string text = ExportPrometheus(reg.Snapshot(), &reg);
  EXPECT_NE(text.find("# HELP req_total Requests."), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth{shard=\"0\"} 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 505"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 2"), std::string::npos);

  // Line-format sanity: every non-comment line is `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

TEST(ObsTest, PrometheusCumulativeBucketsAreMonotone) {
  MetricsRegistry reg;
  LatencyHistogram* h = reg.GetHistogram("lat_us");
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) h->Record(rng.NextBounded(1 << 20));
  const std::string text = ExportPrometheus(reg.Snapshot());
  std::istringstream lines(text);
  std::string line;
  uint64_t prev_cum = 0;
  int buckets = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("lat_us_bucket", 0) != 0) continue;
    const size_t space = line.rfind(' ');
    const uint64_t cum = std::stoull(line.substr(space + 1));
    EXPECT_GE(cum, prev_cum) << line;  // cumulative `le` series
    prev_cum = cum;
    ++buckets;
  }
  EXPECT_GT(buckets, 2);
  EXPECT_EQ(prev_cum, 1000u);  // +Inf bucket == count
}

TEST(ObsTest, JsonExportParsesAndCarriesValues) {
  MetricsRegistry reg;
  reg.GetCounter("c_total")->Increment(7);
  reg.GetGauge("g")->Set(1.5);
  reg.GetHistogram("h_us")->Record(100);
  const std::string json = ExportMetricsJson(reg.Snapshot());
  // Shape checks (a full parser lives in the CI step via python).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(ObsTest, SamplingIsDeterministicModulo) {
  TraceConfig cfg;
  cfg.sample_every = 4;
  Tracer t(cfg);
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(t.Sample(1), 1u);
  EXPECT_EQ(t.Sample(2), 0u);
  EXPECT_EQ(t.Sample(4), 0u);
  EXPECT_EQ(t.Sample(5), 5u);
  EXPECT_EQ(t.Sample(9), 9u);

  TraceConfig off;  // sample_every = 0
  Tracer t_off(off);
  EXPECT_FALSE(t_off.enabled());
  EXPECT_EQ(t_off.Sample(1), 0u);
}

TEST(ObsTest, RecordThenDrainRoundTrips) {
  TraceConfig cfg;
  cfg.sample_every = 1;
  cfg.ring_capacity = 64;
  Tracer t(cfg);
  t.RecordSpan(3, TraceStage::kPlan, /*track=*/1, 1000, 2000);
  t.RecordSpan(3, TraceStage::kSettle, /*track=*/0, 2500, 2600);
  t.RecordSpan(0, TraceStage::kPlan, 0, 1, 2);  // unsampled: dropped

  const std::vector<TraceEvent> events = t.Drain();
  ASSERT_EQ(events.size(), 2u);
  // Drain sorts by start time.
  EXPECT_EQ(events[0].stage, TraceStage::kPlan);
  EXPECT_EQ(events[0].seq, 3u);
  EXPECT_EQ(events[0].start_ns, 1000u);
  EXPECT_EQ(events[0].end_ns, 2000u);
  EXPECT_EQ(events[0].track, 1);
  EXPECT_EQ(events[1].stage, TraceStage::kSettle);
  EXPECT_EQ(t.spans_recorded(), 2u);
}

TEST(ObsTest, RingWrapKeepsNewestSpans) {
  TraceConfig cfg;
  cfg.sample_every = 1;
  cfg.ring_capacity = 8;
  Tracer t(cfg);
  for (uint64_t i = 1; i <= 20; ++i) {
    t.RecordSpan(i, TraceStage::kQuery, 0, i * 10, i * 10 + 5);
  }
  const std::vector<TraceEvent> events = t.Drain();
  EXPECT_EQ(events.size(), 8u);  // ring holds the newest capacity spans
  for (const TraceEvent& e : events) EXPECT_GT(e.seq, 12u);
}

TEST(ObsTest, ChromeTraceExportIsWellFormed) {
  TraceConfig cfg;
  cfg.sample_every = 1;
  Tracer t(cfg);
  t.RecordSpan(1, TraceStage::kQuery, 0, 1000, 9000);      // async pair
  t.RecordSpan(1, TraceStage::kQueueWait, 0, 1000, 2000);  // async pair
  t.RecordSpan(1, TraceStage::kPlan, 1, 2000, 5000);       // complete event
  const std::string json = Tracer::ExportChromeTrace(t.Drain());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // async begin
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);  // async end
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check; CI json.load()s
  // the quickstart's file for the real parse).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ObsTest, StageNamesAreStable) {
  EXPECT_STREQ(TraceStageName(TraceStage::kQueueWait), "queue_wait");
  EXPECT_STREQ(TraceStageName(TraceStage::kPlan), "plan");
  EXPECT_STREQ(TraceStageName(TraceStage::kShardPlan), "shard_plan");
  // Numeric values are stable: retired stages leave gaps.
  EXPECT_EQ(static_cast<int>(TraceStage::kPlan), 3);
  EXPECT_EQ(static_cast<int>(TraceStage::kSettle), 5);
  EXPECT_EQ(static_cast<int>(TraceStage::kFollowerApply), 12);
  EXPECT_STREQ(TraceStageName(TraceStage::kLogFsync), "log_fsync");
}

// ---------------------------------------------------------------------------
// Concurrency (TSan targets)

TEST(ObsTest, ConcurrentTraceWritersAndDrain) {
  // Producer threads hammer an intentionally tiny ring (maximum wrap
  // contention) while a reader drains concurrently. Every drained span must
  // be internally consistent — a torn cell must be skipped, never surfaced.
  TraceConfig cfg;
  cfg.sample_every = 1;
  cfg.ring_capacity = 32;
  Tracer t(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&t, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& e : t.Drain()) {
        // start/end stamped together under the seqlock: end == start + 7.
        ASSERT_EQ(e.end_ns, e.start_ns + 7);
        ASSERT_EQ(e.seq, e.start_ns);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w] {
      for (int i = 1; i <= kPerThread; ++i) {
        const uint64_t seq = static_cast<uint64_t>(w) * kPerThread + i;
        t.RecordSpan(seq, TraceStage::kPlan, w, seq, seq + 7);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop = true;
  reader.join();
  EXPECT_EQ(t.spans_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsTest, ConcurrentRegistryUpdatesRacingSnapshots) {
  // Producer threads update instruments and trace spans while a reader
  // thread snapshots the registry (collector included) in a loop.
  MetricsRegistry reg;
  Counter* ops = reg.GetCounter("ops_total");
  Gauge* depth = reg.GetGauge("depth");
  LatencyHistogram* lat = reg.GetHistogram("lat_us");
  TraceConfig cfg;
  cfg.sample_every = 1;
  cfg.ring_capacity = 256;
  Tracer tracer(cfg);
  reg.AddCollector([&tracer](MetricsSnapshot* out) {
    MetricSample s;
    s.name = "trace_spans_recorded_total";
    s.kind = MetricSample::kCounter;
    s.value = static_cast<double>(tracer.spans_recorded());
    out->samples.push_back(std::move(s));
  });

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots{0};
  std::thread reader([&] {
    do {
      EXPECT_FALSE(reg.Snapshot().samples.empty());
      snapshots.fetch_add(1);
    } while (!stop.load(std::memory_order_relaxed));
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> producers;
  for (int w = 0; w < kThreads; ++w) {
    producers.emplace_back([&, w] {
      Rng rng(100 + w);
      for (int i = 1; i <= kPerThread; ++i) {
        ops->Increment();
        depth->Set(static_cast<int64_t>(i));
        const uint64_t v = rng.NextBounded(1 << 16);
        lat->Record(v);
        tracer.RecordSpan(static_cast<uint64_t>(w) * kPerThread + i,
                          TraceStage::kSettle, w, v + 1, v + 2);
      }
    });
  }
  for (auto& th : producers) th.join();
  stop = true;
  reader.join();

  EXPECT_EQ(ops->value(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(lat->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(snapshots.load(), 1u);
  // Final snapshot after the storm is fully consistent.
  const MetricsSnapshot snap = reg.Snapshot();
  bool found = false;
  for (const MetricSample& s : snap.samples) {
    if (s.name == "ops_total") {
      found = true;
      EXPECT_DOUBLE_EQ(s.value,
                       static_cast<double>(kThreads) * kPerThread);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ssa
