// Replication costs: can a follower keep up, and do reads scale out?
//
//   apply          leader settle throughput (auction + log append) vs the
//                  follower's apply throughput (tail + re-execute + verify)
//                  over the same log. A follower whose apply rate is below
//                  the leader's settle rate falls behind without bound, so
//                  the ratio is the headline number. The replayed replica is
//                  checked bitwise against the leader before any number is
//                  reported — a diverged replay makes the timings
//                  meaningless, so that check failing is a hard error.
//   read_scaling   aggregate snapshot-read QPS (EstimatePrices, kAny
//                  consistency) from a fixed reader pool against 1, 2, 4
//                  caught-up followers. Reads on one follower serialize with
//                  its applies behind one mutex, so scale-out comes from
//                  follower count — this section measures how much. Three
//                  rows per follower count: `logical` reads carry the next
//                  auction's time (applied_seq + 1, as a read-your-writes
//                  reader's do), so the follower's RHTALU planner plans
//                  them from its lists; `backward` reads carry times 1, 2,
//                  3, ..., wrapping before the replica's last auction, so
//                  the planner rebuilds its lists for a read whose time
//                  precedes theirs and then plans it; `unplannable` reads
//                  carry the next auction's time but two relevant keywords,
//                  so each takes the brute-force fallback. Each row reports
//                  how many reads took each path (replication_reads_total).
//
// Knobs (env): SSA_REPL_N (advertisers, default 2000), SSA_REPL_AUCTIONS
// (log length, default 1500), SSA_REPL_SHARDS (default 2), SSA_REPL_READERS
// (reader threads, default 8), SSA_REPL_READ_MS (measure window per follower
// count, default 400), SSA_SEED, SSA_REPL_QUICK=1 (CI smoke: tiny sizes).
// Flags: --json[=path] appends a machine-readable report.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "auction/sharded_engine.h"
#include "bench_common.h"
#include "durability/settlement_log.h"
#include "obs/metrics.h"
#include "replication/follower.h"
#include "serving/read_replicas.h"
#include "util/timer.h"

namespace ssa {
namespace bench {
namespace {

std::string TempPath(const std::string& name) {
  return "/tmp/ssa_bench_replication_" + name;
}

struct Params {
  int n = 2000;
  int auctions = 1500;
  int shards = 2;
  int readers = 8;
  int read_ms = 400;
  uint64_t seed = 7;
};

ShardedEngineConfig EngineConfigFor(const Params& p) {
  ShardedEngineConfig config;
  config.engine.seed = p.seed + 1;
  config.num_shards = p.shards;
  return config;
}

std::unique_ptr<ShardedAuctionEngine> MakeLeaderEngine(const Params& p) {
  Workload workload = PaperWorkload(p.n, p.seed);
  auto strategies = RoiStrategies(workload);
  return std::make_unique<ShardedAuctionEngine>(
      EngineConfigFor(p), std::move(workload), std::move(strategies));
}

std::unique_ptr<FollowerEngine> MakeFollower(const Params& p,
                                             const std::string& log_path,
                                             MetricsRegistry* metrics = nullptr,
                                             int index = 0) {
  FollowerConfig config;
  config.engine = EngineConfigFor(p);
  config.log_path = log_path;
  config.metrics = metrics;
  config.metric_labels = "follower=\"f" + std::to_string(index) + "\"";
  // Caught-up followers only need the poll loop for liveness here; a long
  // interval keeps idle apply threads from stealing cycles from the
  // measured readers.
  config.poll_interval = std::chrono::milliseconds(20);
  Workload workload = PaperWorkload(p.n, p.seed);
  auto strategies = RoiStrategies(workload);
  return std::make_unique<FollowerEngine>(config, std::move(workload),
                                          std::move(strategies));
}

bool AccountsBitwiseEq(const std::vector<AdvertiserAccount>& a,
                       const std::vector<AdvertiserAccount>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].amount_spent != b[i].amount_spent ||
        a[i].spent_per_keyword != b[i].spent_per_keyword ||
        a[i].value_gained != b[i].value_gained) {
      return false;
    }
  }
  return true;
}

struct ApplyResult {
  double settle_qps = 0;
  double apply_qps = 0;
  bool bitwise = false;
};

/// Leader settles `auctions` records into a fresh log (timed), then one
/// follower replays the whole log from seq 1 (timed) and is compared
/// bitwise.
ApplyResult RunApplySection(const Params& p, const std::string& log_path) {
  ApplyResult result;
  std::remove(log_path.c_str());

  std::unique_ptr<ShardedAuctionEngine> leader = MakeLeaderEngine(p);
  {
    LogWriterOptions options;
    options.sync = LogSyncMode::kBuffered;
    options.group_records = 32;
    auto writer = SettlementLogWriter::Open(log_path, options);
    if (!writer.ok()) {
      std::printf("log open failed: %s\n", writer.status().ToString().c_str());
      return result;
    }
    QueryGenerator queries(leader->workload().config.num_keywords,
                           EngineConfigFor(p).engine.seed);
    WallTimer timer;
    for (int t = 0; t < p.auctions; ++t) {
      const AuctionOutcome& outcome = leader->RunAuctionOn(queries.Next());
      (void)(*writer)->Append(SettlementRecord::FromOutcome(
          static_cast<uint64_t>(leader->auctions_run()), outcome));
    }
    (void)(*writer)->Flush();
    result.settle_qps = p.auctions / (timer.ElapsedMillis() / 1e3);
  }

  std::unique_ptr<FollowerEngine> follower = MakeFollower(p, log_path);
  WallTimer timer;
  const Status started = follower->Start();
  if (!started.ok()) {
    std::printf("follower start failed: %s\n", started.ToString().c_str());
    return result;
  }
  const bool caught_up = follower->WaitForSeq(
      static_cast<uint64_t>(p.auctions), std::chrono::milliseconds(600000));
  const double apply_s = timer.ElapsedMillis() / 1e3;
  if (!caught_up) {
    std::printf("follower never caught up: %s\n",
                follower->status().ToString().c_str());
    return result;
  }
  result.apply_qps = p.auctions / apply_s;

  std::vector<AdvertiserAccount> accounts;
  result.bitwise = follower->AccountsSnapshot(&accounts, nullptr).ok() &&
                   AccountsBitwiseEq(accounts, leader->accounts());
  follower->Stop();
  return result;
}

struct ReadResult {
  double reads_per_s = 0;
  /// Reads by path, summed over the followers' replication_reads_total.
  int64_t logical = 0;
  int64_t brute = 0;
};

/// The read-scaling rows' query shapes (see the header comment), and
/// their row labels.
enum class ReadPath { kLogical, kBackward, kUnplannable };
const char* const kPathNames[] = {"logical", "backward", "unplannable"};

/// Aggregate read QPS from `p.readers` threads against `num_followers`
/// caught-up followers for `p.read_ms` milliseconds, on reads of `path`'s
/// shape.
ReadResult RunReadScaling(const Params& p, const std::string& log_path,
                          int num_followers, ReadPath path) {
  ReadResult result;
  MetricsRegistry metrics;
  ReadReplicaSetConfig config;
  config.num_followers = num_followers;
  ReadReplicaSet replicas(config, [&](int f) {
    return MakeFollower(p, log_path, &metrics, f);
  });
  if (!replicas.Start().ok()) return result;
  for (int f = 0; f < num_followers; ++f) {
    if (!replicas.follower(f)->WaitForSeq(static_cast<uint64_t>(p.auctions),
                                          std::chrono::milliseconds(600000))) {
      std::printf("follower %d never caught up\n", f);
      return result;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> threads;
  threads.reserve(p.readers);
  const int num_keywords = PaperWorkload(1, p.seed).config.num_keywords;
  // Times before the replica's last auction's (time p.auctions).
  const int64_t backward_times = std::max(1, p.auctions - 1);
  for (int r = 0; r < p.readers; ++r) {
    threads.emplace_back([&, r] {
      QueryGenerator gen(num_keywords, p.seed + 100 + static_cast<uint64_t>(r));
      std::vector<Money> prices;
      int64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Query q = gen.Next();
        q.time = path == ReadPath::kBackward
                     ? 1 + (q.time - 1) % backward_times
                     : static_cast<int64_t>(replicas.max_applied_seq()) + 1;
        if (path == ReadPath::kUnplannable) {
          q.relevance[(q.keyword + 1) % num_keywords] = 1.0;
        }
        if (replicas.EstimatePrices(ReadOptions{}, q, &prices).ok()) ++local;
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(p.read_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const double elapsed_s = timer.ElapsedMillis() / 1e3;
  replicas.Stop();
  result.reads_per_s = static_cast<double>(reads.load()) / elapsed_s;
  for (const MetricSample& sample : metrics.Snapshot().samples) {
    if (sample.name != "replication_reads_total") continue;
    const bool logical =
        sample.labels.find("path=\"logical\"") != std::string::npos;
    (logical ? result.logical : result.brute) +=
        static_cast<int64_t>(sample.value);
  }
  return result;
}

int Main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown flag: %s (supported: --json[=path])\n",
                   argv[i]);
      return 2;
    }
  }

  const bool quick = EnvInt("SSA_REPL_QUICK", 0) != 0;
  Params p;
  p.n = static_cast<int>(EnvInt("SSA_REPL_N", quick ? 200 : 2000));
  p.auctions =
      static_cast<int>(EnvInt("SSA_REPL_AUCTIONS", quick ? 120 : 1500));
  p.shards = static_cast<int>(EnvInt("SSA_REPL_SHARDS", 2));
  p.readers = static_cast<int>(EnvInt("SSA_REPL_READERS", quick ? 4 : 8));
  p.read_ms = static_cast<int>(EnvInt("SSA_REPL_READ_MS", quick ? 60 : 400));
  p.seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 7));

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("# Replication: n=%d advertisers, %d-auction log, %d shards, "
              "%u cores\n",
              p.n, p.auctions, p.shards, cores);
  std::printf("# (read scale-out needs cores: followers serve reads on "
              "independent replicas,\n#  so reads/s tracks "
              "min(followers, free cores) x per-replica what-if rate)\n\n");

  const std::string log_path = TempPath("log");
  std::printf("## Apply throughput (follower must out-run the leader)\n");
  const ApplyResult apply = RunApplySection(p, log_path);
  if (!apply.bitwise) {
    std::printf("FAILED: follower replica is not bitwise-equal to the "
                "leader\n");
    std::remove(log_path.c_str());
    return 1;
  }
  std::printf("%-22s %12.0f auctions/s\n", "leader settle", apply.settle_qps);
  std::printf("%-22s %12.0f records/s  (%.2fx leader, bitwise ok)\n",
              "follower apply", apply.apply_qps,
              apply.settle_qps > 0 ? apply.apply_qps / apply.settle_qps : 0);

  std::printf("\n## Read scaling (%d reader threads, kAny reads)\n",
              p.readers);
  std::printf("%-12s %-10s %12s %10s %10s %10s\n", "path", "followers",
              "reads/s", "vs f=1", "logical", "brute");
  const std::vector<int> follower_counts = quick ? std::vector<int>{1, 2}
                                                 : std::vector<int>{1, 2, 4};
  struct Row {
    const char* path;
    int followers;
    ReadResult result;
  };
  std::vector<Row> rows;
  for (const ReadPath path :
       {ReadPath::kLogical, ReadPath::kBackward, ReadPath::kUnplannable}) {
    const size_t first = rows.size();
    for (int f : follower_counts) {
      rows.push_back(
          Row{kPathNames[static_cast<int>(path)], f,
              RunReadScaling(p, log_path, f, path)});
      const Row& row = rows.back();
      const double base = rows[first].result.reads_per_s;
      std::printf("%-12s %-10d %12.0f %9.2fx %10lld %10lld\n", row.path, f,
                  row.result.reads_per_s,
                  base > 0 ? row.result.reads_per_s / base : 0,
                  static_cast<long long>(row.result.logical),
                  static_cast<long long>(row.result.brute));
    }
  }
  std::remove(log_path.c_str());

  if (json) {
    std::FILE* f = json_path.empty() ? stdout
                                     : std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_replication\",\n");
    std::fprintf(f, "  \"n\": %d,\n  \"auctions\": %d,\n  \"shards\": %d,\n",
                 p.n, p.auctions, p.shards);
    std::fprintf(f, "  \"readers\": %d,\n  \"cores\": %u,\n"
                 "  \"bitwise\": true,\n",
                 p.readers, cores);
    std::fprintf(f, "  \"apply\": {\"leader_settle_qps\": %.1f, "
                 "\"follower_apply_qps\": %.1f, \"ratio\": %.3f},\n",
                 apply.settle_qps, apply.apply_qps,
                 apply.settle_qps > 0 ? apply.apply_qps / apply.settle_qps
                                      : 0);
    std::fprintf(f, "  \"read_scaling\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"path\": \"%s\", \"followers\": %d, "
                   "\"reads_per_s\": %.1f, \"logical_reads\": %lld, "
                   "\"brute_reads\": %lld}%s\n",
                   rows[i].path, rows[i].followers, rows[i].result.reads_per_s,
                   static_cast<long long>(rows[i].result.logical),
                   static_cast<long long>(rows[i].result.brute),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (!json_path.empty()) std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main(int argc, char** argv) { return ssa::bench::Main(argc, argv); }
