// Repository benchmark harness: one load-generator process that serves a
// named workload through AuctionServer (and, for durable-replicated, a
// ReadReplicaSet), measures what a user of the system sees, checks every
// settled auction bitwise against a serial oracle, and — with --trace 1 —
// replays the same arrival sequence through each layer's public entry points
// with a span around every call.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --workdir <dir> --out <result.json>
//
// The result file holds every end-to-end and per-layer metric, the output
// checks, and a provenance block; perfbench/run.py selects and prints them.
// See perfbench/METRICS.md for what each metric means and which layer and
// workload it belongs to.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "auction/pricing.h"
#include "auction/sharded_engine.h"
#include "auction/workload.h"
#include "core/expected_revenue.h"
#include "core/winner_determination.h"
#include "durability/settlement_log.h"
#include "replication/follower.h"
#include "serving/auction_server.h"
#include "serving/read_replicas.h"
#include "stats.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace ssa;  // NOLINT: the harness drives the whole library.

// ---------------------------------------------------------------------------
// Workloads. Rates are fixed numbers (queries per second), not fractions of
// a run's own ceiling, so latencies are comparable across commits.
// ---------------------------------------------------------------------------
enum class Kind { kRoi, kPrograms, kDurable };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int advertisers;
  int shards;
  /// Shard-phase pool size (0 = shards run on the executor thread).
  int pool_threads;
  /// Open-loop write (auction) arrival rate.
  double write_rate_qps;
  /// Open-loop read arrival rate (durable-replicated only).
  double read_rate_qps;
  /// Share of --seconds in the open-loop phase; the rest measures capacity.
  double open_share;
  /// Closed-loop auctions before anything is measured.
  int warmup;
  /// Requests kept outstanding in the saturated closed-loop phase.
  int window;
  double purchase_given_click;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper-roi", Kind::kRoi, 10000, 2, 2, 50.0, 0.0, 0.7, 200, 16, 0.0},
    {"expressive-programs", Kind::kPrograms, 1000, 2, 2, 25.0, 0.0, 0.7, 100,
     16, 0.3},
    {"durable-replicated", Kind::kDurable, 2000, 2, 0, 150.0, 50.0, 0.7, 200,
     16, 0.0},
};

/// Leading share of the capacity phase excluded as ramp-up.
constexpr double kCapacityRampShare = 0.1;
/// The capacity phase is cut into windows; capacity is the upper quartile of
/// their completion rates (see METRICS.md, "Other tenants").
constexpr int kCapacityWindows = 8;
constexpr double kCapacityQuantile = 75;
/// Open-loop latency quantile gated as an end-to-end metric.
constexpr double kGatedLatencyQuantile = 25;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Sync mode of the durable workload's settlement log. Every commit is a
/// write() to the OS without fsync: fsync time on a shared disk moved the
/// gated write latency by more than its bound between runs of the same code,
/// and no change to the program can move it (see METRICS.md).
constexpr LogSyncMode kLogSync = LogSyncMode::kBuffered;
/// Commit threshold of that log. One settlement per commit: a
/// read-your-writes read then never waits for later arrivals to fill its
/// record's group.
constexpr size_t kGroupRecords = 1;
/// Reads stop this long before the writes do, so every read runs beside
/// write traffic.
constexpr double kReadTailGapS = 1.0;
constexpr size_t kRecorderCapacity = 1 << 19;

// Figure 5 Equalize-ROI, as in examples/expressive_program.cc.
constexpr const char kEqualizeRoi[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time
  THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;
  UPDATE Bids
  SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7
      AND K.formula = Bids.formula );
}
)sql";

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int LiveThreads() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Host CPU time stolen from this VM's vCPUs (USER_HZ ticks, all CPUs):
/// time the program wanted to run but another tenant had the core.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (int64_t& x : v) in >> x;
  return cpu == "cpu" ? v[7] : 0;
}

/// Periodic (time, process CPU, auctions completed, stolen ticks) samples,
/// taken by the load generator between sends; kept in the raw result file.
class Snapshots {
 public:
  struct Point {
    int64_t t_ns;
    double cpu_s;
    int64_t completed;
    int64_t steal_ticks;
  };
  void MaybeTake(int64_t now_ns, int64_t completed) {
    if (now_ns < next_ns_) return;
    points_.push_back({now_ns, ProcessCpuSeconds(), completed, StealTicks()});
    next_ns_ = now_ns + kPeriodNs;
  }
  const std::vector<Point>& points() const { return points_; }

 private:
  static constexpr int64_t kPeriodNs = 100'000'000;
  int64_t next_ns_ = 0;
  std::vector<Point> points_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 29);
}

// ---------------------------------------------------------------------------
// Bitwise digests of outcomes and account state.
// ---------------------------------------------------------------------------
struct Hasher {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Pod(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
};

/// Allocation, prices, realized events and revenue of one settled auction.
uint64_t HashOutcome(const AuctionOutcome& o) {
  Hasher h;
  h.Pod(o.query.keyword);
  h.Pod(o.query.time);
  h.Vec(o.wd.allocation.slot_to_advertiser);
  h.Pod(o.wd.matching_weight);
  h.Pod(o.wd.expected_revenue);
  h.Vec(o.prices);
  for (const UserEvent& e : o.events) {
    h.Pod(e.advertiser);
    h.Pod(e.slot);
    h.Pod(e.clicked);
    h.Pod(e.purchased);
    h.Pod(e.charged);
  }
  h.Pod(o.revenue_charged);
  return h.h;
}

uint64_t HashAccounts(const std::vector<AdvertiserAccount>& accounts) {
  Hasher h;
  for (const AdvertiserAccount& a : accounts) {
    h.Pod(a.amount_spent);
    h.Pod(a.target_spend_rate);
    h.Vec(a.value_per_click);
    h.Vec(a.max_bid);
    h.Vec(a.value_gained);
    h.Vec(a.spent_per_keyword);
  }
  return h.h;
}

// ---------------------------------------------------------------------------
// Populations and services.
// ---------------------------------------------------------------------------
struct Population {
  Workload workload;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
};

Population BuildPopulation(const WorkloadSpec& spec, uint64_t seed) {
  WorkloadConfig wc;
  wc.num_advertisers = spec.advertisers;
  wc.seed = Derive(seed, 1);
  wc.purchase_given_click = spec.purchase_given_click;
  Population pop;
  pop.workload = MakePaperWorkload(wc);
  pop.strategies.reserve(spec.advertisers);
  if (spec.kind == Kind::kPrograms) {
    // Multi-feature formulas cycling over the keywords: plain clicks, clicks
    // in the top slot, and purchases.
    std::vector<ProgramStrategy::KeywordSpec> keywords;
    for (int kw = 0; kw < wc.num_keywords; ++kw) {
      Formula f = kw % 3 == 0   ? Formula::Click()
                  : kw % 3 == 1 ? Formula::Click() && Formula::Slot(0)
                                : Formula::Purchase();
      keywords.push_back({"kw" + std::to_string(kw), f});
    }
    pop.workload.keyword_formulas.clear();
    for (const auto& k : keywords) {
      pop.workload.keyword_formulas.push_back(k.formula);
    }
    for (int i = 0; i < spec.advertisers; ++i) {
      auto program = ProgramStrategy::Create(kEqualizeRoi, keywords);
      SSA_CHECK_MSG(program.ok(), program.status().ToString().c_str());
      pop.strategies.push_back(*std::move(program));
    }
  } else {
    for (int i = 0; i < spec.advertisers; ++i) {
      pop.strategies.push_back(
          std::make_unique<RoiStrategy>(pop.workload.keyword_formulas));
    }
  }
  return pop;
}

ShardedEngineConfig EngineConfigFor(const WorkloadSpec& spec, uint64_t seed,
                                    ThreadPool* pool) {
  ShardedEngineConfig config;
  config.engine.seed = Derive(seed, 2);
  config.num_shards = spec.shards;
  config.pool = pool;
  return config;
}

/// Settled-auction sink installed as the server's completion hook: one
/// digest and completion timestamp per auction, in settlement order.
class Recorder {
 public:
  // Default-initialized arrays: pages are touched only as auctions settle,
  // so the recorder adds to peak RSS only what a run uses.
  Recorder()
      : hashes_(new uint64_t[kRecorderCapacity]),
        done_ns_(new int64_t[kRecorderCapacity]) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void OnComplete(const AuctionOutcome& outcome) {
    const int64_t i = completed_.load(std::memory_order_relaxed);
    SSA_CHECK(static_cast<size_t>(i) < kRecorderCapacity);
    hashes_[i] = HashOutcome(outcome);
    done_ns_[i] = NowNs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      completed_.store(i + 1, std::memory_order_release);
    }
    cv_.notify_all();
  }
  int64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  /// Blocks until at least `n` auctions have settled.
  void WaitCompleted(int64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return completed_.load() >= n; });
  }
  uint64_t hash(int64_t i) const { return hashes_[i]; }
  int64_t done_ns(int64_t i) const { return done_ns_[i]; }

 private:
  std::unique_ptr<uint64_t[]> hashes_;
  std::unique_ptr<int64_t[]> done_ns_;
  std::atomic<int64_t> completed_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The write-side query stream: every accepted query, in acceptance order
/// (== settlement order under deterministic replay), for the oracle.
struct WriteStream {
  explicit WriteStream(uint64_t seed) : gen(10, seed) {}
  QueryGenerator gen;
  std::vector<Query> accepted;
  int64_t attempted = 0;
  int64_t rejected = 0;

  /// Submits the next query; returns its acceptance index or -1.
  int64_t Submit(AuctionServer* server) {
    Query q = gen.Next();
    ++attempted;
    if (server->Submit(q) != QueuePushResult::kAccepted) {
      ++rejected;
      return -1;
    }
    accepted.push_back(std::move(q));
    return static_cast<int64_t>(accepted.size()) - 1;
  }
};

struct Service {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<AuctionServer> server;
  std::unique_ptr<ReadReplicaSet> replicas;
  std::unique_ptr<Recorder> recorder;
  std::unique_ptr<WriteStream> writes;
  std::string log_path;
  std::string checkpoint_path;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    if (replicas != nullptr) replicas->Stop();
    if (server != nullptr) server->Stop();
  }
};

ServerConfig ServerConfigFor(const WorkloadSpec& spec, uint64_t seed,
                             ThreadPool* pool) {
  // The default, deterministic-replay path: locking queue, in-thread
  // planning, replay settlement. kReject + a deep queue keeps the open-loop
  // generator from ever blocking inside Submit.
  ServerConfig config;
  config.engine = EngineConfigFor(spec, seed, pool);
  config.queue_capacity = 1 << 16;
  config.backpressure = BackpressurePolicy::kReject;
  return config;
}

std::unique_ptr<AuctionServer> StartServer(const WorkloadSpec& spec,
                                           uint64_t seed, ThreadPool* pool,
                                           const DurabilityConfig& durability,
                                           Recorder* recorder) {
  ServerConfig config = ServerConfigFor(spec, seed, pool);
  config.durability = durability;
  Population pop = BuildPopulation(spec, seed);
  auto server = std::make_unique<AuctionServer>(
      config, std::move(pop.workload), std::move(pop.strategies));
  server->set_on_complete(
      [recorder](const AuctionOutcome& o) { recorder->OnComplete(o); });
  const Status started = server->Start();
  SSA_CHECK_MSG(started.ok(), started.ToString().c_str());
  return server;
}

/// Submits `count` queries keeping `window` outstanding, then drains.
void ClosedLoopCount(AuctionServer* server, Recorder* recorder,
                     WriteStream* writes, int window, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    recorder->WaitCompleted(static_cast<int64_t>(writes->accepted.size()) -
                            window + 1);
    writes->Submit(server);
  }
  recorder->WaitCompleted(static_cast<int64_t>(writes->accepted.size()));
}

FollowerConfig FollowerConfigFor(const WorkloadSpec& spec, uint64_t seed,
                                 const std::string& log_path,
                                 const std::string& checkpoint_path) {
  FollowerConfig config;
  config.engine = EngineConfigFor(spec, seed, nullptr);
  config.log_path = log_path;
  config.checkpoint_path = checkpoint_path;
  return config;
}

/// Wall and process CPU time accumulated over the timed sections of one
/// set-up.
struct SetupTime {
  double wall_s = 0;
  double cpu_s = 0;
  int64_t wall0_ns = 0;
  double cpu0_s = 0;
  void Begin() {
    wall0_ns = NowNs();
    cpu0_s = ProcessCpuSeconds();
  }
  void End() {
    wall_s += static_cast<double>(NowNs() - wall0_ns) / 1e9;
    cpu_s += ProcessCpuSeconds() - cpu0_s;
  }
};

/// Builds the service once and times it (see METRICS.md for what is
/// inside). Warmup traffic is settled but not timed; the durable workload
/// always warms up (its checkpoint is taken after warmup), the others only
/// when `warm`.
SetupTime SetUp(const WorkloadSpec& spec, uint64_t seed,
                const std::string& dir, bool warm, Service* svc) {
  SetupTime time;
  svc->recorder = std::make_unique<Recorder>();
  svc->writes = std::make_unique<WriteStream>(Derive(seed, 3));
  if (spec.pool_threads > 0) {
    svc->pool = std::make_unique<ThreadPool>(spec.pool_threads);
  }
  if (spec.kind != Kind::kDurable) {
    time.Begin();
    svc->server = StartServer(spec, seed, svc->pool.get(), DurabilityConfig{},
                              svc->recorder.get());
    time.End();
    if (warm) {
      ClosedLoopCount(svc->server.get(), svc->recorder.get(), svc->writes.get(),
                      spec.window, spec.warmup);
    }
    return time;
  }

  // Durable: a first leader settles the warmup into the settlement log and
  // checkpoints it; the serving leader recovers from that checkpoint (the
  // log suffix is empty) and a follower bootstraps from the same checkpoint
  // and tails the log.
  svc->log_path = dir + "/leader.log";
  svc->checkpoint_path = dir + "/leader.ckpt";
  std::filesystem::remove(svc->log_path);
  std::filesystem::remove(svc->checkpoint_path);
  DurabilityConfig durability;
  durability.log_path = svc->log_path;
  durability.checkpoint_path = svc->checkpoint_path;
  durability.writer.sync = kLogSync;
  durability.writer.group_records = kGroupRecords;
  durability.recover_on_start = false;
  time.Begin();
  {
    auto warm_leader = StartServer(spec, seed, svc->pool.get(), durability,
                                   svc->recorder.get());
    time.End();
    ClosedLoopCount(warm_leader.get(), svc->recorder.get(), svc->writes.get(),
                    spec.window, spec.warmup);
    warm_leader->Stop();
    time.Begin();
    const Status written = warm_leader->WriteCheckpoint();
    SSA_CHECK_MSG(written.ok(), written.ToString().c_str());
    time.End();
  }
  time.Begin();
  durability.recover_on_start = true;
  svc->server = StartServer(spec, seed, svc->pool.get(), durability,
                            svc->recorder.get());
  SSA_CHECK(svc->server->settled_seq() ==
            static_cast<uint64_t>(svc->writes->accepted.size()));
  ReadReplicaSetConfig rconfig;
  rconfig.num_followers = 1;
  AuctionServer* leader = svc->server.get();
  rconfig.leader_seq = [leader] { return leader->settled_seq(); };
  const std::string log_path = svc->log_path;
  const std::string ckpt_path = svc->checkpoint_path;
  svc->replicas = std::make_unique<ReadReplicaSet>(
      rconfig, [&spec, seed, log_path, ckpt_path](int) {
        Population pop = BuildPopulation(spec, seed);
        return std::make_unique<FollowerEngine>(
            FollowerConfigFor(spec, seed, log_path, ckpt_path),
            std::move(pop.workload), std::move(pop.strategies));
      });
  const Status started = svc->replicas->Start();
  SSA_CHECK_MSG(started.ok(), started.ToString().c_str());
  time.End();
  return time;
}

// ---------------------------------------------------------------------------
// Load phases.
// ---------------------------------------------------------------------------
struct ReadStats {
  std::vector<OpenLoopSample> samples;
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;
  std::vector<double> lag_seq;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Open-loop read-your-writes reads: each read carries the leader's
/// settled_seq() as its token and must be answered by a follower at or past
/// it.
void RunReader(ReadReplicaSet* replicas, AuctionServer* leader,
               const std::vector<double>& offsets, int64_t start_ns,
               uint64_t query_seed, ReadStats* out) {
  QueryGenerator gen(10, query_seed);
  std::vector<Money> prices;
  out->samples.resize(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    OpenLoopSample& s = out->samples[i];
    s.due_ns = start_ns + static_cast<int64_t>(offsets[i] * 1e9);
    SleepUntilNs(s.due_ns);
    s.sent_ns = NowNs();
    ++out->attempted;
    ReadOptions options;
    options.consistency = ReadConsistency::kAtLeastSeq;
    options.min_seq = leader->settled_seq();
    // A price estimate for the next auction after the reader's write token.
    Query q = gen.Next();
    q.time = static_cast<int64_t>(options.min_seq) + 1;
    options.wait_timeout = std::chrono::milliseconds(1000);
    const uint64_t applied_before = replicas->max_applied_seq();
    out->lag_seq.push_back(static_cast<double>(
        options.min_seq > applied_before ? options.min_seq - applied_before
                                         : 0));
    StatusOr<FollowerEngine*> routed = replicas->Route(options);
    const int64_t routed_ns = NowNs();
    uint64_t applied_at = 0;
    const bool ok = routed.ok() &&
                    (*routed)->EstimatePrices(q, &prices, &applied_at).ok() &&
                    applied_at >= options.min_seq;
    const int64_t done_ns = NowNs();
    if (!ok) {
      ++out->failed;
      continue;
    }
    s.done_ns = done_ns;
    out->wait_ms.push_back(static_cast<double>(routed_ns - s.sent_ns) / 1e6);
    out->exec_ms.push_back(static_cast<double>(done_ns - routed_ns) / 1e6);
  }
}

struct ServedRun {
  // Open loop.
  std::vector<OpenLoopSample> writes;
  ReadStats reads;
  double cpu_ms_per_auction = 0;
  int64_t measured_auctions = 0;
  // Closed loop.
  double capacity_qps = 0;
  double peak_rss_mb = 0;
  int max_threads = 0;
  // Server telemetry.
  double queue_wait_p50_ms = 0;
  double queue_wait_p99_ms = 0;
  double service_p50_ms = 0;
  double batch_size_mean = 0;
  int64_t records_applied = 0;
  // Checks.
  uint64_t final_seq = 0;
  uint64_t accounts_digest = 0;
  Money total_revenue = 0;
  bool follower_ok = true;
  std::string follower_detail;
  // Raw series for offline analysis.
  std::vector<int64_t> capacity_done_ns;
  int64_t capacity_begin_ns = 0;
  int64_t capacity_end_ns = 0;
  Snapshots snapshots;
};

void RunServed(const WorkloadSpec& spec, uint64_t seed, double seconds,
               Service* svc, ServedRun* run) {
  AuctionServer* server = svc->server.get();
  Recorder* recorder = svc->recorder.get();
  WriteStream* writes = svc->writes.get();
  server->ResetTelemetry();
  const int64_t batches_before = server->batches();
  const int64_t completed_before = server->completed();

  // --- Open loop: Poisson arrivals at the workload's fixed rate.
  const double open_s = seconds * spec.open_share;
  Rng arrivals(Derive(seed, 4));
  const std::vector<double> offsets =
      PoissonSchedule(spec.write_rate_qps,
                      ArrivalCount(spec.write_rate_qps, open_s),
                      [&] { return arrivals.NextDouble(); });
  const double cpu0 = ProcessCpuSeconds();
  const int64_t first_measured = static_cast<int64_t>(writes->accepted.size());
  const int64_t start_ns = NowNs() + 5'000'000;
  std::thread reader;
  if (svc->replicas != nullptr) {
    Rng read_arrivals(Derive(seed, 5));
    std::vector<double> read_offsets =
        PoissonSchedule(spec.read_rate_qps,
                        ArrivalCount(spec.read_rate_qps, open_s - kReadTailGapS),
                        [&] { return read_arrivals.NextDouble(); });
    reader = std::thread([svc, server, read_offsets, start_ns, seed, run] {
      RunReader(svc->replicas.get(), server, read_offsets, start_ns,
                Derive(seed, 6), &run->reads);
    });
  }
  run->writes.resize(offsets.size());
  std::vector<int64_t> index(offsets.size(), -1);
  for (size_t i = 0; i < offsets.size(); ++i) {
    OpenLoopSample& s = run->writes[i];
    s.due_ns = start_ns + static_cast<int64_t>(offsets[i] * 1e9);
    run->snapshots.MaybeTake(NowNs(), recorder->completed());
    SleepUntilNs(s.due_ns);
    s.sent_ns = NowNs();
    index[i] = writes->Submit(server);
    if (i == offsets.size() / 2) run->max_threads = LiveThreads();
  }
  if (reader.joinable()) reader.join();
  const int64_t open_last = static_cast<int64_t>(writes->accepted.size());
  recorder->WaitCompleted(open_last);
  if (svc->replicas != nullptr) {
    // Applying the open loop's settlements is part of what they cost.
    svc->replicas->follower(0)->WaitForSeq(server->settled_seq(),
                                           std::chrono::seconds(60));
  }
  // CPU per auction comes from the open loop only: its work is fixed by the
  // arrivals, while the closed loop's mix (how far the follower falls behind,
  // how full the batches are) moves with the host's speed.
  run->measured_auctions = open_last - first_measured;
  run->cpu_ms_per_auction = (ProcessCpuSeconds() - cpu0) * 1e3 /
                            static_cast<double>(run->measured_auctions);
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (index[i] >= 0) run->writes[i].done_ns = recorder->done_ns(index[i]);
  }
  // Queue wait and service time come from the open-loop phase only: the
  // closed loop below queues by construction.
  run->queue_wait_p50_ms = server->queue_wait_us().Percentile(50) / 1e3;
  run->queue_wait_p99_ms = server->queue_wait_us().Percentile(99) / 1e3;
  run->service_p50_ms = (server->auction_us().Percentile(50) +
                         server->settlement_us().Percentile(50)) /
                        1e3;
  run->batch_size_mean =
      static_cast<double>(server->completed() - completed_before) /
      static_cast<double>(std::max<int64_t>(1, server->batches() -
                                                   batches_before));

  // --- Closed loop: a fixed window of outstanding requests saturates the
  // server; capacity is an upper quantile of the completion rate over
  // sub-windows.
  const double cap_s = seconds - open_s;
  const int64_t cap_begin = NowNs();
  const int64_t cap_end = cap_begin + static_cast<int64_t>(cap_s * 1e9);
  const int64_t first_cap = static_cast<int64_t>(writes->accepted.size());
  for (int64_t now = cap_begin; now < cap_end; now = NowNs()) {
    run->snapshots.MaybeTake(now, recorder->completed());
    recorder->WaitCompleted(static_cast<int64_t>(writes->accepted.size()) -
                            spec.window + 1);
    writes->Submit(server);
  }
  const int64_t last = static_cast<int64_t>(writes->accepted.size());
  recorder->WaitCompleted(last);
  std::vector<int64_t> cap_done;
  for (int64_t i = first_cap; i < last; ++i) {
    cap_done.push_back(recorder->done_ns(i));
  }
  const int64_t measure_begin =
      cap_begin + static_cast<int64_t>(cap_s * kCapacityRampShare * 1e9);
  run->capacity_qps =
      Percentile(WindowRates(cap_done, measure_begin, cap_end,
                             kCapacityWindows),
                 kCapacityQuantile);
  run->capacity_done_ns = std::move(cap_done);
  run->capacity_begin_ns = measure_begin;
  run->capacity_end_ns = cap_end;
  run->peak_rss_mb = PeakRssMb();

  server->Stop();
  run->final_seq = server->settled_seq();
  run->accounts_digest = HashAccounts(server->engine().accounts());
  run->total_revenue = server->engine().total_revenue();

  if (svc->replicas != nullptr) {
    FollowerEngine* follower = svc->replicas->follower(0);
    std::vector<AdvertiserAccount> accounts;
    uint64_t applied_at = 0;
    const bool caught_up =
        follower->WaitForSeq(run->final_seq, std::chrono::seconds(60));
    const bool snap =
        follower->AccountsSnapshot(&accounts, &applied_at).ok();
    run->follower_ok = caught_up && snap && applied_at == run->final_seq &&
                       HashAccounts(accounts) == run->accounts_digest;
    if (!run->follower_ok) {
      run->follower_detail = "follower at seq " + std::to_string(applied_at) +
                             " vs leader " + std::to_string(run->final_seq) +
                             ": " + follower->status().ToString();
    }
    run->records_applied = follower->records_applied();
    svc->replicas->Stop();
  }
}

// ---------------------------------------------------------------------------
// Serial oracle: the same accepted queries, in the same order, through
// ShardedAuctionEngine::RunAuctionOn on a fresh population.
// ---------------------------------------------------------------------------
struct OracleResult {
  bool ok = true;
  int64_t first_mismatch = -1;
  std::vector<double> service_ms;  // per auction
};

void RunOracle(const WorkloadSpec& spec, uint64_t seed, int pool_threads,
               const std::vector<Query>& queries, const Recorder& recorder,
               const ServedRun& served, OracleResult* out) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 0) pool = std::make_unique<ThreadPool>(pool_threads);
  Population pop = BuildPopulation(spec, seed);
  ShardedAuctionEngine engine(EngineConfigFor(spec, seed, pool.get()),
                              std::move(pop.workload),
                              std::move(pop.strategies));
  out->service_ms.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t t0 = NowNs();
    const AuctionOutcome& o = engine.RunAuctionOn(queries[i]);
    out->service_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (HashOutcome(o) != recorder.hash(static_cast<int64_t>(i)) &&
        out->first_mismatch < 0) {
      out->first_mismatch = static_cast<int64_t>(i);
    }
  }
  out->ok = out->first_mismatch < 0 &&
            HashAccounts(engine.accounts()) == served.accounts_digest &&
            engine.total_revenue() == served.total_revenue &&
            static_cast<uint64_t>(engine.auctions_run()) == served.final_seq;
}

// ---------------------------------------------------------------------------
// Traced replay: the same arrival sequence through each layer's public entry
// point, one span per call, spans kept in memory and written at the end.
// ---------------------------------------------------------------------------
enum SpanName : uint32_t {
  kAuction,
  kCapture,
  kCompile,
  kMatrixFill,
  kTopK,
  kWinnerDetermination,
  kPricing,
  kPlanFused,
  kSettle,
  kAppend,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "auction",        "strategy.capture", "core.compile",
    "core.matrix_fill", "core.topk",      "matching.wd",
    "auction.pricing", "auction.plan_fused", "auction.settle",
    "durability.append",
};

struct Span {
  uint32_t name;
  int32_t parent;  // index into the span log, -1 for a root
  int64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }
  int32_t Begin(uint32_t name, int32_t parent, int64_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int32_t>(spans_.size()) - 1;
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
                   "\"span\":%zu,\"parent\":%d}}%s\n",
                   kSpanNames[s.name],
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.request), i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

struct TracedResult {
  bool ok = true;
  std::string detail;
  std::map<std::string, double> per_layer;
};

void RunTraced(const WorkloadSpec& spec, uint64_t seed,
               const std::vector<Query>& queries, const Recorder& recorder,
               const ServedRun& served, const std::string& dir,
               const std::string& trace_path, TracedResult* out) {
  Population pop = BuildPopulation(spec, seed);
  ShardedAuctionEngine engine(EngineConfigFor(spec, seed, nullptr),
                              std::move(pop.workload),
                              std::move(pop.strategies));
  const int n = spec.advertisers;
  const int k = engine.workload().config.num_slots;
  const ClickModel& model = *engine.workload().click_model;
  const PricingRule pricing = PricingRule::kGeneralizedSecondPrice;
  auto lane = engine.NewPlanLane();
  CompiledBidsCache cache;
  cache.Reserve(static_cast<size_t>(n));
  RevenueMatrix revenue(n, k);
  ShardedAuctionEngine::CapturedBids bids;
  std::vector<const CompiledBids*> compiled(static_cast<size_t>(n));
  ShardedAuctionEngine::PlannedAuction plan;
  ShardedAuctionEngine::PlannedAuction fused;

  const bool durable = spec.kind == Kind::kDurable;
  const std::string log_path = dir + "/traced.log";
  const std::string ckpt_path = dir + "/traced.ckpt";
  std::unique_ptr<SettlementLogWriter> writer;
  if (durable) {
    std::filesystem::remove(log_path);
    std::filesystem::remove(ckpt_path);
    LogWriterOptions options;
    options.sync = kLogSync;
    options.group_records = kGroupRecords;
    auto opened = SettlementLogWriter::Open(log_path, options);
    SSA_CHECK_MSG(opened.ok(), opened.status().ToString().c_str());
    writer = *std::move(opened);
  }

  // Auctions alternate between traced (a span around every call, plus the
  // fused PlanCaptured on the same bids) and untraced (two clock reads
  // around the same calls). Interleaving loads both halves identically, so
  // their per-auction service times give the tracing overhead.
  SpanLog log(queries.size() * 6);
  const int64_t warmup = spec.warmup;
  int64_t traced_count = 0, untraced_count = 0;
  int64_t hits0 = 0, misses0 = 0, candidates = 0;
  double commit_ns = 0, checkpoint_ms = 0, untraced_ns = 0;
  int64_t commits_measured0 = 0;
  std::vector<double> totals(kNumSpanNames, 0.0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    const int64_t r = static_cast<int64_t>(qi);
    if (r == warmup) {
      hits0 = cache.hits();
      misses0 = cache.misses();
      if (durable) {
        const int64_t t0 = NowNs();
        const Status s = engine.WriteCheckpoint(ckpt_path);
        SSA_CHECK_MSG(s.ok(), s.ToString().c_str());
        checkpoint_ms = static_cast<double>(NowNs() - t0) / 1e6;
        commits_measured0 = writer->commits();
      }
    }
    const bool traced = r % 2 == 0;
    const int64_t t_begin = NowNs();
    const int32_t root = traced ? log.Begin(kAuction, -1, r) : -1;
    auto stage = [&](SpanName name, auto&& call) {
      if (!traced) {
        call();
        return;
      }
      const int32_t id = log.Begin(name, root, r);
      call();
      log.End(id);
    };
    stage(kCapture, [&] { engine.CaptureBids(q, &bids); });
    stage(kCompile, [&] {
      for (AdvertiserId i = 0; i < n; ++i) {
        compiled[i] = &cache.Get(i, bids[i], k);
      }
    });
    stage(kMatrixFill, [&] {
      revenue.Reset(n, k);
      for (AdvertiserId i = 0; i < n; ++i) {
        FillRevenueRow(*compiled[i], model, &revenue, i);
      }
    });
    std::vector<AdvertiserId> cands;
    stage(kTopK, [&] { cands = SelectTopPerSlotCandidates(revenue, k); });
    plan.outcome = AuctionOutcome{};
    plan.outcome.query = q;
    stage(kWinnerDetermination,
          [&] { plan.outcome.wd = SolveOnCandidates(revenue, cands); });
    stage(kPricing, [&] {
      plan.prices =
          ComputePrices(pricing, revenue, model, plan.outcome.wd.allocation);
    });
    if (traced) {
      // The fused plan on the same captured bids: the decomposition must
      // reproduce it bitwise, and its time minus the stage sum is the shard
      // fan-out / merge residual.
      stage(kPlanFused,
            [&] { engine.PlanCaptured(q, bids, lane.get(), &fused); });
      if (out->ok && (fused.outcome.wd.allocation.slot_to_advertiser !=
                          plan.outcome.wd.allocation.slot_to_advertiser ||
                      fused.outcome.wd.matching_weight !=
                          plan.outcome.wd.matching_weight ||
                      fused.prices != plan.prices)) {
        out->ok = false;
        out->detail = "decomposed plan differs from PlanCaptured at auction " +
                      std::to_string(r);
      }
    }
    const AuctionOutcome* settled = nullptr;
    stage(kSettle, [&] { settled = &engine.SettlePlanned(&plan); });
    if (durable) {
      const int64_t commits_before = writer->commits();
      const int64_t t0 = NowNs();
      Status appended;
      stage(kAppend, [&] {
        appended = writer->Append(SettlementRecord::FromOutcome(
            static_cast<uint64_t>(engine.auctions_run()), *settled));
      });
      SSA_CHECK_MSG(appended.ok(), appended.ToString().c_str());
      if (writer->commits() > commits_before && r >= warmup) {
        commit_ns += static_cast<double>(NowNs() - t0);
      }
    }
    if (traced) {
      log.End(root);
    } else if (r >= warmup) {
      untraced_ns += static_cast<double>(NowNs() - t_begin);
      ++untraced_count;
    }

    if (out->ok && HashOutcome(*settled) != recorder.hash(r)) {
      out->ok = false;
      out->detail = "traced auction " + std::to_string(r) +
                    " differs from the served one";
    }
    if (r >= warmup && traced) {
      ++traced_count;
      candidates += static_cast<int64_t>(cands.size());
    }
  }
  if (out->ok && HashAccounts(engine.accounts()) != served.accounts_digest) {
    out->ok = false;
    out->detail = "traced final accounts differ from the served ones";
  }

  // Per-layer means over the measured (post-warmup) traced auctions.
  for (const Span& sp : log.spans()) {
    if (sp.request >= warmup) {
      totals[sp.name] += static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
    }
  }
  const double m = static_cast<double>(std::max<int64_t>(traced_count, 1));
  auto per = [&](SpanName name) { return totals[name] / m; };
  const double stage_sum = per(kCompile) + per(kMatrixFill) + per(kTopK) +
                           per(kWinnerDetermination) + per(kPricing);
  auto& pl = out->per_layer;
  pl["strategy.capture_ms"] = per(kCapture);
  pl["strategy.programs_run"] =
      static_cast<double>(traced_count + untraced_count) * n;
  pl["core.compile_ms"] = per(kCompile);
  const double lookups = static_cast<double>(cache.hits() - hits0 +
                                             cache.misses() - misses0);
  pl["core.compile_hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache.hits() - hits0) / lookups : 0;
  pl["core.matrix_fill_ms"] = per(kMatrixFill);
  pl["core.topk_ms"] = per(kTopK);
  pl["core.candidates"] = static_cast<double>(candidates) / m;
  pl["matching.wd_ms"] = per(kWinnerDetermination);
  pl["auction.pricing_ms"] = per(kPricing);
  pl["auction.plan_residual_ms"] = per(kPlanFused) - stage_sum;
  pl["auction.settle_ms"] = per(kSettle);
  // Service time of a traced auction: its root span without the fused
  // reference plan, which only traced auctions run.
  const double traced_ms = per(kAuction) - per(kPlanFused);
  const double untraced_ms =
      untraced_ns / 1e6 /
      static_cast<double>(std::max<int64_t>(untraced_count, 1));
  pl["trace.service_ms"] = traced_ms;
  pl["trace.untraced_service_ms"] = untraced_ms;
  pl["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms;

  pl["durability.append_us"] = 0;
  pl["durability.commit_us"] = 0;
  pl["durability.bytes_per_record"] = 0;
  pl["durability.commits"] = 0;
  pl["durability.checkpoint_write_ms"] = 0;
  pl["replication.bootstrap_ms"] = 0;
  pl["replication.apply_ms"] = 0;
  if (durable) {
    int64_t t0 = NowNs();
    const int64_t commits_before = writer->commits();
    const Status flushed = writer->Flush();
    SSA_CHECK_MSG(flushed.ok(), flushed.ToString().c_str());
    if (writer->commits() > commits_before) {
      commit_ns += static_cast<double>(NowNs() - t0);
    }
    const int64_t commits = writer->commits() - commits_measured0;
    pl["durability.append_us"] = per(kAppend) * 1e3;
    pl["durability.commit_us"] =
        commits > 0 ? commit_ns / 1e3 / static_cast<double>(commits) : 0;
    pl["durability.bytes_per_record"] =
        static_cast<double>(writer->bytes_written()) /
        static_cast<double>(std::max<int64_t>(1, writer->records_appended()));
    pl["durability.commits"] = static_cast<double>(commits);
    pl["durability.checkpoint_write_ms"] = checkpoint_ms;

    // A follower bootstraps from the post-warmup checkpoint and replays the
    // measured suffix of the traced log.
    Population fpop = BuildPopulation(spec, seed);
    FollowerEngine follower(FollowerConfigFor(spec, seed, log_path, ckpt_path),
                            std::move(fpop.workload),
                            std::move(fpop.strategies));
    t0 = NowNs();
    const Status started = follower.Start();
    SSA_CHECK_MSG(started.ok(), started.ToString().c_str());
    const int64_t t1 = NowNs();
    const uint64_t last = static_cast<uint64_t>(engine.auctions_run());
    const bool caught_up = follower.WaitForSeq(last, std::chrono::seconds(120));
    const int64_t t2 = NowNs();
    std::vector<AdvertiserAccount> accounts;
    const bool snap = follower.AccountsSnapshot(&accounts, nullptr).ok();
    follower.Stop();
    if (out->ok && !(caught_up && snap &&
                     HashAccounts(accounts) == served.accounts_digest)) {
      out->ok = false;
      out->detail = "traced follower replay differs from the leader";
    }
    pl["replication.bootstrap_ms"] = static_cast<double>(t1 - t0) / 1e6;
    pl["replication.apply_ms"] =
        static_cast<double>(t2 - t1) / 1e6 /
        static_cast<double>(std::max<int64_t>(1, follower.records_applied()));
    std::filesystem::remove(log_path);
    std::filesystem::remove(ckpt_path);
  }
  if (!log.WriteChromeTrace(trace_path)) {
    out->ok = false;
    out->detail = "cannot write " + trace_path;
  }
}

// ---------------------------------------------------------------------------
// Result file.
// ---------------------------------------------------------------------------
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteObject(std::FILE* f, const char* key,
                 const std::map<std::string, double>& values, bool last) {
  std::fprintf(f, "  \"%s\": {", key);
  size_t i = 0;
  for (const auto& [name, v] : values) {
    std::fprintf(f, "%s\n    %s: %s", i++ == 0 ? "" : ",",
                 JsonString(name).c_str(), JsonNumber(v).c_str());
  }
  std::fprintf(f, "\n  }%s\n", last ? "" : ",");
}

/// Per-request and periodic series of the served run, for offline analysis
/// of a result (times in ns on the steady clock).
bool WriteRaw(const std::string& path, const ServedRun& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool first = true;
  auto series = [&](const char* name, size_t n, auto&& value) {
    std::fprintf(f, "%s\"%s\":[", first ? "{" : ",\n", name);
    first = false;
    for (size_t i = 0; i < n; ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", JsonNumber(value(i)).c_str());
    }
    std::fprintf(f, "]");
  };
  const auto& w = run.writes;
  const auto& r = run.reads.samples;
  const auto& c = run.capacity_done_ns;
  const auto& p = run.snapshots.points();
  auto ns = [](int64_t v) { return static_cast<double>(v); };
  series("write_due_ns", w.size(), [&](size_t i) { return ns(w[i].due_ns); });
  series("write_sent_ns", w.size(), [&](size_t i) { return ns(w[i].sent_ns); });
  series("write_done_ns", w.size(), [&](size_t i) { return ns(w[i].done_ns); });
  series("read_due_ns", r.size(), [&](size_t i) { return ns(r[i].due_ns); });
  series("read_done_ns", r.size(), [&](size_t i) { return ns(r[i].done_ns); });
  series("capacity_done_ns", c.size(), [&](size_t i) { return ns(c[i]); });
  series("snap_t_ns", p.size(), [&](size_t i) { return ns(p[i].t_ns); });
  series("snap_cpu_s", p.size(), [&](size_t i) { return p[i].cpu_s; });
  series("snap_completed", p.size(),
         [&](size_t i) { return ns(p[i].completed); });
  series("snap_steal_ticks", p.size(),
         [&](size_t i) { return ns(p[i].steal_ticks); });
  std::fprintf(f, ",\n\"capacity_begin_ns\":%lld,\"capacity_end_ns\":%lld",
               static_cast<long long>(run.capacity_begin_ns),
               static_cast<long long>(run.capacity_end_ns));
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int ThreadBudget(const WorkloadSpec& spec) {
  // Load generator + executor + shard pool (+ reader + follower apply).
  return 2 + spec.pool_threads + (spec.kind == Kind::kDurable ? 2 : 0);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "workdir", "out"}) {
    if (args.count(required) == 0) {
      std::fprintf(stderr, "missing --%s\n", required);
      return 2;
    }
  }
  const WorkloadSpec* spec = FindWorkload(args["workload"]);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args["workload"].c_str());
    return 2;
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  const std::string dir = args["workdir"];
  std::filesystem::create_directories(dir);
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  // --- Set-up, repeated; the last service is kept and measured.
  std::vector<double> setup_cpu, setup_wall;
  std::unique_ptr<Service> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    svc = std::make_unique<Service>();
    const SetupTime t =
        SetUp(*spec, seed, dir, rep + 1 == kSetupReps, svc.get());
    setup_cpu.push_back(t.cpu_s);
    setup_wall.push_back(t.wall_s);
  }

  ServedRun served;
  RunServed(*spec, seed, seconds, svc.get(), &served);
  const std::vector<Query> queries = svc->writes->accepted;
  const int64_t write_attempted = svc->writes->attempted;
  const int64_t write_rejected = svc->writes->rejected;
  const std::string log_path = svc->log_path;
  const std::string ckpt_path = svc->checkpoint_path;
  std::unique_ptr<Recorder> recorder = std::move(svc->recorder);
  svc.reset();
  if (!log_path.empty()) {
    std::filesystem::remove(log_path);
    std::filesystem::remove(ckpt_path);
  }

  // --- Output checks (and, traced, the per-layer replay).
  OracleResult oracle;
  TracedResult traced;
  const std::string trace_path = dir + "/trace-" + spec->name + "-" +
                                 std::to_string(seed) + ".json";
  if (trace) {
    // The oracle (serial, one thread) runs beside the traced replay so the
    // check costs no extra wall time.
    std::thread oracle_thread([&] {
      RunOracle(*spec, seed, 0, queries, *recorder, served, &oracle);
    });
    RunTraced(*spec, seed, queries, *recorder, served, dir, trace_path,
              &traced);
    oracle_thread.join();
  } else {
    RunOracle(*spec, seed, 2, queries, *recorder, served, &oracle);
  }

  // --- Metrics.
  const std::vector<double> write_lat = LatenciesFromDueMs(served.writes);
  const std::vector<double> read_lat = LatenciesFromDueMs(served.reads.samples);
  const std::vector<double> late = LatenessMs(served.writes);

  std::map<std::string, double> e2e;
  // Set-up is gated in CPU seconds, which other tenants cannot inflate (see
  // METRICS.md); its wall time is reported beside the per-layer metrics.
  e2e["setup_s"] = Median(setup_cpu);
  e2e["latency_p25_ms"] = Percentile(write_lat, kGatedLatencyQuantile);
  e2e["cpu_ms_per_auction"] = served.cpu_ms_per_auction;
  e2e["peak_rss_mb"] = served.peak_rss_mb;

  std::map<std::string, double> pl;
  const int64_t write_failed = write_rejected;
  pl["setup.wall_s"] = Median(setup_wall);
  pl["serving.error_rate"] =
      static_cast<double>(write_failed) /
      static_cast<double>(std::max<int64_t>(1, write_attempted));
  // Tails are reported at the highest percentile (at most p99) with ten
  // samples beyond it; the percentile used is reported beside.
  const double write_tail = HighestSupportedPercentile(write_lat.size());
  const double read_tail = HighestSupportedPercentile(read_lat.size());
  pl["serving.capacity_qps"] = served.capacity_qps;
  pl["serving.latency_p10_ms"] = Percentile(write_lat, 10);
  pl["serving.latency_p50_ms"] = Percentile(write_lat, 50);
  pl["serving.latency_tail_ms"] = Percentile(write_lat, write_tail);
  pl["serving.latency_tail_pct"] = write_tail;
  pl["serving.queue_wait_p50_ms"] = served.queue_wait_p50_ms;
  pl["serving.queue_wait_p99_ms"] = served.queue_wait_p99_ms;
  pl["serving.service_p50_ms"] = served.service_p50_ms;
  pl["serving.batch_size_mean"] = served.batch_size_mean;
  pl["serving.rejected"] = static_cast<double>(write_rejected);
  const bool reads = spec->kind == Kind::kDurable;
  pl["serving.read_latency_p50_ms"] = reads ? Percentile(read_lat, 50) : 0;
  pl["serving.read_latency_tail_ms"] =
      reads ? Percentile(read_lat, read_tail) : 0;
  pl["serving.read_latency_tail_pct"] = reads ? read_tail : 0;
  pl["serving.read_error_rate"] =
      reads ? static_cast<double>(served.reads.failed) /
                  static_cast<double>(std::max<int64_t>(1, served.reads.attempted))
            : 0;
  pl["serving.read_wait_ms"] = reads ? Mean(served.reads.wait_ms) : 0;
  pl["serving.read_exec_ms"] = reads ? Mean(served.reads.exec_ms) : 0;
  pl["replication.lag_seq_p99"] =
      reads ? Percentile(served.reads.lag_seq, 99) : 0;
  pl["replication.records_applied"] = static_cast<double>(served.records_applied);
  pl["loadgen.late_p99_ms"] = Percentile(late, 99);
  pl["loadgen.sent"] = static_cast<double>(served.writes.size());
  if (trace) {
    for (const auto& [name, v] : traced.per_layer) pl[name] = v;
  }

  // --- Verdict.
  const int nproc = UsableCpus();
  const int budget = ThreadBudget(*spec);
  const bool threads_ok = served.max_threads <= nproc && budget <= nproc;
  std::map<std::string, bool> checks;
  checks["oracle_bitwise"] = oracle.ok;
  checks["follower_bitwise"] = served.follower_ok;
  if (trace) checks["traced_bitwise"] = traced.ok;
  checks["no_failed_operations"] =
      write_failed == 0 && served.reads.failed == 0;
  bool correct = true;
  for (const auto& [name, ok] : checks) correct = correct && ok;

  std::printf("workload %s seed %llu trace %d: %lld auctions served, "
              "%zu open-loop writes, %zu reads\n",
              spec->name, static_cast<unsigned long long>(seed), trace ? 1 : 0,
              static_cast<long long>(queries.size()), served.writes.size(),
              served.reads.samples.size());
  for (const auto& [name, ok] : checks) {
    std::printf("  check %-26s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  if (oracle.first_mismatch >= 0) {
    std::printf("  oracle: first mismatch at auction %lld\n",
                static_cast<long long>(oracle.first_mismatch));
  }
  if (!served.follower_ok) std::printf("  %s\n", served.follower_detail.c_str());
  if (!traced.ok) std::printf("  traced: %s\n", traced.detail.c_str());
  if (!threads_ok) {
    std::fprintf(stderr, "warning: %d threads live (budget %d) on %d usable "
                 "CPUs; result marked invalid\n",
                 served.max_threads, budget, nproc);
  }

  if (!WriteRaw(args["out"] + ".raw", served)) {
    std::fprintf(stderr, "cannot write %s.raw\n", args["out"].c_str());
    return 1;
  }
  std::FILE* f = std::fopen(args["out"].c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args["out"].c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n"
               "  \"trace\": %d,\n  \"seconds\": %s,\n",
               JsonString(spec->name).c_str(),
               static_cast<unsigned long long>(seed), trace ? 1 : 0,
               JsonNumber(seconds).c_str());
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %lld,\n"
               "  \"failed\": %lld,\n",
               correct ? "true" : "false",
               static_cast<long long>(write_attempted + served.reads.attempted),
               static_cast<long long>(write_failed + served.reads.failed));
  std::fprintf(f, "  \"checks\": {");
  size_t ci = 0;
  for (const auto& [name, ok] : checks) {
    std::fprintf(f, "%s%s: %s", ci++ == 0 ? "" : ", ",
                 JsonString(name).c_str(), ok ? "true" : "false");
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"samples\": {\"write_latency\": %zu, \"read_latency\": "
               "%zu, \"setups\": %zu, \"auctions\": %zu},\n",
               write_lat.size(), read_lat.size(), setup_cpu.size(),
               queries.size());
  std::fprintf(f,
               "  \"provenance\": {\"nproc\": %d, \"threads_budget\": %d, "
               "\"threads_observed\": %d, \"valid\": %s, \"cpu_model\": %s, "
               "\"build_type\": %s, \"cxx_flags\": %s, \"compiler\": %s, "
               "\"advertisers\": %d, \"shards\": %d, \"pool_threads\": %d, "
               "\"write_rate_qps\": %s, \"read_rate_qps\": %s},\n",
               nproc, budget, served.max_threads,
               threads_ok ? "true" : "false", JsonString(CpuModel()).c_str(),
               JsonString(PERFBENCH_BUILD_TYPE).c_str(),
               JsonString(PERFBENCH_CXX_FLAGS).c_str(),
               JsonString(PERFBENCH_COMPILER).c_str(), spec->advertisers,
               spec->shards, spec->pool_threads,
               JsonNumber(spec->write_rate_qps).c_str(),
               JsonNumber(spec->read_rate_qps).c_str());
  if (trace) {
    std::fprintf(f, "  \"trace_file\": %s,\n", JsonString(trace_path).c_str());
  }
  WriteObject(f, "end_to_end", e2e, false);
  WriteObject(f, "per_layer", pl, true);
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) return 1;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
