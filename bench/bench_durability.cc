// Durability overhead: auction throughput with the settlement log off vs on
// at each sync mode, plus checkpoint write/restore and restore-then-replay
// recovery costs. Answers the question the durability design hinges on: what
// does a sequenced, CRC-checked, group-committed log cost per auction, and
// how fast can a crashed engine get back to its pre-crash state?
//
//   log=off        baseline engine loop, no durability
//   log=buffered   append + CRC, group write() every G records, no fsync
//   log=group      append + CRC, write()+fsync every G records
//   log=each       write()+fsync every record (upper bound)
//
// Knobs (env): SSA_DUR_N (advertisers, default 5000), SSA_DUR_AUCTIONS
// (measured auctions, default 2000), SSA_DUR_WARMUP (default 100),
// SSA_DUR_GROUP (group size, default 32), SSA_SEED,
// SSA_DUR_QUICK=1 (CI smoke: tiny population and counts).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/settlement_log.h"
#include "util/timer.h"

namespace ssa {
namespace bench {
namespace {

std::string TempPath(const std::string& name) {
  return "/tmp/ssa_bench_durability_" + name;
}

std::unique_ptr<ShardedAuctionEngine> MakeEngine(int n, uint64_t seed) {
  ShardedEngineConfig config;
  config.engine.seed = seed + 1;
  Workload workload = PaperWorkload(n, seed);
  auto strategies = RoiStrategies(workload);
  return std::make_unique<ShardedAuctionEngine>(config, std::move(workload),
                                                std::move(strategies));
}

/// The Section V query stream for MakeEngine(n, seed)'s engine, seeded like
/// the engine.
QueryGenerator MakeQueries(const ShardedAuctionEngine& engine, uint64_t seed) {
  return QueryGenerator(engine.workload().config.num_keywords, seed + 1);
}

/// Runs warmup+measured auctions on the next queries of `queries`, appending
/// each settlement to `writer` (nullptr = log off). Returns measured
/// auctions per second.
double MeasureQps(ShardedAuctionEngine* engine, QueryGenerator* queries,
                  SettlementLogWriter* writer, int warmup, int measured) {
  for (int t = 0; t < warmup; ++t) {
    const AuctionOutcome& outcome = engine->RunAuctionOn(queries->Next());
    if (writer != nullptr) {
      (void)writer->Append(SettlementRecord::FromOutcome(
          static_cast<uint64_t>(engine->auctions_run()), outcome));
    }
  }
  WallTimer timer;
  for (int t = 0; t < measured; ++t) {
    const AuctionOutcome& outcome = engine->RunAuctionOn(queries->Next());
    if (writer != nullptr) {
      (void)writer->Append(SettlementRecord::FromOutcome(
          static_cast<uint64_t>(engine->auctions_run()), outcome));
    }
  }
  if (writer != nullptr) (void)writer->Flush();
  return measured / (timer.ElapsedMillis() / 1e3);
}

void RunLogModes(int n, int warmup, int measured, size_t group,
                 uint64_t seed) {
  std::printf("-- settlement log overhead (n=%d, auctions=%d, group=%zu)\n",
              n, measured, group);
  std::printf("%-12s %12s %14s %10s\n", "log", "qps", "bytes/auction",
              "vs off");

  double baseline = 0;
  struct ModeRow {
    const char* name;
    bool enabled;
    LogSyncMode sync;
  };
  const ModeRow rows[] = {
      {"off", false, LogSyncMode::kBuffered},
      {"buffered", true, LogSyncMode::kBuffered},
      {"group", true, LogSyncMode::kGroupFsync},
      {"each", true, LogSyncMode::kFsyncEach},
  };
  // Best-of-trials per mode, trials interleaved across modes: single-trial
  // back-to-back runs at production populations are dominated by machine
  // noise and frequency drift (the auction is ~ms, the append ~µs), which
  // otherwise reads as phantom log overhead on whichever mode ran last.
  const int trials = static_cast<int>(EnvInt("SSA_DUR_TRIALS", 3));
  const size_t num_rows = sizeof(rows) / sizeof(rows[0]);
  double best_qps[num_rows] = {};
  double bytes_per_auction[num_rows] = {};
  for (int trial = 0; trial < trials; ++trial) {
    for (size_t m = 0; m < num_rows; ++m) {
      const ModeRow& row = rows[m];
      auto engine = MakeEngine(n, seed);
      QueryGenerator queries = MakeQueries(*engine, seed);
      std::unique_ptr<SettlementLogWriter> writer;
      const std::string path = TempPath(row.name);
      std::remove(path.c_str());
      if (row.enabled) {
        LogWriterOptions options;
        options.sync = row.sync;
        options.group_records = group;
        auto opened =
            SettlementLogWriter::Open(path, options, /*next_seq=*/1);
        if (!opened.ok()) {
          std::printf("%-12s open failed: %s\n", row.name,
                      opened.status().ToString().c_str());
          continue;
        }
        writer = std::move(*opened);
      }
      best_qps[m] = std::max(
          best_qps[m],
          MeasureQps(engine.get(), &queries, writer.get(), warmup, measured));
      if (writer != nullptr) {
        bytes_per_auction[m] = static_cast<double>(writer->bytes_written()) /
                               static_cast<double>(warmup + measured);
      }
      std::remove(path.c_str());
    }
  }
  for (size_t m = 0; m < num_rows; ++m) {
    if (!rows[m].enabled) baseline = best_qps[m];
    std::printf("%-12s %12.0f %14.1f %9.2fx\n", rows[m].name, best_qps[m],
                bytes_per_auction[m],
                baseline > 0 ? best_qps[m] / baseline : 1.0);
  }
}

void RunRecoveryCosts(int n, int auctions, size_t group, uint64_t seed) {
  std::printf("-- checkpoint + recovery (n=%d, log suffix=%d auctions)\n", n,
              auctions);
  const std::string log_path = TempPath("recovery_log");
  const std::string ckpt_path = TempPath("recovery_ckpt");
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());

  // Build a checkpoint and a post-checkpoint log suffix.
  auto engine = MakeEngine(n, seed);
  {
    WallTimer timer;
    (void)engine->WriteCheckpoint(ckpt_path);
    std::printf("%-28s %10.2f ms\n", "checkpoint write",
                timer.ElapsedMillis());
  }
  {
    LogWriterOptions options;
    options.sync = LogSyncMode::kBuffered;
    options.group_records = group;
    auto writer = SettlementLogWriter::Open(log_path, options, /*next_seq=*/1);
    if (!writer.ok()) return;
    QueryGenerator queries = MakeQueries(*engine, seed);
    for (int t = 0; t < auctions; ++t) {
      const AuctionOutcome& outcome = engine->RunAuctionOn(queries.Next());
      (void)(*writer)->Append(SettlementRecord::FromOutcome(
          static_cast<uint64_t>(engine->auctions_run()), outcome));
    }
    (void)(*writer)->Flush();
  }

  // Recover a fresh engine: checkpoint restore + full-suffix replay.
  auto recovered = MakeEngine(n, seed);
  RecoveryOptions options;
  options.checkpoint_path = ckpt_path;
  options.log_path = log_path;
  RecoveryReport report;
  WallTimer timer;
  const Status status = RecoverEngine(recovered.get(), options, &report);
  const double ms = timer.ElapsedMillis();
  if (!status.ok()) {
    std::printf("recovery failed: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("%-28s %10.2f ms  (%" PRId64 " auctions, %.0f/s)\n",
              "restore + replay", ms, report.records_replayed,
              report.records_replayed / (ms / 1e3));
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
}

void Main() {
  const bool quick = EnvInt("SSA_DUR_QUICK", 0) != 0;
  const int n = static_cast<int>(EnvInt("SSA_DUR_N", quick ? 200 : 5000));
  const int measured =
      static_cast<int>(EnvInt("SSA_DUR_AUCTIONS", quick ? 100 : 2000));
  const int warmup =
      static_cast<int>(EnvInt("SSA_DUR_WARMUP", quick ? 10 : 100));
  const size_t group =
      static_cast<size_t>(EnvInt("SSA_DUR_GROUP", 32));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("SSA_SEED", 7));

  RunLogModes(n, warmup, measured, group, seed);
  RunRecoveryCosts(n, measured, group, seed);
}

}  // namespace
}  // namespace bench
}  // namespace ssa

int main() {
  ssa::bench::Main();
  return 0;
}
