// Crash-recovery fault injection: kill the durability pipeline at a random
// auction index, corrupt whatever had not been committed (clean kill, torn
// write, bit flip), recover by restore-then-replay, and assert the remaining
// trajectory is bitwise identical to a run that never crashed — for the
// engine at K = 1 and K > 1 shards, and the serving subsystem. Loss is
// asserted to be bounded by the unsynced group-commit suffix.
//
// Schedules derive from SSA_FAULT_SEED (default 12345) so CI can sweep many
// random kill points; on failure the seed printed below reproduces the run.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "durability/recovery.h"
#include "durability/settlement_log.h"
#include "reference_engine.h"
#include "serving/auction_server.h"
#include "strategy/roi_strategy.h"
#include "util/rng.h"

namespace ssa {
namespace {

constexpr int kTotalAuctions = 60;
constexpr int kCheckpointAt = 20;
constexpr size_t kGroupRecords = 8;

uint64_t BaseSeed() {
  const char* env = std::getenv("SSA_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 12345;
}

enum class KillMode { kCleanKill, kTornWrite, kBitFlip };

const char* ModeName(KillMode mode) {
  switch (mode) {
    case KillMode::kCleanKill:
      return "clean-kill";
    case KillMode::kTornWrite:
      return "torn-write";
    case KillMode::kBitFlip:
      return "bit-flip";
  }
  return "?";
}

/// Kills the writer at one scripted sequence number and mutates the unsynced
/// suffix per the mode: drop it all (the OS never saw it), keep a byte
/// prefix (torn page write), or flip one mid-buffer bit (media corruption).
class ScriptedFaultInjector : public FaultInjector {
 public:
  ScriptedFaultInjector(uint64_t kill_seq, KillMode mode)
      : kill_seq_(kill_seq), mode_(mode) {}

  bool KillAt(uint64_t seq) override { return seq == kill_seq_; }

  void MutateUnsynced(std::string* unsynced) override {
    switch (mode_) {
      case KillMode::kCleanKill:
        unsynced->clear();
        return;
      case KillMode::kTornWrite:
        unsynced->resize(unsynced->size() / 2);
        return;
      case KillMode::kBitFlip:
        if (!unsynced->empty()) {
          (*unsynced)[unsynced->size() / 2] ^= 0x04;
        }
        return;
    }
  }

 private:
  const uint64_t kill_seq_;
  const KillMode mode_;
};

struct FaultSchedule {
  uint64_t seed = 0;
  uint64_t kill_seq = 0;
  KillMode mode = KillMode::kCleanKill;

  std::string Describe() const {
    return std::string("seed=") + std::to_string(seed) +
           " kill_seq=" + std::to_string(kill_seq) + " mode=" +
           ModeName(mode);
  }
};

/// Deterministic schedule #index for the configured base seed: a kill point
/// strictly after the checkpoint and a corruption mode.
FaultSchedule MakeSchedule(int index) {
  FaultSchedule schedule;
  schedule.seed = BaseSeed() + static_cast<uint64_t>(index);
  Rng rng(schedule.seed ^ 0xfa111a70ull);
  schedule.kill_seq =
      kCheckpointAt + 1 +
      rng.NextBounded(kTotalAuctions - kCheckpointAt);  // in (C, N]
  schedule.mode = static_cast<KillMode>(rng.NextBounded(3));
  return schedule;
}

WorkloadConfig SmallConfig(uint64_t seed) {
  WorkloadConfig config;
  config.num_advertisers = 30;
  config.num_slots = 4;
  config.num_keywords = 3;
  config.seed = seed;
  return config;
}

std::vector<std::unique_ptr<BiddingStrategy>> RoiStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/ssa_fault_" + name;
}

void ExpectAccountsBitwiseEq(const std::vector<AdvertiserAccount>& a,
                             const std::vector<AdvertiserAccount>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].amount_spent, b[i].amount_spent);
    ASSERT_EQ(a[i].spent_per_keyword, b[i].spent_per_keyword);
    ASSERT_EQ(a[i].value_gained, b[i].value_gained);
  }
}

/// A fresh engine over SmallConfig(workload_seed) with `num_shards` shards.
std::unique_ptr<ShardedAuctionEngine> MakeEngine(uint64_t workload_seed,
                                                 uint64_t engine_seed,
                                                 int num_shards) {
  Workload w = MakePaperWorkload(SmallConfig(workload_seed));
  ShardedEngineConfig config;
  config.engine.seed = engine_seed;
  config.num_shards = num_shards;
  return std::make_unique<ShardedAuctionEngine>(config, w, RoiStrategies(w));
}

/// Engine-level kill/recover cycle over one precomputed query stream, which
/// every engine reads at its own position (auctions_run()):
///   1. oracle runs all N auctions, never crashing;
///   2. a victim runs with a logging writer that dies at kill_seq
///      (checkpoint taken at kCheckpointAt);
///   3. a fresh engine recovers from checkpoint + log and replays;
///   4. the recovered engine finishes the remaining auctions.
/// Final accounts, revenue, and the post-recovery trajectory must be
/// bitwise-equal to the oracle's.
void RunEngineKillCycle(uint64_t workload_seed, uint64_t engine_seed,
                        int num_shards, const FaultSchedule& schedule,
                        const std::string& tag) {
  SCOPED_TRACE(schedule.Describe());
  const std::string log_path = TempPath(tag + "_log");
  const std::string ckpt_path = TempPath(tag + "_ckpt");
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());

  // Oracle: uninterrupted.
  auto oracle = MakeEngine(workload_seed, engine_seed, num_shards);
  std::vector<Query> queries;
  QueryGenerator generator(oracle->workload().config.num_keywords,
                           engine_seed);
  for (int i = 0; i <= kTotalAuctions; ++i) queries.push_back(generator.Next());
  auto run_next = [&queries](ShardedAuctionEngine* engine)
      -> const AuctionOutcome& {
    return engine->RunAuctionOn(queries[engine->auctions_run()]);
  };
  for (int i = 0; i < kTotalAuctions; ++i) run_next(oracle.get());

  // Victim: logs every settlement; the writer dies at kill_seq.
  ScriptedFaultInjector injector(schedule.kill_seq, schedule.mode);
  auto victim = MakeEngine(workload_seed, engine_seed, num_shards);
  {
    LogWriterOptions options;
    options.sync = LogSyncMode::kBuffered;
    options.group_records = kGroupRecords;
    auto writer = SettlementLogWriter::Open(log_path, options,
                                            /*next_seq=*/1, &injector);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int i = 0; i < kTotalAuctions; ++i) {
      const AuctionOutcome& outcome = run_next(victim.get());
      ASSERT_TRUE((*writer)
                      ->Append(SettlementRecord::FromOutcome(
                          static_cast<uint64_t>(victim->auctions_run()),
                          outcome))
                      .ok());
      if (victim->auctions_run() == kCheckpointAt) {
        ASSERT_TRUE((*writer)->Flush().ok());
        ASSERT_TRUE(victim->WriteCheckpoint(ckpt_path).ok());
      }
    }
    EXPECT_TRUE((*writer)->dead());
  }

  // Recover a fresh engine.
  auto recovered = MakeEngine(workload_seed, engine_seed, num_shards);
  RecoveryOptions options;
  options.checkpoint_path = ckpt_path;
  options.log_path = log_path;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(recovered.get(), options, &report).ok());
  EXPECT_EQ(report.checkpoint_seq, static_cast<uint64_t>(kCheckpointAt));
  EXPECT_EQ(report.verify_mismatches, 0);

  // Loss bound: everything up to the kill minus at most one unsynced group.
  const uint64_t recovered_seq = report.recovered_seq;
  EXPECT_LE(recovered_seq, schedule.kill_seq);
  EXPECT_GE(recovered_seq + kGroupRecords, schedule.kill_seq);
  EXPECT_GE(recovered_seq, static_cast<uint64_t>(kCheckpointAt));
  EXPECT_EQ(recovered->auctions_run(), static_cast<int64_t>(recovered_seq));

  // Finish the run: the remaining trajectory must be the oracle's, bitwise.
  for (int64_t i = recovered->auctions_run(); i < kTotalAuctions; ++i) {
    run_next(recovered.get());
  }
  ExpectAccountsBitwiseEq(oracle->accounts(), recovered->accounts());
  ASSERT_EQ(oracle->total_revenue(), recovered->total_revenue());
  // And the next auction after the horizon still agrees.
  const AuctionOutcome& want = run_next(oracle.get());
  const AuctionOutcome& got = run_next(recovered.get());
  ASSERT_EQ(got.query.keyword, want.query.keyword);
  ASSERT_EQ(got.wd.allocation.slot_to_advertiser,
            want.wd.allocation.slot_to_advertiser);
  ASSERT_EQ(got.prices, want.prices);
  ASSERT_EQ(got.revenue_charged, want.revenue_charged);

  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(FaultInjectionTest, SingleEngineSurvivesRandomKills) {
  for (int i = 0; i < 4; ++i) {
    RunEngineKillCycle(101, 103, /*num_shards=*/1, MakeSchedule(i),
                       "single" + std::to_string(i));
  }
}

TEST(FaultInjectionTest, ShardedEngineSurvivesRandomKills) {
  for (int i = 0; i < 4; ++i) {
    RunEngineKillCycle(107, 109, /*num_shards=*/3, MakeSchedule(100 + i),
                       "sharded" + std::to_string(i));
  }
}

/// Serving-mode cycle: session 1 serves the first kCheckpointAt queries and
/// checkpoints on shutdown; session 2 recovers, serves on, and is killed at
/// kill_seq; session 3 recovers (truncating any corrupt tail), re-serves the
/// lost-and-remaining suffix, and must land bitwise on the serial oracle.
void RunServingKillCycle(const FaultSchedule& schedule,
                         const std::string& tag) {
  SCOPED_TRACE(schedule.Describe());
  const std::string log_path = TempPath(tag + "_log");
  const std::string ckpt_path = TempPath(tag + "_ckpt");
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());

  const uint64_t workload_seed = 211;
  const uint64_t engine_seed = 223;
  Workload oracle_workload = MakePaperWorkload(SmallConfig(workload_seed));
  QueryGenerator gen(oracle_workload.config.num_keywords, engine_seed);
  std::vector<Query> queries;
  for (int i = 0; i < kTotalAuctions; ++i) queries.push_back(gen.Next());

  // Serial reference oracle over the same arrival sequence.
  EngineConfig engine_config;
  engine_config.seed = engine_seed;
  ReferenceEngine oracle(engine_config, oracle_workload,
                         RoiStrategies(oracle_workload));
  for (const Query& q : queries) oracle.RunAuctionOn(q);

  auto make_server = [&](FaultInjector* injector) {
    ServerConfig config;
    config.engine.engine = engine_config;
    config.engine.num_shards = 2;
    config.max_batch_size = 4;
    config.durability.log_path = log_path;
    config.durability.checkpoint_path = ckpt_path;
    config.durability.writer.sync = LogSyncMode::kBuffered;
    config.durability.writer.group_records = kGroupRecords;
    config.durability.injector = injector;
    Workload w = MakePaperWorkload(SmallConfig(workload_seed));
    auto strategies = RoiStrategies(w);
    return std::make_unique<AuctionServer>(config, std::move(w),
                                           std::move(strategies));
  };

  // Session 1: serve up to the checkpoint, shut down cleanly, checkpoint.
  {
    auto server = make_server(nullptr);
    ASSERT_TRUE(server->Start().ok());
    for (int i = 0; i < kCheckpointAt; ++i) {
      ASSERT_EQ(server->Submit(queries[i]), QueuePushResult::kAccepted);
    }
    server->Stop();
    ASSERT_TRUE(server->log_status().ok());
    ASSERT_EQ(server->engine().auctions_run(), kCheckpointAt);
    ASSERT_TRUE(server->WriteCheckpoint().ok());
  }

  // Session 2: recover (replays nothing or the clean suffix), serve the
  // rest; the injected fault kills the log writer at kill_seq.
  ScriptedFaultInjector injector(schedule.kill_seq, schedule.mode);
  {
    auto server = make_server(&injector);
    ASSERT_TRUE(server->Start().ok());
    ASSERT_EQ(server->recovery().recovered_seq,
              static_cast<uint64_t>(kCheckpointAt));
    for (int i = kCheckpointAt; i < kTotalAuctions; ++i) {
      ASSERT_EQ(server->Submit(queries[i]), QueuePushResult::kAccepted);
    }
    server->Stop();
    ASSERT_TRUE(server->log_writer() != nullptr &&
                server->log_writer()->dead());
  }

  // Session 3: recover past the crash, then re-serve everything the crash
  // destroyed. Recovery must truncate any corrupt tail rather than fail.
  {
    auto server = make_server(nullptr);
    ASSERT_TRUE(server->Start().ok());
    const RecoveryReport& report = server->recovery();
    EXPECT_EQ(report.checkpoint_seq, static_cast<uint64_t>(kCheckpointAt));
    EXPECT_EQ(report.verify_mismatches, 0);
    const uint64_t recovered_seq = report.recovered_seq;
    EXPECT_LE(recovered_seq, schedule.kill_seq);
    EXPECT_GE(recovered_seq + kGroupRecords, schedule.kill_seq);
    EXPECT_EQ(server->checkpoint_age(),
              static_cast<int64_t>(recovered_seq) - kCheckpointAt);
    for (uint64_t i = recovered_seq; i < kTotalAuctions; ++i) {
      ASSERT_EQ(server->Submit(queries[i]), QueuePushResult::kAccepted);
    }
    server->Stop();
    ASSERT_TRUE(server->log_status().ok());
    ASSERT_EQ(server->engine().auctions_run(), kTotalAuctions);
    ExpectAccountsBitwiseEq(oracle.accounts(), server->engine().accounts());
    ASSERT_EQ(oracle.total_revenue(), server->engine().total_revenue());
  }

  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(FaultInjectionTest, ServerSurvivesRandomKills) {
  for (int i = 0; i < 3; ++i) {
    RunServingKillCycle(MakeSchedule(200 + i), "serving" + std::to_string(i));
  }
}

TEST(FaultInjectionTest, EveryKillModeExercisedAtGroupBoundaryAndMidGroup) {
  // Pin the corner cases a random sweep may miss: a kill exactly at a group
  // boundary (the staged group includes a commit-eligible record) and one
  // mid-group, for each corruption mode.
  const KillMode modes[] = {KillMode::kCleanKill, KillMode::kTornWrite,
                            KillMode::kBitFlip};
  int index = 0;
  for (KillMode mode : modes) {
    for (uint64_t kill : {static_cast<uint64_t>(kCheckpointAt + kGroupRecords),
                          static_cast<uint64_t>(kCheckpointAt + kGroupRecords +
                                                3)}) {
      FaultSchedule schedule;
      schedule.seed = 0;
      schedule.kill_seq = kill;
      schedule.mode = mode;
      RunEngineKillCycle(227, 229, /*num_shards=*/1, schedule,
                         "pinned" + std::to_string(index++));
    }
  }
}

}  // namespace
}  // namespace ssa
