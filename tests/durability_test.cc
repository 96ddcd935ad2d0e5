// Durability subsystem tests: wire-format round trips, CRC corruption
// detection, settlement-log write/read in every sync mode, torn-tail
// truncation, checkpoint/restore across shard counts, and restore-then-replay
// recovery arriving bitwise at the uninterrupted trajectory. Crash-shaped
// fault schedules (random kill points, bit flips under a live server) live
// in fault_injection_test.cc; this file covers the building blocks.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "forwarding_strategy.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/settlement_log.h"
#include "durability/wire.h"
#include "strategy/roi_strategy.h"
#include "util/status.h"

namespace ssa {
namespace {

std::vector<std::unique_ptr<BiddingStrategy>> RoiStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (int i = 0; i < workload.config.num_advertisers; ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

WorkloadConfig SmallConfig(uint64_t seed = 1) {
  WorkloadConfig config;
  config.num_advertisers = 30;
  config.num_slots = 4;
  config.num_keywords = 3;
  config.seed = seed;
  return config;
}

/// Fresh temp path per test (the suite runs single-process; collisions
/// across tests are avoided by name).
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/ssa_durability_" + name;
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

TEST(WireFormatTest, RoundTripsEveryFieldType) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-42);
  w.PutI64(-(1ll << 40));
  w.PutDouble(-0.0);  // signed zero must survive bitwise
  w.PutString("auction");
  w.PutDoubleVector({1.5, -2.25, 1e-300});

  WireReader r(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double d = 1;
  std::string s;
  std::vector<double> v;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI32(&i32).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetDoubleVector(&v).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -(1ll << 40));
  EXPECT_TRUE(std::signbit(d));
  EXPECT_EQ(d, 0.0);
  EXPECT_EQ(s, "auction");
  EXPECT_EQ(v, (std::vector<double>{1.5, -2.25, 1e-300}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireFormatTest, ShortReadsErrorInsteadOfAsserting) {
  std::string buf;
  WireWriter(&buf).PutU32(123);
  WireReader r(buf);
  uint64_t u64 = 0;
  EXPECT_FALSE(r.GetU64(&u64).ok());  // only 4 bytes present

  // A string whose declared length exceeds the buffer must not over-read.
  std::string lying;
  WireWriter(&lying).PutU32(1000);
  lying += "abc";
  WireReader r2(lying);
  std::string s;
  EXPECT_FALSE(r2.GetString(&s).ok());
}

TEST(WireFormatTest, Crc32CatchesSingleBitFlip) {
  std::string data = "settlement record payload";
  const uint32_t clean = Crc32(data);
  data[5] ^= 0x10;
  EXPECT_NE(clean, Crc32(data));
}

Status FailingOp() { return Status::Internal("boom"); }
Status PassThrough(bool fail, int* side_effects) {
  if (fail) SSA_RETURN_IF_ERROR(FailingOp());
  ++(*side_effects);
  return Status::Ok();
}
StatusOr<int> MaybeInt(bool fail) {
  if (fail) return Status::NotFound("none");
  return 7;
}
Status AssignOrReturnUser(bool fail, int* out) {
  SSA_ASSIGN_OR_RETURN(const int v, MaybeInt(fail));
  *out = v;
  return Status::Ok();
}

TEST(StatusMacroTest, ReturnIfErrorPropagatesAndShortCircuits) {
  int side_effects = 0;
  EXPECT_EQ(PassThrough(true, &side_effects).code(), StatusCode::kInternal);
  EXPECT_EQ(side_effects, 0);
  EXPECT_TRUE(PassThrough(false, &side_effects).ok());
  EXPECT_EQ(side_effects, 1);
}

TEST(StatusMacroTest, AssignOrReturnMovesValueOrPropagates) {
  int out = 0;
  EXPECT_TRUE(AssignOrReturnUser(false, &out).ok());
  EXPECT_EQ(out, 7);
  out = 0;
  EXPECT_EQ(AssignOrReturnUser(true, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(out, 0);
}

/// Runs `count` auctions on `engine` over the next queries of `queries`,
/// appending each settlement to `writer`.
void RunAndLog(ShardedAuctionEngine* engine, QueryGenerator* queries,
               SettlementLogWriter* writer, int count) {
  for (int i = 0; i < count; ++i) {
    const AuctionOutcome& outcome = engine->RunAuctionOn(queries->Next());
    ASSERT_TRUE(writer
                    ->Append(SettlementRecord::FromOutcome(
                        static_cast<uint64_t>(engine->auctions_run()),
                        outcome))
                    .ok());
  }
}

class SettlementLogTest : public ::testing::TestWithParam<LogSyncMode> {};

TEST_P(SettlementLogTest, WriteReadRoundTrip) {
  const std::string path = TempPath("log_roundtrip");
  std::remove(path.c_str());

  Workload w = MakePaperWorkload(SmallConfig(3));
  ShardedEngineConfig config;
  config.engine.seed = 5;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);

  LogWriterOptions options;
  options.sync = GetParam();
  options.group_records = 4;
  auto writer = SettlementLogWriter::Open(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  RunAndLog(&engine, &queries, writer->get(), 10);
  ASSERT_TRUE((*writer)->Flush().ok());
  EXPECT_EQ((*writer)->records_appended(), 10);
  if (GetParam() == LogSyncMode::kFsyncEach) {
    EXPECT_EQ((*writer)->syncs(), (*writer)->commits());
  }
  writer->reset();

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(stats.records, 10);
  EXPECT_EQ(stats.last_seq, 10u);
  EXPECT_FALSE(stats.tail_truncated());
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].query.time, static_cast<int64_t>(i + 1));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSyncModes, SettlementLogTest,
                         ::testing::Values(LogSyncMode::kBuffered,
                                           LogSyncMode::kGroupFsync,
                                           LogSyncMode::kFsyncEach));

TEST(SettlementLogReaderTest, TornTailIsReportedAndTruncatable) {
  const std::string path = TempPath("log_torn");
  std::remove(path.c_str());

  Workload w = MakePaperWorkload(SmallConfig(7));
  ShardedEngineConfig config;
  config.engine.seed = 11;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  {
    auto writer = SettlementLogWriter::Open(path, LogWriterOptions{});
    ASSERT_TRUE(writer.ok());
    RunAndLog(&engine, &queries, writer->get(), 6);
    ASSERT_TRUE((*writer)->Flush().ok());
  }

  // Append a torn frame: a valid record's prefix, cut mid-payload.
  std::string frame;
  EncodeLogFrame(
      SettlementRecord::FromOutcome(7, engine.RunAuctionOn(queries.Next())),
      &frame);
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(frame.data(), 1, frame.size() / 2, f);
    std::fclose(f);
  }

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(stats.records, 6);
  EXPECT_TRUE(stats.tail_truncated());
  EXPECT_EQ(stats.corrupt_bytes, frame.size() / 2);

  // Truncate at the corruption point; the log reads clean afterwards.
  ASSERT_TRUE(TruncateFile(path, stats.valid_bytes).ok());
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(stats.records, 6);
  EXPECT_FALSE(stats.tail_truncated());
  std::remove(path.c_str());
}

TEST(SettlementLogReaderTest, MidLogBitFlipEndsScanAtCorruption) {
  const std::string path = TempPath("log_bitflip");
  std::remove(path.c_str());
  Workload w = MakePaperWorkload(SmallConfig(13));
  ShardedEngineConfig config;
  config.engine.seed = 17;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  {
    auto writer = SettlementLogWriter::Open(path, LogWriterOptions{});
    ASSERT_TRUE(writer.ok());
    RunAndLog(&engine, &queries, writer->get(), 8);
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  data[data.size() / 2] ^= 0x01;  // flip one bit mid-file
  ASSERT_TRUE(AtomicWriteFile(path, data).ok());

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_LT(stats.records, 8);  // scan stopped at the flipped frame
  EXPECT_TRUE(stats.tail_truncated());
  EXPECT_EQ(stats.valid_bytes + stats.corrupt_bytes, data.size());
  std::remove(path.c_str());
}

TEST(SettlementLogWriterTest, RejectsOutOfSequenceRecords) {
  const std::string path = TempPath("log_seq");
  std::remove(path.c_str());
  Workload w = MakePaperWorkload(SmallConfig(19));
  ShardedEngineConfig config;
  config.engine.seed = 23;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  auto writer = SettlementLogWriter::Open(path, LogWriterOptions{});
  ASSERT_TRUE(writer.ok());
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  const AuctionOutcome& outcome = engine.RunAuctionOn(queries.Next());
  EXPECT_TRUE((*writer)->Append(SettlementRecord::FromOutcome(1, outcome)).ok());
  const Status skip =
      (*writer)->Append(SettlementRecord::FromOutcome(3, outcome));
  EXPECT_EQ(skip.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

/// Checkpoint round trip at `num_shards`: run, checkpoint, keep running (the
/// oracle trajectory); then restore a fresh engine and verify it reproduces
/// the post-checkpoint trajectory bitwise, fed from a copy of the query
/// generator taken with the checkpoint.
void CheckpointRoundTrip(int num_shards) {
  const std::string path = TempPath("ckpt_roundtrip");
  std::remove(path.c_str());
  constexpr uint64_t kEngineSeed = 31;
  auto make_engine = [num_shards] {
    Workload w = MakePaperWorkload(SmallConfig(29));
    ShardedEngineConfig config;
    config.engine.seed = kEngineSeed;
    config.num_shards = num_shards;
    return std::make_unique<ShardedAuctionEngine>(config, w, RoiStrategies(w));
  };

  auto original = make_engine();
  QueryGenerator queries(SmallConfig(29).num_keywords, kEngineSeed);
  for (int i = 0; i < 40; ++i) original->RunAuctionOn(queries.Next());
  ASSERT_TRUE(original->WriteCheckpoint(path).ok());
  QueryGenerator resumed = queries;
  const Money revenue_at_checkpoint = original->total_revenue();

  std::vector<AuctionOutcome> expected;
  for (int i = 0; i < 25; ++i) {
    expected.push_back(original->RunAuctionOn(queries.Next()));
  }

  auto restored = make_engine();
  ASSERT_TRUE(restored->RestoreFromCheckpoint(path).ok());
  EXPECT_EQ(restored->auctions_run(), 40);
  EXPECT_EQ(restored->total_revenue(), revenue_at_checkpoint);
  for (int i = 0; i < 25; ++i) {
    const AuctionOutcome& got = restored->RunAuctionOn(resumed.Next());
    const AuctionOutcome& want = expected[i];
    ASSERT_EQ(got.query.keyword, want.query.keyword);
    ASSERT_EQ(got.query.time, want.query.time);
    ASSERT_EQ(got.wd.allocation.slot_to_advertiser,
              want.wd.allocation.slot_to_advertiser);
    ASSERT_EQ(got.prices, want.prices);
    ASSERT_EQ(got.revenue_charged, want.revenue_charged);
  }
  ExpectAccountsBitwiseEq(original->accounts(), restored->accounts());
  ASSERT_EQ(original->total_revenue(), restored->total_revenue());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SingleEngineRoundTripIsBitwise) {
  CheckpointRoundTrip(1);
}

TEST(CheckpointTest, ShardedEngineRoundTripIsBitwise) {
  CheckpointRoundTrip(3);
}

TEST(CheckpointTest, CaptureAfterRestoreIsByteIdentical) {
  // A checkpoint holds trajectory state only, so an engine restored from one
  // captures it again byte for byte. Forwarded bidders offer the RHTALU
  // planner no view: every auction runs the brute-force path through the
  // compiled-bids cache, whose history differs between the two engines.
  Workload w = MakePaperWorkload(SmallConfig(53));
  ShardedEngineConfig config;
  config.engine.seed = 59;
  ShardedAuctionEngine original(config, w, Forwarded(RoiStrategies(w)));
  ASSERT_FALSE(original.has_roi_planner());
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  for (int i = 0; i < 25; ++i) original.RunAuctionOn(queries.Next());
  ASSERT_GT(original.cache_misses(), 0);
  EngineCheckpoint ckpt;
  original.CaptureCheckpoint(&ckpt);
  std::string want;
  EncodeCheckpoint(ckpt, &want);

  ShardedAuctionEngine restored(config, w, Forwarded(RoiStrategies(w)));
  ASSERT_TRUE(restored.RestoreCheckpoint(ckpt).ok());
  EngineCheckpoint again;
  restored.CaptureCheckpoint(&again);
  std::string got;
  EncodeCheckpoint(again, &got);
  EXPECT_TRUE(got == want);  // byte for byte (binary: not printed)
}

TEST(CheckpointTest, RestoreIntoAnAdvancedEngineContinuesBitwise) {
  // Rewinding an engine that already ran past its checkpoint: its
  // compiled-bids cache holds tables from beyond the checkpoint, and nothing
  // invalidates them. A hit reuses only the masks of equal formulas and
  // takes the rewound table's values, so the rewound engine replays the
  // uninterrupted trajectory bit for bit.
  for (const int num_shards : {1, 3}) {
    SCOPED_TRACE("K " + std::to_string(num_shards));
    Workload w = MakePaperWorkload(SmallConfig(61));
    ShardedEngineConfig config;
    config.engine.seed = 67;
    config.num_shards = num_shards;
    ShardedAuctionEngine engine(config, w, Forwarded(RoiStrategies(w)));
    QueryGenerator queries(w.config.num_keywords, config.engine.seed);
    for (int i = 0; i < 20; ++i) engine.RunAuctionOn(queries.Next());
    EngineCheckpoint ckpt;
    engine.CaptureCheckpoint(&ckpt);
    QueryGenerator resumed = queries;
    std::vector<AuctionOutcome> expected;
    for (int i = 0; i < 30; ++i) {
      expected.push_back(engine.RunAuctionOn(queries.Next()));
    }
    const std::vector<AdvertiserAccount> final_accounts = engine.accounts();
    const Money final_revenue = engine.total_revenue();

    ASSERT_TRUE(engine.RestoreCheckpoint(ckpt).ok());
    ASSERT_EQ(engine.auctions_run(), 20);
    const int64_t hits_before = engine.cache_hits();
    for (size_t a = 0; a < expected.size(); ++a) {
      const AuctionOutcome& want = expected[a];
      const AuctionOutcome& got = engine.RunAuctionOn(resumed.Next());
      // Every entry a first rewound auction hits was compiled after the
      // checkpoint: the cache survived the rewind and served it.
      if (a == 0) {
        EXPECT_GT(engine.cache_hits(), hits_before);
      }
      ASSERT_EQ(got.query.keyword, want.query.keyword);
      ASSERT_EQ(got.query.time, want.query.time);
      ASSERT_EQ(got.wd.allocation.slot_to_advertiser,
                want.wd.allocation.slot_to_advertiser);
      ASSERT_EQ(got.prices, want.prices);
      ASSERT_EQ(got.revenue_charged, want.revenue_charged);
    }
    ExpectAccountsBitwiseEq(final_accounts, engine.accounts());
    EXPECT_EQ(engine.total_revenue(), final_revenue);
  }
}

void PortableAcrossShardLayouts(bool brute);

TEST(CheckpointTest, CheckpointIsPortableAcrossShardLayouts) {
  // A checkpoint taken at one shard count restores at any other (it holds
  // no shard layout): K = 1 -> 4 -> 7 -> 1, each reader
  // continuing bitwise-equal to the writer it restored from — the
  // determinism contract across shard counts, now across a persistence
  // boundary. Native ROI bidders plan logically (the RHTALU planner rebuilds
  // its lists from the restored bids); the same bidders behind the
  // forwarding wrapper take the brute-force path.
  for (const bool brute : {false, true}) {
    SCOPED_TRACE(brute ? "brute-force shards" : "logical shards");
    PortableAcrossShardLayouts(brute);
  }
}

void PortableAcrossShardLayouts(bool brute) {
  const std::string path = TempPath("ckpt_portable");
  std::remove(path.c_str());
  Workload w = MakePaperWorkload(SmallConfig(37));
  constexpr uint64_t kEngineSeed = 41;
  auto make_engine = [&w, brute](int num_shards) {
    ShardedEngineConfig config;
    config.engine.seed = kEngineSeed;
    config.num_shards = num_shards;
    auto strategies = RoiStrategies(w);
    if (brute) strategies = Forwarded(std::move(strategies));
    return std::make_unique<ShardedAuctionEngine>(config, w,
                                                  std::move(strategies));
  };
  auto writer = make_engine(1);
  QueryGenerator queries(w.config.num_keywords, kEngineSeed);
  for (int i = 0; i < 30; ++i) writer->RunAuctionOn(queries.Next());

  for (const int num_shards : {4, 7, 1}) {
    SCOPED_TRACE("K " + std::to_string(writer->num_shards()) + " -> " +
                 std::to_string(num_shards));
    ASSERT_TRUE(writer->WriteCheckpoint(path).ok());
    auto reader = make_engine(num_shards);
    ASSERT_TRUE(reader->RestoreFromCheckpoint(path).ok());
    ASSERT_EQ(reader->auctions_run(), writer->auctions_run());
    for (int i = 0; i < 20; ++i) {
      const Query query = queries.Next();
      const AuctionOutcome& want = writer->RunAuctionOn(query);
      const AuctionOutcome& got = reader->RunAuctionOn(query);
      ASSERT_EQ(got.query.keyword, want.query.keyword);
      ASSERT_EQ(got.wd.allocation.slot_to_advertiser,
                want.wd.allocation.slot_to_advertiser);
      ASSERT_EQ(got.revenue_charged, want.revenue_charged);
    }
    ExpectAccountsBitwiseEq(writer->accounts(), reader->accounts());
    ASSERT_EQ(writer->total_revenue(), reader->total_revenue());
    if (!brute) {
      // The one planner planned every auction since the restore.
      EXPECT_EQ(reader->planner_stats().logical_plans, 20);
    }
    writer = std::move(reader);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoreRejectsShapeMismatchAndCorruption) {
  const std::string path = TempPath("ckpt_reject");
  std::remove(path.c_str());
  Workload w = MakePaperWorkload(SmallConfig(43));
  ShardedEngineConfig config;
  config.engine.seed = 47;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  for (int i = 0; i < 5; ++i) engine.RunAuctionOn(queries.Next());
  ASSERT_TRUE(engine.WriteCheckpoint(path).ok());

  // Different population shape: restore must refuse without side effects.
  WorkloadConfig other_config = SmallConfig(43);
  other_config.num_advertisers = 12;
  Workload other = MakePaperWorkload(other_config);
  ShardedAuctionEngine mismatched(config, other, RoiStrategies(other));
  EXPECT_EQ(mismatched.RestoreFromCheckpoint(path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mismatched.auctions_run(), 0);

  // Flip one payload bit: the CRC must catch it.
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  data[data.size() - 3] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(path, data).ok());
  ShardedAuctionEngine fresh(config, w, RoiStrategies(w));
  EXPECT_FALSE(fresh.RestoreFromCheckpoint(path).ok());

  // Missing file is NotFound, not a crash.
  std::remove(path.c_str());
  EXPECT_EQ(fresh.RestoreFromCheckpoint(path).code(), StatusCode::kNotFound);
}

TEST(RecoveryTest, RestoreThenReplayReachesUninterruptedState) {
  const std::string log_path = TempPath("recover_log");
  const std::string ckpt_path = TempPath("recover_ckpt");
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());

  constexpr uint64_t kEngineSeed = 59;
  auto make_engine = [] {
    Workload w = MakePaperWorkload(SmallConfig(53));
    ShardedEngineConfig config;
    config.engine.seed = kEngineSeed;
    return std::make_unique<ShardedAuctionEngine>(config, w, RoiStrategies(w));
  };

  // Uninterrupted oracle: 70 auctions, checkpoint at 40, logging all along.
  auto oracle = make_engine();
  QueryGenerator queries(SmallConfig(53).num_keywords, kEngineSeed);
  {
    auto writer = SettlementLogWriter::Open(log_path, LogWriterOptions{});
    ASSERT_TRUE(writer.ok());
    RunAndLog(oracle.get(), &queries, writer->get(), 40);
    ASSERT_TRUE(oracle->WriteCheckpoint(ckpt_path).ok());
    RunAndLog(oracle.get(), &queries, writer->get(), 30);
    ASSERT_TRUE((*writer)->Flush().ok());
  }

  // Recover a fresh engine from checkpoint + log.
  auto recovered = make_engine();
  RecoveryOptions options;
  options.checkpoint_path = ckpt_path;
  options.log_path = log_path;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(recovered.get(), options, &report).ok());
  EXPECT_EQ(report.checkpoint_seq, 40u);
  EXPECT_EQ(report.records_skipped, 40);
  EXPECT_EQ(report.records_replayed, 30);
  EXPECT_EQ(report.recovered_seq, 70u);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(report.verify_mismatches, 0);

  ExpectAccountsBitwiseEq(oracle->accounts(), recovered->accounts());
  ASSERT_EQ(oracle->total_revenue(), recovered->total_revenue());
  // The next auction after recovery matches the uninterrupted run exactly:
  // the user RNG resumed mid-stream.
  const Query next = queries.Next();
  const AuctionOutcome& want = oracle->RunAuctionOn(next);
  const AuctionOutcome& got = recovered->RunAuctionOn(next);
  ASSERT_EQ(got.query.keyword, want.query.keyword);
  ASSERT_EQ(got.wd.allocation.slot_to_advertiser,
            want.wd.allocation.slot_to_advertiser);
  ASSERT_EQ(got.prices, want.prices);
  ASSERT_EQ(got.revenue_charged, want.revenue_charged);
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(RecoveryTest, NoCheckpointReplaysWholeLogFromScratch) {
  const std::string log_path = TempPath("recover_nockpt");
  std::remove(log_path.c_str());
  constexpr uint64_t kEngineSeed = 67;
  auto make_engine = [] {
    Workload w = MakePaperWorkload(SmallConfig(61));
    ShardedEngineConfig config;
    config.engine.seed = kEngineSeed;
    return std::make_unique<ShardedAuctionEngine>(config, w, RoiStrategies(w));
  };
  auto oracle = make_engine();
  QueryGenerator queries(SmallConfig(61).num_keywords, kEngineSeed);
  {
    auto writer = SettlementLogWriter::Open(log_path, LogWriterOptions{});
    ASSERT_TRUE(writer.ok());
    RunAndLog(oracle.get(), &queries, writer->get(), 20);
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  auto recovered = make_engine();
  RecoveryOptions options;
  options.log_path = log_path;
  RecoveryReport report;
  ASSERT_TRUE(RecoverEngine(recovered.get(), options, &report).ok());
  EXPECT_EQ(report.checkpoint_seq, 0u);
  EXPECT_EQ(report.records_replayed, 20);
  ExpectAccountsBitwiseEq(oracle->accounts(), recovered->accounts());
  std::remove(log_path.c_str());
}

TEST(RecoveryTest, CheckpointAndLogFromDifferentTrajectoriesAreDataLoss) {
  // The checkpoint comes from run A; the log from run B, whose queries come
  // from another seed, and it holds records past the checkpoint. Replay
  // feeds B's logged queries into A's state: the replayed settlement must
  // differ from B's logged one and stop recovery, not drift silently.
  const std::string log_path = TempPath("recover_mixed_log");
  const std::string ckpt_path = TempPath("recover_mixed_ckpt");
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
  constexpr uint64_t kEngineSeed = 83;
  auto make_engine = [] {
    Workload w = MakePaperWorkload(SmallConfig(79));
    ShardedEngineConfig config;
    config.engine.seed = kEngineSeed;
    return std::make_unique<ShardedAuctionEngine>(config, w, RoiStrategies(w));
  };
  const int num_keywords = SmallConfig(79).num_keywords;

  auto run_a = make_engine();
  QueryGenerator queries_a(num_keywords, kEngineSeed);
  for (int i = 0; i < 20; ++i) run_a->RunAuctionOn(queries_a.Next());
  ASSERT_TRUE(run_a->WriteCheckpoint(ckpt_path).ok());

  auto run_b = make_engine();
  QueryGenerator queries_b(num_keywords, kEngineSeed + 1);
  {
    auto writer = SettlementLogWriter::Open(log_path, LogWriterOptions{});
    ASSERT_TRUE(writer.ok());
    RunAndLog(run_b.get(), &queries_b, writer->get(), 30);
    ASSERT_TRUE((*writer)->Flush().ok());
  }

  auto recovered = make_engine();
  RecoveryOptions options;
  options.checkpoint_path = ckpt_path;
  options.log_path = log_path;
  RecoveryReport report;
  const Status status = RecoverEngine(recovered.get(), options, &report);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.ToString().find("diverges from its logged settlement"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(report.checkpoint_seq, 20u);
  EXPECT_EQ(report.records_skipped, 20);
  EXPECT_EQ(report.records_replayed, 1);
  EXPECT_EQ(report.verify_mismatches, 1);
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(RecoveryTest, SequenceGapIsDataLoss) {
  const std::string log_path = TempPath("recover_gap");
  std::remove(log_path.c_str());
  Workload w = MakePaperWorkload(SmallConfig(71));
  ShardedEngineConfig config;
  config.engine.seed = 73;
  ShardedAuctionEngine engine(config, w, RoiStrategies(w));
  // Hand-craft a log starting at seq 5: a fresh engine (position 0) cannot
  // bridge the gap and must refuse rather than replay a wrong suffix.
  std::string frames;
  QueryGenerator queries(w.config.num_keywords, config.engine.seed);
  EncodeLogFrame(
      SettlementRecord::FromOutcome(5, engine.RunAuctionOn(queries.Next())),
      &frames);
  ASSERT_TRUE(AtomicWriteFile(log_path, frames).ok());

  ShardedAuctionEngine fresh(config, w, RoiStrategies(w));
  RecoveryOptions options;
  options.log_path = log_path;
  RecoveryReport report;
  EXPECT_EQ(RecoverEngine(&fresh, options, &report).code(),
            StatusCode::kDataLoss);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace ssa
