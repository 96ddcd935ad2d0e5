// Replication: log tail classification, the live tailer, the follower
// engine, and the read-routing layer.
//
// The load-bearing property throughout is the bitwise replay contract: a
// follower that bootstraps from the leader's checkpoint and re-executes the
// settlement log reaches account state bitwise-identical to the leader at
// every applied sequence — including across a kill/restart at a
// seed-derived point (the same SSA_FAULT_SEED sweep fault_injection_test
// uses for the leader's own recovery).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "auction/sharded_engine.h"
#include "auction/workload.h"
#include "durability/settlement_log.h"
#include "durability/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/follower.h"
#include "replication/log_tailer.h"
#include "serving/auction_server.h"
#include "serving/read_replicas.h"
#include "strategy/roi_strategy.h"
#include "util/rng.h"

namespace ssa {
namespace {

using std::chrono::milliseconds;

constexpr int kTotalAuctions = 60;
constexpr int kCheckpointAt = 20;
constexpr uint64_t kWorkloadSeed = 71;
constexpr uint64_t kEngineSeed = 977;

uint64_t BaseSeed() {
  const char* env = std::getenv("SSA_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 12345;
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
  return testing::TempDir() + "/ssa_repl_" + name;
}

void ExpectAccountsBitwiseEq(const std::vector<AdvertiserAccount>& a,
                             const std::vector<AdvertiserAccount>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].amount_spent, b[i].amount_spent) << "advertiser " << i;
    ASSERT_EQ(a[i].spent_per_keyword, b[i].spent_per_keyword)
        << "advertiser " << i;
    ASSERT_EQ(a[i].value_gained, b[i].value_gained) << "advertiser " << i;
  }
}

/// A small synthetic record with distinguishable per-seq content — enough
/// for the frame/tailer tests, which never replay it.
SettlementRecord TinyRecord(uint64_t seq) {
  SettlementRecord r;
  r.seq = seq;
  r.query.keyword = static_cast<int>(seq % 3);
  r.query.time = static_cast<int64_t>(seq);
  r.query.relevance = {0.0, 1.0, 0.0};
  r.winners = {static_cast<AdvertiserId>(seq % 5), -1};
  r.prices = {static_cast<Money>(seq), 0};
  UserEvent event;
  event.advertiser = static_cast<AdvertiserId>(seq % 5);
  event.slot = 0;
  event.clicked = (seq % 2) == 0;
  event.charged = static_cast<Money>(seq);
  r.events = {event};
  r.matching_weight = 1.5 * static_cast<double>(seq);
  r.expected_revenue = 2.5 * static_cast<double>(seq);
  r.revenue_charged = static_cast<Money>(seq);
  return r;
}

void AppendRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string FreshPath(const std::string& name) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// Tail classification (ReadSettlementLog + LogTailKind)
// ---------------------------------------------------------------------------

TEST(LogTailClassificationTest, CleanLogEndsClean) {
  const std::string path = FreshPath("tail_clean");
  std::string bytes;
  EncodeLogFrame(TinyRecord(1), &bytes);
  EncodeLogFrame(TinyRecord(2), &bytes);
  AppendRaw(path, bytes);

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.tail, LogTailKind::kClean);
  EXPECT_EQ(stats.corrupt_bytes, 0u);
  EXPECT_EQ(stats.last_seq, 2u);
}

TEST(LogTailClassificationTest, ShortHeaderIsIncomplete) {
  const std::string path = FreshPath("tail_short_header");
  std::string bytes;
  EncodeLogFrame(TinyRecord(1), &bytes);
  std::string frame2;
  EncodeLogFrame(TinyRecord(2), &frame2);
  bytes += frame2.substr(0, 4);  // half the [len][crc] header
  AppendRaw(path, bytes);

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.tail, LogTailKind::kIncomplete);
  EXPECT_EQ(stats.corrupt_bytes, 4u);
}

TEST(LogTailClassificationTest, ShortPayloadIsIncomplete) {
  const std::string path = FreshPath("tail_short_payload");
  std::string bytes;
  EncodeLogFrame(TinyRecord(1), &bytes);
  std::string frame2;
  EncodeLogFrame(TinyRecord(2), &frame2);
  bytes += frame2.substr(0, frame2.size() / 2);  // header + partial payload
  AppendRaw(path, bytes);

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.tail, LogTailKind::kIncomplete);
}

TEST(LogTailClassificationTest, CrcMismatchOnCompletePayloadIsCorrupt) {
  const std::string path = FreshPath("tail_crc");
  std::string bytes;
  EncodeLogFrame(TinyRecord(1), &bytes);
  std::string frame2;
  EncodeLogFrame(TinyRecord(2), &frame2);
  frame2[frame2.size() - 1] ^= 0x10;  // payload bit flip, frame complete
  bytes += frame2;
  AppendRaw(path, bytes);

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.tail, LogTailKind::kCorrupt);
  EXPECT_EQ(stats.corrupt_bytes, frame2.size());
}

TEST(LogTailClassificationTest, SequenceGapIsCorrupt) {
  const std::string path = FreshPath("tail_gap");
  std::string bytes;
  EncodeLogFrame(TinyRecord(1), &bytes);
  EncodeLogFrame(TinyRecord(3), &bytes);  // skips seq 2
  AppendRaw(path, bytes);

  std::vector<SettlementRecord> records;
  LogReadStats stats;
  ASSERT_TRUE(ReadSettlementLog(path, &records, &stats).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.tail, LogTailKind::kCorrupt);
}

// ---------------------------------------------------------------------------
// LogTailer
// ---------------------------------------------------------------------------

TEST(LogTailerTest, InterleavedWithBufferedWriter) {
  const std::string path = FreshPath("tailer_interleaved");
  LogWriterOptions options;
  options.sync = LogSyncMode::kBuffered;
  options.group_records = 4;
  auto writer = SettlementLogWriter::Open(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok()) << tailer.status().ToString();

  constexpr int kRecords = 22;
  std::vector<SettlementRecord> delivered;
  for (uint64_t seq = 1; seq <= kRecords; ++seq) {
    ASSERT_TRUE((*writer)->Append(TinyRecord(seq)).ok());
    // Poll after every append: only fully committed groups may surface, and
    // an uncommitted group must read as a clean "nothing yet" poll, never
    // an error.
    ASSERT_TRUE((*tailer)->Poll(&delivered).ok());
    EXPECT_EQ(delivered.size(),
              (seq / options.group_records) * options.group_records);
  }
  ASSERT_TRUE((*writer)->Flush().ok());
  ASSERT_TRUE((*tailer)->Poll(&delivered).ok());
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(delivered[i].seq, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(delivered[i].revenue_charged,
              static_cast<Money>(i + 1));  // content, not just the seq
  }
  EXPECT_EQ((*tailer)->last_seq(), static_cast<uint64_t>(kRecords));
  EXPECT_EQ((*tailer)->records_delivered(), kRecords);
  EXPECT_EQ((*tailer)->bytes_behind(), 0u);
}

TEST(LogTailerTest, CarriesFrameSplitAcrossPolls) {
  const std::string path = FreshPath("tailer_split");
  std::string frame1, frame2;
  EncodeLogFrame(TinyRecord(1), &frame1);
  EncodeLogFrame(TinyRecord(2), &frame2);

  AppendRaw(path, frame1 + frame2.substr(0, frame2.size() / 2));
  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok());

  std::vector<SettlementRecord> records;
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
  // The in-progress half-frame is byte lag, not corruption.
  EXPECT_EQ((*tailer)->bytes_behind(), frame2.size() - frame2.size() / 2);

  AppendRaw(path, frame2.substr(frame2.size() / 2));
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].seq, 2u);
  EXPECT_EQ((*tailer)->bytes_behind(), 0u);
}

TEST(LogTailerTest, OpensBeforeTheLogExists) {
  const std::string path = FreshPath("tailer_noent");
  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok());

  std::vector<SettlementRecord> records;
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  EXPECT_TRUE(records.empty());

  std::string frame;
  EncodeLogFrame(TinyRecord(1), &frame);
  AppendRaw(path, frame);
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
}

TEST(LogTailerTest, StartAfterSeqSkipsWithoutDelivering) {
  const std::string path = FreshPath("tailer_resume");
  std::string bytes;
  for (uint64_t seq = 1; seq <= 30; ++seq) {
    EncodeLogFrame(TinyRecord(seq), &bytes);
  }
  AppendRaw(path, bytes);

  LogTailerOptions options;
  options.start_after_seq = 10;
  auto tailer = LogTailer::Open(path, options);
  ASSERT_TRUE(tailer.ok());
  EXPECT_EQ((*tailer)->last_seq(), 10u);

  std::vector<SettlementRecord> records;
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  ASSERT_EQ(records.size(), 20u);
  EXPECT_EQ(records.front().seq, 11u);
  EXPECT_EQ(records.back().seq, 30u);
}

TEST(LogTailerTest, BacklogArrivesInBoundedPolls) {
  // A follower far behind takes the backlog in polls of at most
  // kPollBytes, each delivering whole records in sequence, while
  // bytes_behind counts what is still unread.
  const std::string path = FreshPath("tailer_backlog");
  std::string bytes;
  uint64_t seq = 0;
  while (bytes.size() < 3 * LogTailer::kPollBytes) {
    EncodeLogFrame(TinyRecord(++seq), &bytes);
  }
  AppendRaw(path, bytes);

  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok());
  std::vector<SettlementRecord> records;
  int polls = 0;
  while (records.size() < seq) {
    const size_t before = records.size();
    ASSERT_TRUE((*tailer)->Poll(&records).ok());
    ++polls;
    ASSERT_GT(records.size(), before);
    if (records.size() < seq) {
      EXPECT_GT((*tailer)->bytes_behind(), 0u);
    }
  }
  EXPECT_GE(polls, 3);
  EXPECT_EQ((*tailer)->bytes_behind(), 0u);
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].seq, i + 1);
  }
}

TEST(LogTailerTest, CorruptionIsSticky) {
  const std::string path = FreshPath("tailer_corrupt");
  std::string bytes, frame2;
  EncodeLogFrame(TinyRecord(1), &bytes);
  EncodeLogFrame(TinyRecord(2), &frame2);
  frame2[frame2.size() - 2] ^= 0x01;
  bytes += frame2;
  AppendRaw(path, bytes);

  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok());
  std::vector<SettlementRecord> records;
  const Status first = (*tailer)->Poll(&records);
  EXPECT_EQ(first.code(), StatusCode::kDataLoss) << first.ToString();
  EXPECT_EQ(records.size(), 1u);  // the intact prefix was still delivered

  // Appending good bytes afterwards cannot resynchronize a corrupt tailer.
  std::string frame3;
  EncodeLogFrame(TinyRecord(3), &frame3);
  AppendRaw(path, frame3);
  const Status second = (*tailer)->Poll(&records);
  EXPECT_EQ(second.code(), StatusCode::kDataLoss);
  EXPECT_EQ(records.size(), 1u);
}

TEST(LogTailerTest, FileShrinkIsDataLoss) {
  const std::string path = FreshPath("tailer_shrink");
  std::string bytes;
  EncodeLogFrame(TinyRecord(1), &bytes);
  EncodeLogFrame(TinyRecord(2), &bytes);
  AppendRaw(path, bytes);

  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok());
  std::vector<SettlementRecord> records;
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  ASSERT_EQ(records.size(), 2u);

  ASSERT_TRUE(TruncateFile(path, bytes.size() / 2).ok());
  const Status polled = (*tailer)->Poll(&records);
  EXPECT_EQ(polled.code(), StatusCode::kDataLoss) << polled.ToString();
}

TEST(LogTailerTest, ConcurrentWithWriterThread) {
  const std::string path = FreshPath("tailer_concurrent");
  constexpr int kRecords = 200;

  std::thread writer_thread([&] {
    LogWriterOptions options;
    options.sync = LogSyncMode::kBuffered;
    options.group_records = 8;
    auto writer = SettlementLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      ASSERT_TRUE((*writer)->Append(TinyRecord(seq)).ok());
      if (seq % 16 == 0) std::this_thread::yield();
    }
    ASSERT_TRUE((*writer)->Flush().ok());
  });

  auto tailer = LogTailer::Open(path);
  ASSERT_TRUE(tailer.ok());
  std::vector<SettlementRecord> records;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (records.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE((*tailer)->Poll(&records).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer_thread.join();
  ASSERT_TRUE((*tailer)->Poll(&records).ok());
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].seq, static_cast<uint64_t>(i + 1));
  }
}

// ---------------------------------------------------------------------------
// PeekBids (the const read path's foundation)
// ---------------------------------------------------------------------------

/// A deliberately stateful strategy withOUT a PeekBids override: each
/// MakeBids advances a counter and bids the counter value. Exercises the
/// default save/run/restore implementation.
class CountingStrategy : public BiddingStrategy {
 public:
  explicit CountingStrategy(Formula formula) : formula_(formula) {}

  void MakeBids(const Query& query, const AdvertiserAccount& account,
                BidsTable* bids) override {
    (void)query;
    (void)account;
    ++calls_;
    bids->AddBid(formula_, static_cast<Money>(calls_));
  }

  void SaveState(std::string* out) const override {
    WireWriter(out).PutI64(calls_);
  }

  Status RestoreState(std::string_view blob) override {
    WireReader reader(blob);
    SSA_RETURN_IF_ERROR(reader.GetI64(&calls_));
    return Status::Ok();
  }

  int64_t calls() const { return calls_; }

 private:
  Formula formula_;
  int64_t calls_ = 0;
};

TEST(PeekBidsTest, DefaultPeekMatchesNextMakeWithoutAdvancing) {
  Workload workload = MakePaperWorkload(SmallConfig(kWorkloadSeed));
  CountingStrategy strategy(workload.keyword_formulas[0]);
  QueryGenerator gen(workload.config.num_keywords, 5);
  const Query query = gen.Next();
  const AdvertiserAccount& account = workload.accounts[0];

  BidsTable peek1, peek2, made;
  strategy.PeekBids(query, account, &peek1);
  EXPECT_EQ(strategy.calls(), 0);  // state untouched
  strategy.PeekBids(query, account, &peek2);
  ASSERT_EQ(peek1.size(), 1u);
  EXPECT_EQ(peek1.rows()[0].value, peek2.rows()[0].value);

  strategy.MakeBids(query, account, &made);
  EXPECT_EQ(strategy.calls(), 1);
  // The peek predicted exactly what the next real call produced.
  EXPECT_EQ(made.rows()[0].value, peek1.rows()[0].value);
}

TEST(PeekBidsTest, RoiPeekMatchesMakeAndNeverPerturbs) {
  Workload workload = MakePaperWorkload(SmallConfig(kWorkloadSeed));
  // Twin strategies on the same account: A is peeked before every make, B
  // is never peeked. Their emissions must stay identical forever.
  RoiStrategy peeked(workload.keyword_formulas);
  RoiStrategy control(workload.keyword_formulas);
  QueryGenerator gen(workload.config.num_keywords, 9);
  const AdvertiserAccount& account = workload.accounts[3];

  for (int i = 0; i < 25; ++i) {
    const Query query = gen.Next();
    BidsTable peeked_bids, made_a, made_b;
    peeked.PeekBids(query, account, &peeked_bids);
    peeked.MakeBids(query, account, &made_a);
    control.MakeBids(query, account, &made_b);
    EXPECT_EQ(peeked_bids.ToString(), made_a.ToString()) << "auction " << i;
    EXPECT_EQ(made_a.ToString(), made_b.ToString()) << "auction " << i;
  }
}

// ---------------------------------------------------------------------------
// Const what-if path
// ---------------------------------------------------------------------------

TEST(WhatIfAuctionTest, ShardedEngineWhatIfIsPure) {
  const WorkloadConfig wc = SmallConfig(kWorkloadSeed);
  ShardedEngineConfig config;
  config.engine.seed = kEngineSeed;
  config.num_shards = 3;
  ShardedEngineConfig control_config = config;
  control_config.num_shards = 2;  // shard layout must not matter

  Workload w1 = MakePaperWorkload(wc);
  Workload w2 = MakePaperWorkload(wc);
  ShardedAuctionEngine probed(config, w1, RoiStrategies(w1));
  ShardedAuctionEngine control(control_config, w2, RoiStrategies(w2));

  QueryGenerator gen(wc.num_keywords, kEngineSeed);
  for (int i = 0; i < 40; ++i) {
    const Query query = gen.Next();
    ShardedAuctionEngine::PlannedAuction plan;
    probed.WhatIfAuction(query, &plan);
    EXPECT_TRUE(plan.outcome.events.empty());

    const AuctionOutcome& real = control.RunAuctionOn(query);
    EXPECT_EQ(plan.outcome.wd.allocation.slot_to_advertiser,
              real.wd.allocation.slot_to_advertiser)
        << "auction " << i;
    EXPECT_EQ(plan.prices, real.prices) << "auction " << i;

    const AuctionOutcome& mine = probed.RunAuctionOn(query);
    EXPECT_EQ(mine.revenue_charged, real.revenue_charged) << "auction " << i;
  }
  ExpectAccountsBitwiseEq(probed.accounts(), control.accounts());
  EXPECT_EQ(probed.total_revenue(), control.total_revenue());
  // The first read built the planner's lists; every read was planned.
  EXPECT_EQ(probed.brute_reads(), 0);
  EXPECT_EQ(probed.logical_reads(), 40);
}

// ---------------------------------------------------------------------------
// FollowerEngine
// ---------------------------------------------------------------------------

struct LeaderArtifacts {
  std::string log_path;
  std::string ckpt_path;
  std::vector<Query> queries;
  std::vector<AdvertiserAccount> final_accounts;
  Money final_revenue = 0;
};

ShardedEngineConfig ReplicaEngineConfig(int num_shards) {
  ShardedEngineConfig config;
  config.engine.seed = kEngineSeed;
  config.num_shards = num_shards;
  return config;
}

std::unique_ptr<ShardedAuctionEngine> MakeReplicaEngine(int num_shards) {
  Workload workload = MakePaperWorkload(SmallConfig(kWorkloadSeed));
  auto strategies = RoiStrategies(workload);
  return std::make_unique<ShardedAuctionEngine>(ReplicaEngineConfig(num_shards),
                                                std::move(workload),
                                                std::move(strategies));
}

/// Runs a leader for kTotalAuctions settlements: checkpoint at
/// kCheckpointAt, every settlement appended to the log, flushed at the end.
LeaderArtifacts RunLeader(const std::string& tag) {
  LeaderArtifacts leader;
  leader.log_path = FreshPath(tag + "_log");
  leader.ckpt_path = FreshPath(tag + "_ckpt");

  QueryGenerator gen(SmallConfig(kWorkloadSeed).num_keywords, kEngineSeed);
  for (int i = 0; i < kTotalAuctions; ++i) leader.queries.push_back(gen.Next());

  std::unique_ptr<ShardedAuctionEngine> engine = MakeReplicaEngine(2);
  LogWriterOptions options;
  options.sync = LogSyncMode::kBuffered;
  options.group_records = 8;
  auto writer = SettlementLogWriter::Open(leader.log_path, options);
  SSA_CHECK(writer.ok());
  for (const Query& query : leader.queries) {
    const AuctionOutcome& outcome = engine->RunAuctionOn(query);
    SSA_CHECK((*writer)
                  ->Append(SettlementRecord::FromOutcome(
                      static_cast<uint64_t>(engine->auctions_run()), outcome))
                  .ok());
    if (engine->auctions_run() == kCheckpointAt) {
      SSA_CHECK(engine->WriteCheckpoint(leader.ckpt_path).ok());
    }
  }
  SSA_CHECK((*writer)->Flush().ok());
  leader.final_accounts = engine->accounts();
  leader.final_revenue = engine->total_revenue();
  return leader;
}

FollowerConfig MakeFollowerConfig(const LeaderArtifacts& leader,
                                  int num_shards) {
  FollowerConfig config;
  config.engine = ReplicaEngineConfig(num_shards);
  config.checkpoint_path = leader.ckpt_path;
  config.log_path = leader.log_path;
  return config;
}

std::unique_ptr<FollowerEngine> MakeFollower(const FollowerConfig& config) {
  Workload workload = MakePaperWorkload(SmallConfig(kWorkloadSeed));
  auto strategies = RoiStrategies(workload);
  return std::make_unique<FollowerEngine>(config, std::move(workload),
                                          std::move(strategies));
}

TEST(FollowerEngineTest, CatchesUpBitwiseFromCheckpoint) {
  const LeaderArtifacts leader = RunLeader("follower_catchup");

  MetricsRegistry metrics;
  Tracer tracer(TraceConfig{/*sample_every=*/1});
  FollowerConfig config = MakeFollowerConfig(leader, /*num_shards=*/3);
  config.metrics = &metrics;
  config.metric_labels = "follower=\"f0\"";
  config.tracer = &tracer;
  config.leader_seq = [] { return uint64_t{kTotalAuctions}; };

  std::unique_ptr<FollowerEngine> follower = MakeFollower(config);
  ASSERT_TRUE(follower->Start().ok());
  ASSERT_TRUE(follower->WaitForSeq(kTotalAuctions, milliseconds(10000)));
  EXPECT_EQ(follower->applied_seq(), static_cast<uint64_t>(kTotalAuctions));
  // Bootstrapped at the checkpoint, so only the suffix was replayed.
  EXPECT_EQ(follower->records_applied(), kTotalAuctions - kCheckpointAt);
  EXPECT_TRUE(follower->status().ok());

  std::vector<AdvertiserAccount> accounts;
  uint64_t applied_at = 0;
  ASSERT_TRUE(follower->AccountsSnapshot(&accounts, &applied_at).ok());
  EXPECT_EQ(applied_at, static_cast<uint64_t>(kTotalAuctions));
  ExpectAccountsBitwiseEq(accounts, leader.final_accounts);

  Money revenue = 0;
  ASSERT_TRUE(follower->TotalRevenue(&revenue).ok());
  EXPECT_EQ(revenue, leader.final_revenue);

  // What-if reads work and do not perturb the replica.
  QueryGenerator gen(SmallConfig(kWorkloadSeed).num_keywords, 31337);
  for (int i = 0; i < 5; ++i) {
    ShardedAuctionEngine::PlannedAuction plan;
    ASSERT_TRUE(follower->WhatIf(gen.Next(), &plan, &applied_at).ok());
    EXPECT_EQ(applied_at, static_cast<uint64_t>(kTotalAuctions));
  }
  std::vector<Money> prices;
  ASSERT_TRUE(follower->EstimatePrices(gen.Next(), &prices).ok());
  // Those six reads ran back in time (times 1-6, before the replica's 60):
  // the first rebuilt the lists at its time, and all six planned from
  // them, as do the reads of the next auction.
  for (int i = 0; i < 2; ++i) {
    Query next = gen.Next();
    next.time = kTotalAuctions + 1;
    ASSERT_TRUE(follower->EstimatePrices(next, &prices).ok());
  }
  ASSERT_TRUE(follower->AccountsSnapshot(&accounts, nullptr).ok());
  ExpectAccountsBitwiseEq(accounts, leader.final_accounts);

  follower->Stop();
  EXPECT_FALSE(follower->running());

  // Satellite: replication lag/throughput observability was published.
  const MetricsSnapshot snapshot = metrics.Snapshot();
  bool saw_applied = false, saw_lag_seq = false, saw_lag_bytes = false,
       saw_counter = false;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.labels != "follower=\"f0\"") continue;
    if (sample.name == "replication_applied_seq") {
      saw_applied = true;
      EXPECT_EQ(sample.value, static_cast<double>(kTotalAuctions));
    } else if (sample.name == "replication_lag_seq") {
      saw_lag_seq = true;
      EXPECT_EQ(sample.value, 0.0);
    } else if (sample.name == "replication_lag_bytes") {
      saw_lag_bytes = true;
      EXPECT_EQ(sample.value, 0.0);
    } else if (sample.name == "replication_records_applied_total") {
      saw_counter = true;
      EXPECT_EQ(sample.value,
                static_cast<double>(kTotalAuctions - kCheckpointAt));
    }
  }
  EXPECT_TRUE(saw_applied && saw_lag_seq && saw_lag_bytes && saw_counter);
  int read_paths = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name != "replication_reads_total") continue;
    ++read_paths;
    if (sample.labels == "follower=\"f0\",path=\"logical\"") {
      EXPECT_EQ(sample.value, 8.0);
    } else {
      EXPECT_EQ(sample.labels, "follower=\"f0\",path=\"brute\"");
      EXPECT_EQ(sample.value, 0.0);
    }
  }
  EXPECT_EQ(read_paths, 2);

  // And each applied record left a follower_apply span (full sampling).
  const std::vector<TraceEvent> spans = tracer.Drain();
  int apply_spans = 0;
  for (const TraceEvent& span : spans) {
    if (span.stage == TraceStage::kFollowerApply) ++apply_spans;
  }
  EXPECT_EQ(apply_spans, kTotalAuctions - kCheckpointAt);
}

TEST(FollowerEngineTest, ReadOnTheRestoredReplicaBuildsTheListsAndPlans) {
  // Held at its checkpoint, the replica has applied nothing, so its
  // planner's lists are not built yet: a read builds them, as the next
  // apply would, plans logically and predicts the leader's next auction
  // bitwise.
  const LeaderArtifacts leader = RunLeader("follower_stale_read");
  MetricsRegistry metrics;
  FollowerConfig config = MakeFollowerConfig(leader, /*num_shards=*/2);
  config.apply_limit_seq = kCheckpointAt;
  config.metrics = &metrics;
  std::unique_ptr<FollowerEngine> follower = MakeFollower(config);
  ASSERT_TRUE(follower->Start().ok());
  ShardedAuctionEngine::PlannedAuction plan;
  uint64_t applied_at = 0;
  ASSERT_TRUE(
      follower->WhatIf(leader.queries[kCheckpointAt], &plan, &applied_at)
          .ok());
  EXPECT_EQ(applied_at, static_cast<uint64_t>(kCheckpointAt));
  follower->Stop();

  std::unique_ptr<ShardedAuctionEngine> engine = MakeReplicaEngine(1);
  for (int i = 0; i < kCheckpointAt; ++i) {
    engine->RunAuctionOn(leader.queries[i]);
  }
  const AuctionOutcome& want =
      engine->RunAuctionOn(leader.queries[kCheckpointAt]);
  EXPECT_EQ(plan.outcome.wd.allocation.slot_to_advertiser,
            want.wd.allocation.slot_to_advertiser);
  EXPECT_EQ(plan.outcome.wd.expected_revenue, want.wd.expected_revenue);
  EXPECT_EQ(plan.prices, want.prices);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name != "replication_reads_total") continue;
    EXPECT_EQ(sample.value, sample.labels == "path=\"logical\"" ? 1.0 : 0.0)
        << sample.labels;
  }
}

TEST(FollowerEngineTest, ReplaysFromSeqOneWithoutCheckpoint) {
  const LeaderArtifacts leader = RunLeader("follower_full_replay");
  FollowerConfig config = MakeFollowerConfig(leader, /*num_shards=*/1);
  config.checkpoint_path.clear();

  std::unique_ptr<FollowerEngine> follower = MakeFollower(config);
  ASSERT_TRUE(follower->Start().ok());
  ASSERT_TRUE(follower->WaitForSeq(kTotalAuctions, milliseconds(10000)));
  EXPECT_EQ(follower->records_applied(), kTotalAuctions);

  std::vector<AdvertiserAccount> accounts;
  ASSERT_TRUE(follower->AccountsSnapshot(&accounts, nullptr).ok());
  ExpectAccountsBitwiseEq(accounts, leader.final_accounts);
}

TEST(FollowerEngineTest, DivergentReplicaFailsSticky) {
  const LeaderArtifacts leader = RunLeader("follower_diverge");
  FollowerConfig config = MakeFollowerConfig(leader, /*num_shards=*/2);
  config.checkpoint_path.clear();   // a checkpoint restore would bring the
  config.engine.engine.seed = 999;  // right RNG state along; replay alone
                                    // diverges on the wrong seed
  std::unique_ptr<FollowerEngine> follower = MakeFollower(config);
  ASSERT_TRUE(follower->Start().ok());
  EXPECT_FALSE(follower->WaitForSeq(kTotalAuctions, milliseconds(10000)));
  const Status status = follower->status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

  ShardedAuctionEngine::PlannedAuction plan;
  QueryGenerator gen(SmallConfig(kWorkloadSeed).num_keywords, 1);
  EXPECT_FALSE(follower->WhatIf(gen.Next(), &plan).ok());
}

/// Satellite 3: the kill/restart sweep. A follower is frozen at a
/// seed-derived applied-seq (the "kill"), its state checkpointed, and a
/// successor bootstrapped from that checkpoint must finish the log bitwise
/// equal to the leader — the replica analogue of the leader's own
/// crash-recovery sweep, driven by the same SSA_FAULT_SEED.
TEST(FollowerEngineTest, KillRestartSweepIsBitwise) {
  const LeaderArtifacts leader = RunLeader("follower_sweep");
  constexpr int kSchedules = 4;
  for (int index = 0; index < kSchedules; ++index) {
    const uint64_t seed = BaseSeed() + static_cast<uint64_t>(index);
    Rng rng(seed ^ 0xf0110fe7ull);
    const uint64_t kill_seq =
        kCheckpointAt + 1 + rng.NextBounded(kTotalAuctions - kCheckpointAt);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " kill_seq=" + std::to_string(kill_seq));

    // Follower A applies up to the kill point and freezes there.
    FollowerConfig config_a = MakeFollowerConfig(leader, /*num_shards=*/3);
    config_a.apply_limit_seq = kill_seq;
    std::unique_ptr<FollowerEngine> a = MakeFollower(config_a);
    ASSERT_TRUE(a->Start().ok());
    ASSERT_TRUE(a->WaitForSeq(kill_seq, milliseconds(10000)));
    // Give the apply loop a moment to prove it holds at the limit.
    EXPECT_EQ(a->applied_seq(), kill_seq);

    // Its state at the kill point is bitwise the leader's at that seq.
    std::unique_ptr<ShardedAuctionEngine> oracle = MakeReplicaEngine(2);
    for (uint64_t i = 0; i < kill_seq; ++i) {
      oracle->RunAuctionOn(leader.queries[i]);
    }
    std::vector<AdvertiserAccount> at_kill;
    ASSERT_TRUE(a->AccountsSnapshot(&at_kill, nullptr).ok());
    ExpectAccountsBitwiseEq(at_kill, oracle->accounts());

    // The dying follower's own checkpoint seeds its successor.
    const std::string ckpt =
        FreshPath("follower_sweep_ckpt_" + std::to_string(index));
    ASSERT_TRUE(a->WriteCheckpoint(ckpt).ok());
    a->Stop();

    // Bootstrapped at the kill point. The probe is held there by its apply
    // limit, so its applied_seq() cannot have moved past the checkpoint by
    // the time it is read (an unlimited follower's apply thread may already
    // be replaying the tail).
    FollowerConfig config_b = MakeFollowerConfig(leader, /*num_shards=*/2);
    config_b.checkpoint_path = ckpt;
    {
      FollowerConfig config_probe = config_b;
      config_probe.apply_limit_seq = kill_seq;
      std::unique_ptr<FollowerEngine> probe = MakeFollower(config_probe);
      ASSERT_TRUE(probe->Start().ok());
      EXPECT_EQ(probe->applied_seq(), kill_seq);
      probe->Stop();
    }

    // The successor, same checkpoint and no limit, replays the tail.
    std::unique_ptr<FollowerEngine> b = MakeFollower(config_b);
    ASSERT_TRUE(b->Start().ok());
    ASSERT_TRUE(b->WaitForSeq(kTotalAuctions, milliseconds(10000)));
    EXPECT_EQ(b->records_applied(),
              static_cast<int64_t>(kTotalAuctions - kill_seq));
    std::vector<AdvertiserAccount> final_accounts;
    ASSERT_TRUE(b->AccountsSnapshot(&final_accounts, nullptr).ok());
    ExpectAccountsBitwiseEq(final_accounts, leader.final_accounts);
  }
}

// ---------------------------------------------------------------------------
// ReadReplicaSet
// ---------------------------------------------------------------------------

TEST(ReadReplicaSetTest, RoutesByConsistency) {
  const LeaderArtifacts leader = RunLeader("replicas_routing");
  std::atomic<uint64_t> leader_seq{kTotalAuctions};

  ReadReplicaSetConfig config;
  config.num_followers = 2;
  config.leader_seq = [&] { return leader_seq.load(); };
  ReadReplicaSet replicas(config, [&](int i) {
    // Different shard counts per follower: replicas need not mirror the
    // leader's layout to be bitwise replicas.
    return MakeFollower(MakeFollowerConfig(leader, /*num_shards=*/i + 1));
  });
  ASSERT_TRUE(replicas.Start().ok());

  // Read-your-writes at the leader's final settled seq: the router may have
  // to wait out the catch-up, then every answer reflects seq 60.
  ReadOptions at_least;
  at_least.consistency = ReadConsistency::kAtLeastSeq;
  at_least.min_seq = kTotalAuctions;
  at_least.wait_timeout = milliseconds(10000);
  QueryGenerator gen(SmallConfig(kWorkloadSeed).num_keywords, 7);
  std::vector<Money> prices;
  uint64_t applied_at = 0;
  ASSERT_TRUE(
      replicas.EstimatePrices(at_least, gen.Next(), &prices, &applied_at).ok());
  EXPECT_GE(applied_at, static_cast<uint64_t>(kTotalAuctions));

  // The routed read waited out only the follower it used; the other may
  // still be catching up, so wait for both before checking the extremes.
  for (int f = 0; f < 2; ++f) {
    ASSERT_TRUE(replicas.follower(f)->WaitForSeq(kTotalAuctions,
                                                 milliseconds(10000)));
  }
  EXPECT_EQ(replicas.min_applied_seq(), static_cast<uint64_t>(kTotalAuctions));
  EXPECT_EQ(replicas.max_applied_seq(), static_cast<uint64_t>(kTotalAuctions));

  // kAny rotates across both healthy followers.
  ReadOptions any;
  bool saw[2] = {false, false};
  for (int i = 0; i < 8; ++i) {
    auto routed = replicas.Route(any);
    ASSERT_TRUE(routed.ok());
    for (int f = 0; f < 2; ++f) {
      if (*routed == replicas.follower(f)) saw[f] = true;
    }
  }
  EXPECT_TRUE(saw[0] && saw[1]);

  // Account reads route like everything else, and the snapshot is the
  // leader's state bitwise.
  AdvertiserAccount account;
  ASSERT_TRUE(replicas.AccountSnapshot(at_least, 7, &account, nullptr).ok());
  EXPECT_EQ(account.amount_spent, leader.final_accounts[7].amount_spent);

  // A write token past everything the log holds cannot be served.
  ReadOptions unreachable = at_least;
  unreachable.min_seq = kTotalAuctions + 1000;
  unreachable.wait_timeout = milliseconds(50);
  auto routed = replicas.Route(unreachable);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kUnavailable);

  // Bounded staleness: fine while the leader is at 60, unavailable the
  // moment the leader claims to be far ahead of every replica.
  ReadOptions bounded;
  bounded.consistency = ReadConsistency::kBoundedStaleness;
  bounded.max_lag_seq = 0;
  EXPECT_TRUE(replicas.Route(bounded).ok());
  leader_seq.store(kTotalAuctions + 500);
  auto stale = replicas.Route(bounded);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  bounded.max_lag_seq = 500;
  EXPECT_TRUE(replicas.Route(bounded).ok());
  leader_seq.store(kTotalAuctions);

  // Restart = kill + rebuild through the factory; the replacement catches
  // back up and serves read-your-writes again.
  ASSERT_TRUE(replicas.RestartFollower(0).ok());
  ASSERT_TRUE(
      replicas.EstimatePrices(at_least, gen.Next(), &prices, &applied_at).ok());
  EXPECT_GE(applied_at, static_cast<uint64_t>(kTotalAuctions));

  replicas.Stop();
}

TEST(ReadReplicaSetTest, BoundedStalenessNeedsLeaderSeq) {
  const LeaderArtifacts leader = RunLeader("replicas_no_leader_seq");
  ReadReplicaSetConfig config;
  config.num_followers = 1;
  ReadReplicaSet replicas(config, [&](int) {
    return MakeFollower(MakeFollowerConfig(leader, /*num_shards=*/1));
  });
  ASSERT_TRUE(replicas.Start().ok());
  ReadOptions bounded;
  bounded.consistency = ReadConsistency::kBoundedStaleness;
  auto routed = replicas.Route(bounded);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Leader-side integration: settled_seq token + durability gauges
// ---------------------------------------------------------------------------

TEST(LeaderIntegrationTest, SettledSeqTokenAndDurabilityGauges) {
  const std::string log_path = FreshPath("leader_gauges_log");
  const std::string ckpt_path = FreshPath("leader_gauges_ckpt");

  ServerConfig config;
  config.engine = ReplicaEngineConfig(2);
  config.durability.log_path = log_path;
  config.durability.checkpoint_path = ckpt_path;
  config.durability.writer.sync = LogSyncMode::kBuffered;
  config.durability.writer.group_records = 8;

  Workload workload = MakePaperWorkload(SmallConfig(kWorkloadSeed));
  auto strategies = RoiStrategies(workload);
  AuctionServer server(config, std::move(workload), std::move(strategies));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.settled_seq(), 0u);

  QueryGenerator gen(SmallConfig(kWorkloadSeed).num_keywords, kEngineSeed);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(server.Submit(gen.Next()), QueuePushResult::kAccepted);
  }
  server.Stop();

  // The read-your-writes token equals the engine's settled count after the
  // drain — this is the value clients pass as ReadOptions::min_seq.
  EXPECT_EQ(server.settled_seq(), 30u);
  EXPECT_EQ(server.settled_seq(),
            static_cast<uint64_t>(server.engine().auctions_run()));

  // Satellite 2: PR 6 durability telemetry is visible in the registry.
  const MetricsSnapshot snapshot = server.metrics().Snapshot();
  bool saw_age = false, saw_mode = false, saw_group = false,
       saw_recovered = false, saw_truncated = false;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name == "durability_checkpoint_age") saw_age = true;
    if (sample.name == "durability_sync_mode") {
      saw_mode = true;
      EXPECT_EQ(sample.value, 0.0);  // kBuffered
    }
    if (sample.name == "durability_group_records") {
      saw_group = true;
      EXPECT_EQ(sample.value, 8.0);
    }
    if (sample.name == "recovery_recovered_seq") saw_recovered = true;
    if (sample.name == "recovery_tail_truncated") saw_truncated = true;
  }
  EXPECT_TRUE(saw_age);
  EXPECT_TRUE(saw_mode);
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_recovered);
  EXPECT_TRUE(saw_truncated);
}

/// End-to-end: a serving leader with followers tailing its live log — the
/// deployment shape docs/ARCHITECTURE.md §4 describes. Submits in waves,
/// uses the settled_seq token for read-your-writes, and pins the follower
/// snapshot bitwise against the leader engine after the drain.
TEST(LeaderIntegrationTest, ServerPlusFollowersEndToEnd) {
  const std::string log_path = FreshPath("leader_e2e_log");

  ServerConfig config;
  config.engine = ReplicaEngineConfig(2);
  config.durability.log_path = log_path;
  config.durability.writer.sync = LogSyncMode::kBuffered;
  config.durability.writer.group_records = 4;

  Workload workload = MakePaperWorkload(SmallConfig(kWorkloadSeed));
  auto strategies = RoiStrategies(workload);
  AuctionServer server(config, std::move(workload), std::move(strategies));
  ASSERT_TRUE(server.Start().ok());

  ReadReplicaSetConfig replica_config;
  replica_config.num_followers = 2;
  replica_config.leader_seq = [&server] { return server.settled_seq(); };
  ReadReplicaSet replicas(replica_config, [&](int i) {
    FollowerConfig follower;
    follower.engine = ReplicaEngineConfig(i + 1);
    follower.log_path = log_path;
    follower.leader_seq = [&server] { return server.settled_seq(); };
    Workload w = MakePaperWorkload(SmallConfig(kWorkloadSeed));
    auto s = RoiStrategies(w);
    return std::make_unique<FollowerEngine>(follower, std::move(w),
                                            std::move(s));
  });
  ASSERT_TRUE(replicas.Start().ok());

  QueryGenerator gen(SmallConfig(kWorkloadSeed).num_keywords, kEngineSeed);
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(server.Submit(gen.Next()), QueuePushResult::kAccepted);
    }
    // Probe mid-stream: any-consistency reads must succeed while the
    // leader is still settling (answers are just stale).
    ShardedAuctionEngine::PlannedAuction plan;
    ASSERT_TRUE(replicas.WhatIf(ReadOptions{}, gen.Next(), &plan).ok());
  }
  server.Stop();  // drains + flushes the log

  const uint64_t token = server.settled_seq();
  EXPECT_EQ(token, 60u);
  ReadOptions read_your_writes;
  read_your_writes.consistency = ReadConsistency::kAtLeastSeq;
  read_your_writes.min_seq = token;
  read_your_writes.wait_timeout = milliseconds(10000);
  for (int f = 0; f < 2; ++f) {
    SSA_CHECK(replicas.follower(f)->WaitForSeq(token, milliseconds(10000)));
    std::vector<AdvertiserAccount> accounts;
    uint64_t applied_at = 0;
    ASSERT_TRUE(
        replicas.follower(f)->AccountsSnapshot(&accounts, &applied_at).ok());
    EXPECT_GE(applied_at, token);
    ExpectAccountsBitwiseEq(accounts, server.engine().accounts());
  }
  AdvertiserAccount account;
  ASSERT_TRUE(
      replicas.AccountSnapshot(read_your_writes, 0, &account, nullptr).ok());
  EXPECT_EQ(account.amount_spent, server.engine().accounts()[0].amount_spent);
  replicas.Stop();
}

}  // namespace
}  // namespace ssa
