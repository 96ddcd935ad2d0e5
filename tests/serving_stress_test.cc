// Concurrency stress tests for the serving subsystem's admission and
// shutdown contracts: Stop() drains every admitted request before the
// executor exits, and the admission counters stay exactly conserved under
// multi-threaded Submit() for every backpressure policy.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serving/auction_server.h"
#include "strategy/roi_strategy.h"

namespace ssa {
namespace {

WorkloadConfig SmallConfig(uint64_t seed) {
  WorkloadConfig config;
  config.num_advertisers = 20;
  config.num_slots = 3;
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

std::unique_ptr<AuctionServer> MakeServer(const ServerConfig& config) {
  Workload workload = MakePaperWorkload(SmallConfig(41));
  auto strategies = RoiStrategies(workload);
  return std::make_unique<AuctionServer>(config, std::move(workload),
                                         std::move(strategies));
}

/// Per-producer tally of every Submit() verdict.
struct SubmitTally {
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t closed = 0;

  void Count(QueuePushResult result) {
    switch (result) {
      case QueuePushResult::kAccepted:
        ++accepted;
        break;
      case QueuePushResult::kRejected:
        ++rejected;
        break;
      case QueuePushResult::kClosed:
        ++closed;
        break;
    }
  }

  int64_t total() const { return accepted + rejected + closed; }
};

/// Launches `producers` threads each submitting `per_producer` queries as
/// fast as they can, then returns the merged tally.
SubmitTally HammerSubmit(AuctionServer* server, int producers,
                         int per_producer) {
  std::vector<SubmitTally> tallies(producers);
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      QueryGenerator gen(3, /*seed=*/1000 + static_cast<uint64_t>(p));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < per_producer; ++i) {
        tallies[p].Count(server->Submit(gen.Next()));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  SubmitTally merged;
  for (const SubmitTally& t : tallies) {
    merged.accepted += t.accepted;
    merged.rejected += t.rejected;
    merged.closed += t.closed;
  }
  return merged;
}

// --- Drain-on-stop -----------------------------------------------------------

/// Stop() must let the executor settle every admitted request before it
/// joins: completed == admitted, and the engine ran exactly that many
/// auctions — nothing stranded in the queue, nothing settled twice.
TEST(ServingDrainTest, StopDrainsEveryAdmittedRequest) {
  ServerConfig config;
  config.engine.num_shards = 2;
  config.queue_capacity = 64;
  config.backpressure = BackpressurePolicy::kBlock;
  config.max_batch_size = 8;
  auto server = MakeServer(config);
  ASSERT_TRUE(server->Start().ok());

  const int kProducers = 4;
  const int kPerProducer = 500;
  SubmitTally tally = HammerSubmit(server.get(), kProducers, kPerProducer);
  server->Stop();

  ASSERT_EQ(tally.total(), kProducers * kPerProducer);
  // kBlock never rejects while the queue is open.
  EXPECT_EQ(tally.rejected, 0);
  EXPECT_EQ(tally.closed, 0);
  const int64_t admitted = tally.accepted;
  EXPECT_EQ(server->accepted(), admitted);
  EXPECT_EQ(server->completed(), admitted);
  EXPECT_EQ(server->engine().auctions_run(), admitted);
}

/// Producers racing Stop() itself: whatever a producer saw admitted must
/// still be settled, even if its push interleaved with the close. Trials
/// sweep the shard count (1..4) and the batch cap (1, then 16), so the
/// shutdown race covers single-query and multi-query batch drains.
TEST(ServingDrainTest, ProducersRacingStopNeverStrandAdmittedRequests) {
  for (int trial = 0; trial < 8; ++trial) {
    ServerConfig config;
    config.engine.num_shards = 1 + trial % 4;
    config.queue_capacity = 32;
    config.backpressure = BackpressurePolicy::kReject;
    config.max_batch_size = trial < 4 ? 1 : 16;
    auto server = MakeServer(config);
    ASSERT_TRUE(server->Start().ok());

    const int kProducers = 4;
    std::vector<SubmitTally> tallies(kProducers);
    std::vector<std::thread> threads;
    std::atomic<bool> quit{false};
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        QueryGenerator gen(3, /*seed=*/7000 + static_cast<uint64_t>(p));
        while (!quit.load(std::memory_order_acquire)) {
          tallies[p].Count(server->Submit(gen.Next()));
        }
      });
    }
    // Let producers build pressure, then stop mid-stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server->Stop();
    quit.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();

    int64_t admitted = 0;
    for (const SubmitTally& t : tallies) admitted += t.accepted;
    // Every admission pre-dates the close, so Stop() drained it:
    EXPECT_EQ(server->completed(), admitted);
    EXPECT_EQ(server->engine().auctions_run(), server->completed());
  }
}

// --- Concurrent backpressure accounting --------------------------------------

/// kReject under producer pressure: accepted + rejected == submitted, and
/// every accepted request is settled.
TEST(ServingBackpressureTest, ConcurrentRejectConservesRequests) {
  ServerConfig config;
  config.engine.num_shards = 2;
  config.queue_capacity = 4;
  config.backpressure = BackpressurePolicy::kReject;
  config.max_batch_size = 2;
  auto server = MakeServer(config);
  ASSERT_TRUE(server->Start().ok());

  const int kProducers = 4;
  const int kPerProducer = 1500;
  SubmitTally tally = HammerSubmit(server.get(), kProducers, kPerProducer);
  server->Stop();

  const int64_t submitted = kProducers * kPerProducer;
  ASSERT_EQ(tally.total(), submitted);
  EXPECT_EQ(tally.closed, 0);
  EXPECT_EQ(tally.accepted + tally.rejected, submitted);
  EXPECT_EQ(server->accepted(), tally.accepted);
  EXPECT_EQ(server->rejected(), tally.rejected);
  EXPECT_GT(server->rejected(), 0);
  EXPECT_EQ(server->completed(), tally.accepted);
  EXPECT_EQ(server->engine().auctions_run(), server->completed());
}

}  // namespace
}  // namespace ssa
