#include "util/bounded_queue.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ssa {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

/// Pops one element through PopBatch(…, 1), the consumer's only pop.
/// Returns false at end-of-stream.
bool PopOne(BoundedQueue<int>* q, int* out) {
  std::vector<int> one;
  if (!q->PopBatch(&one, 1)) return false;
  *out = one.front();
  return true;
}

TEST(BoundedQueueTest, FifoSingleThread) {
  BoundedQueue<int> q(8, BackpressurePolicy::kBlock);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.Push(i), QueuePushResult::kAccepted);
  }
  EXPECT_EQ(q.size(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(PopOne(&q, &v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.accepted(), 5);
}

TEST(BoundedQueueTest, RejectPolicySheds) {
  BoundedQueue<int> q(2, BackpressurePolicy::kReject);
  EXPECT_EQ(q.Push(1), QueuePushResult::kAccepted);
  EXPECT_EQ(q.Push(2), QueuePushResult::kAccepted);
  EXPECT_EQ(q.Push(3), QueuePushResult::kRejected);
  EXPECT_EQ(q.Push(4), QueuePushResult::kRejected);
  EXPECT_EQ(q.accepted(), 2);
  EXPECT_EQ(q.rejected(), 2);
  int v;
  ASSERT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  EXPECT_EQ(q.Push(5), QueuePushResult::kAccepted);
}

TEST(BoundedQueueTest, BlockPolicyBlocksUntilConsumed) {
  BoundedQueue<int> q(1, BackpressurePolicy::kBlock);
  EXPECT_EQ(q.Push(1), QueuePushResult::kAccepted);
  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(q.Push(2), QueuePushResult::kAccepted);
    second_admitted.store(true);
  });
  // The producer must be stuck while the queue is full.
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(second_admitted.load());
  int v;
  ASSERT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> q(1, BackpressurePolicy::kBlock);
  q.Push(1);
  std::thread producer([&] {
    // Full queue, nobody consuming: blocks until Close() fails the push.
    EXPECT_EQ(q.Push(2), QueuePushResult::kClosed);
  });
  std::this_thread::sleep_for(milliseconds(20));
  q.Close();
  producer.join();
  // After close, consumers drain what was admitted, then see end-of-stream.
  int v;
  EXPECT_TRUE(PopOne(&q, &v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(PopOne(&q, &v));
  EXPECT_EQ(q.Push(3), QueuePushResult::kClosed);
}

TEST(BoundedQueueTest, PopBatchSizeTrigger) {
  BoundedQueue<int> q(16, BackpressurePolicy::kBlock);
  for (int i = 0; i < 10; ++i) q.Push(i);
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(&batch, 4));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_TRUE(q.PopBatch(&batch, 4));
  EXPECT_EQ(batch.size(), 8u);  // appends
  EXPECT_EQ(batch[7], 7);
}

TEST(BoundedQueueTest, PopBatchReturnsQueuedPrefixWithoutWaiting) {
  BoundedQueue<int> q(16, BackpressurePolicy::kBlock);
  q.Push(1);
  q.Push(2);
  // Two queued, no producer running: a batch of up to 8 is the two, now.
  // A watchdog pushes a sentinel after 2 s, so a PopBatch that waited for
  // batch-mates fails this test instead of hanging it.
  std::atomic<bool> returned{false};
  std::thread watchdog([&] {
    const auto until = std::chrono::steady_clock::now() + seconds(2);
    while (!returned.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    if (!returned.load()) q.Push(-1);
  });
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(&batch, 8));
  returned.store(true);
  watchdog.join();
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, PopBatchStillBlocksForFirstElement) {
  BoundedQueue<int> q(16, BackpressurePolicy::kBlock);
  std::atomic<bool> returned{false};
  std::vector<int> batch;
  std::thread consumer([&] {
    EXPECT_TRUE(q.PopBatch(&batch, 4));
    returned.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(returned.load());  // empty queue: still waiting
  q.Push(5);
  consumer.join();
  EXPECT_EQ(batch, std::vector<int>{5});
}

TEST(BoundedQueueTest, PopBatchDrainsAfterClose) {
  BoundedQueue<int> q(4, BackpressurePolicy::kBlock);
  q.Push(7);
  q.Push(8);
  q.Push(9);
  q.Close();
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(&batch, 2));
  EXPECT_EQ(batch, (std::vector<int>{7, 8}));
  ASSERT_TRUE(q.PopBatch(&batch, 2));
  EXPECT_EQ(batch, (std::vector<int>{7, 8, 9}));
  // Closed and drained: end-of-stream, and a blocked consumer wakes to it.
  EXPECT_FALSE(q.PopBatch(&batch, 2));
  BoundedQueue<int> empty(4, BackpressurePolicy::kBlock);
  std::thread consumer([&] {
    std::vector<int> none;
    EXPECT_FALSE(empty.PopBatch(&none, 2));
    EXPECT_TRUE(none.empty());
  });
  std::this_thread::sleep_for(milliseconds(20));
  empty.Close();
  consumer.join();
}

TEST(BoundedQueueTest, MpmcStressNothingLostOrDuplicated) {
  // 4 producers x 4 consumers over a small queue: every pushed value is
  // popped exactly once. (The TSan job runs this to certify the locking.)
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(8, BackpressurePolicy::kBlock);
  std::vector<std::vector<int>> consumed(kConsumers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&q, &consumed, c] {
      int v;
      while (PopOne(&q, &v)) consumed[c].push_back(v);
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(q.Push(p * kPerProducer + i), QueuePushResult::kAccepted);
      }
    });
  }
  for (size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  q.Close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();

  std::set<int> all;
  size_t total = 0;
  for (const auto& vec : consumed) {
    total += vec.size();
    all.insert(vec.begin(), vec.end());
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(all.size(), total) << "duplicated elements";
}

}  // namespace
}  // namespace ssa
