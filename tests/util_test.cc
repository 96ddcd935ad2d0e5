#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/topk_heap.h"

namespace ssa {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.NextBounded(10);
    EXPECT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.UniformInt(0, 50);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 50);
    saw_lo |= (x == 0);
    saw_hi |= (x == 50);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad");
}

TEST(StatusOrTest, ValueAndStatus) {
  StatusOr<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ThreadPoolTest, ParallelForReturnsWhileUnrelatedTaskOccupiesOnlyWorker) {
  // A caller runs its own chunks and waits only for those, so a ParallelFor
  // must return while unrelated work holds the pool's only worker. The
  // unrelated work is a chunk of another thread's ParallelFor that the
  // worker picked up; its wait is bounded, so a pool that waited for it
  // fails this test instead of hanging.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool occupied = false;  // guarded by mu
  bool released = false;  // guarded by mu
  bool released_in_time = false;  // guarded by mu
  std::thread other([&] {
    const std::thread::id self = std::this_thread::get_id();
    const auto block_on_worker = [&](int) {
      if (std::this_thread::get_id() == self) return;  // the caller's chunk
      std::unique_lock<std::mutex> lock(mu);
      if (occupied) return;  // only the first worker chunk blocks
      occupied = true;
      cv.notify_all();
      released_in_time =
          cv.wait_for(lock, std::chrono::seconds(5), [&] { return released; });
    };
    // Its caller may run both chunks itself; retry until the worker took one.
    for (;;) {
      pool.ParallelFor(2, block_on_worker);
      std::lock_guard<std::mutex> lock(mu);
      if (occupied) break;
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return occupied; }));
  }
  std::atomic<int> hits{0};
  pool.ParallelFor(16, [&hits](int) { hits.fetch_add(1); });
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  other.join();
  EXPECT_EQ(hits.load(), 16);
  EXPECT_TRUE(released_in_time);
}

TEST(ThreadPoolTest, NestedParallelForFromPoolTaskCompletes) {
  // A ParallelFor inside a pool task waits only for its own chunks, and its
  // caller (a worker) runs whatever no other worker takes.
  ThreadPool pool(2);
  constexpr int kOuter = 6;
  constexpr int kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](int i) {
    pool.ParallelFor(kInner, [&](int j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersEachCompleteTheirOwnRange) {
  // Calls from several threads share the workers; each returns once its
  // own range is done.
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr int kN = 64;
  std::vector<std::atomic<int>> hits(kCallers * kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 1; round <= kRounds; ++round) {
        pool.ParallelFor(kN, [&](int i) { hits[c * kN + i].fetch_add(1); });
        for (int i = 0; i < kN; ++i) {
          EXPECT_EQ(hits[c * kN + i].load(), round);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](int i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksPartitionsExactly) {
  ThreadPool pool(3);
  for (int n : {1, 2, 7, 12, 100, 1003}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> chunks{0};
    pool.ParallelForChunks(n, [&](int begin, int end) {
      EXPECT_LE(0, begin);
      EXPECT_LT(begin, end);
      EXPECT_LE(end, n);
      chunks.fetch_add(1);
      for (int i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // One task per chunk, at most ~4x threads, never more than n.
    EXPECT_LE(chunks.load(), std::min(n, 4 * pool.num_threads()));
    EXPECT_GE(chunks.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForChunksEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelForChunks(0, [&](int, int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(TopKHeapSetTest, MatchesPriorityQueueSemantics) {
  // The flat heap set must retain exactly the top-capacity entries under
  // the strict (weight, id) pair order, independent of insertion order.
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.NextBounded(8));
    const int entries = static_cast<int>(rng.NextBounded(40));
    TopKHeapSet heaps;
    heaps.Reset(2, capacity);
    std::vector<std::pair<double, AdvertiserId>> all;
    for (int e = 0; e < entries; ++e) {
      // Duplicate weights exercise the id tie-break.
      const double w = static_cast<double>(rng.NextBounded(10));
      heaps.Offer(0, w, e);
      heaps.Offer(1, w, e);
      all.emplace_back(w, e);
    }
    std::sort(all.rbegin(), all.rend());
    if (static_cast<int>(all.size()) > capacity) all.resize(capacity);
    for (int h = 0; h < 2; ++h) {
      std::vector<std::pair<double, AdvertiserId>> got;
      heaps.ExtractDescending(h, &got);
      EXPECT_EQ(got, all);
    }
  }
}

TEST(TopKHeapSetTest, CapacityZeroRetainsNothing) {
  // Top-0 is a valid degenerate configuration (k = 0): every offer is
  // rejected and extraction yields empty lists.
  TopKHeapSet heaps;
  heaps.Reset(3, 0);
  EXPECT_FALSE(heaps.Offer(0, 5.0, 1));
  EXPECT_FALSE(heaps.Offer(2, 1e9, 2));
  for (int h = 0; h < 3; ++h) EXPECT_EQ(heaps.size(h), 0);
  std::vector<std::pair<double, AdvertiserId>> out;
  heaps.ExtractDescending(1, &out);
  EXPECT_TRUE(out.empty());
}

TEST(TopKHeapSetTest, CapacityBeyondPopulationKeepsEverything) {
  // k >= n: no offer is ever evicted; extraction is a full descending sort.
  TopKHeapSet heaps;
  heaps.Reset(1, 100);
  for (int e = 0; e < 10; ++e) {
    EXPECT_TRUE(heaps.Offer(0, static_cast<double>(e % 4), e));
  }
  EXPECT_EQ(heaps.size(0), 10);
  std::vector<std::pair<double, AdvertiserId>> got;
  heaps.ExtractDescending(0, &got);
  ASSERT_EQ(got.size(), 10u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_TRUE(got[i - 1] > got[i]) << "strict (weight, id) descending";
  }
}

TEST(TopKHeapSetTest, TiedWeightsBreakByIdDescending) {
  // The documented stable tie-break: among equal weights the larger id
  // ranks higher, independent of insertion order.
  for (const auto& order :
       {std::vector<AdvertiserId>{1, 2, 3, 4, 5},
        std::vector<AdvertiserId>{5, 4, 3, 2, 1},
        std::vector<AdvertiserId>{3, 1, 5, 2, 4}}) {
    TopKHeapSet heaps;
    heaps.Reset(1, 3);
    for (AdvertiserId id : order) heaps.Offer(0, 7.0, id);
    std::vector<std::pair<double, AdvertiserId>> got;
    heaps.ExtractDescending(0, &got);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].second, 5);
    EXPECT_EQ(got[1].second, 4);
    EXPECT_EQ(got[2].second, 3);
  }
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
  pool.ParallelFor(10, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace ssa
