#include "util/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "util/common.h"

namespace ssa {

ThreadPool::ThreadPool(int num_threads) {
  SSA_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  ParallelForChunks(n, [&fn](int begin, int end) {
    for (int i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForChunks(int n,
                                   const std::function<void(int, int)>& fn) {
  if (n <= 0) return;
  const int chunks = std::min<int>(n, 4 * num_threads());
  Call call{&fn, chunks, {}};
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int c = 0; c < chunks; ++c) {
      const int begin = static_cast<int>(static_cast<int64_t>(n) * c / chunks);
      const int end =
          static_cast<int>(static_cast<int64_t>(n) * (c + 1) / chunks);
      queue_.push_back({&call, begin, end});
    }
  }
  // The caller runs chunks too, so chunks - 1 helpers suffice.
  const int helpers = std::min(chunks - 1, num_threads());
  for (int h = 0; h < helpers; ++h) work_available_.notify_one();
  // Run this call's chunks that no worker has taken yet. Workers pop from
  // the front, so the caller scans from the back.
  for (;;) {
    Chunk chunk{};
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it =
          std::find_if(queue_.rbegin(), queue_.rend(),
                       [&call](const Chunk& c) { return c.call == &call; });
      if (it == queue_.rend()) break;
      chunk = *it;
      queue_.erase(std::next(it).base());
    }
    RunChunk(chunk);
  }
  // Only chunks a worker already took remain; wait for those alone.
  std::unique_lock<std::mutex> lock(mu_);
  call.done.wait(lock, [&call] { return call.pending == 0; });
}

void ThreadPool::RunChunk(const Chunk& chunk) {
  (*chunk.call->fn)(chunk.begin, chunk.end);
  std::lock_guard<std::mutex> lock(mu_);
  // Notify under the mutex: the caller may destroy the Call as soon as it
  // observes pending == 0, which it can only do after we release the lock.
  if (--chunk.call->pending == 0) chunk.call->done.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Chunk chunk{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      chunk = queue_.front();
      queue_.pop_front();
    }
    RunChunk(chunk);
  }
}

}  // namespace ssa
