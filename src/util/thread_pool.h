#ifndef SSA_UTIL_THREAD_POOL_H_
#define SSA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ssa {

/// Fixed-size worker pool behind every fan-out in the library: the sharded
/// engine's shard phase, revenue-matrix row blocks, tree top-k leaves and
/// the Section III-F 2^k heavyweight subsets. Its one operation is a
/// parallel for. The calling thread works too: it runs its own queued
/// chunks until none are left, then waits only for the chunks workers
/// already took, never for unrelated work on the pool. A call therefore
/// never idles while one of its chunks is ready to run, and a call nested
/// inside a pool task completes (the nested caller runs what no worker
/// takes).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Convenience: runs fn(i) for i in [0, n) across the pool and waits.
  /// Implemented on top of ParallelForChunks, so the pool sees one task per
  /// chunk (≈4x threads), not one heap-allocated std::function per index.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Partitions [0, n) into ~4x num_threads() contiguous ranges and runs
  /// fn(begin, end) once per range, on the workers and the calling thread,
  /// then returns once every range has run. The over-decomposition (4x)
  /// keeps threads load-balanced when range costs are uneven while queueing
  /// stays O(threads), and contiguous ranges let dense kernels
  /// (revenue-matrix blocks, tree top-k leaves) stream cache-friendly rows.
  void ParallelForChunks(int n, const std::function<void(int, int)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  /// One ParallelForChunks invocation; lives on its caller's stack.
  struct Call {
    const std::function<void(int, int)>* fn;
    /// Chunks not yet finished, guarded by the pool mutex. The caller
    /// returns (destroying the Call) only once this reaches zero.
    int pending;
    std::condition_variable done;
  };
  struct Chunk {
    Call* call;
    int begin;
    int end;
  };

  void WorkerLoop();
  /// Runs `chunk` and retires it from its call, waking the caller on the
  /// last one. Called without the pool mutex held.
  void RunChunk(const Chunk& chunk);

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<Chunk> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

}  // namespace ssa

#endif  // SSA_UTIL_THREAD_POOL_H_
