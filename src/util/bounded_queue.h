#ifndef SSA_UTIL_BOUNDED_QUEUE_H_
#define SSA_UTIL_BOUNDED_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/common.h"

namespace ssa {

/// What the ingestion queue does with a producer once it is full (the
/// admission-control knob of the serving subsystem).
enum class BackpressurePolicy {
  /// Block the producer until a consumer frees a slot (lossless; pushes the
  /// queueing delay back into the caller).
  kBlock,
  /// Fail the push immediately (load shedding; the caller sees the verdict
  /// and can retry, degrade, or count the drop).
  kReject,
};

/// Verdict of one push against the configured backpressure policy.
enum class QueuePushResult {
  kAccepted,
  kRejected,  // kReject policy, queue full
  kClosed,    // queue closed — no further admissions
};

/// Bounded multi-producer/multi-consumer FIFO with pluggable backpressure —
/// the serving subsystem's one ingestion queue. One mutex plus two
/// condition variables: simple, fair enough, and correct under TSan. The
/// mutex costs ~100 ns per push against millisecond auctions, so a
/// lock-free ring buys no measurable throughput (4 producers, 4 cores).
///
/// Lifecycle: producers Push() until Close(); consumers PopBatch() drain
/// remaining elements after Close() and then observe end-of-stream (false).
/// Admission counters are relaxed atomics readable concurrently.
template <typename T>
class BoundedQueue {
 public:
  BoundedQueue(size_t capacity, BackpressurePolicy policy)
      : capacity_(capacity), policy_(policy) {
    SSA_CHECK(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admits `value` per the backpressure policy. Thread-safe.
  QueuePushResult Push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return QueuePushResult::kClosed;
    if (items_.size() >= capacity_) {
      if (policy_ == BackpressurePolicy::kReject) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return QueuePushResult::kRejected;
      }
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) return QueuePushResult::kClosed;
    }
    items_.push_back(std::move(value));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    not_empty_.notify_one();
    return QueuePushResult::kAccepted;
  }

  /// Micro-batch pop: blocks for the first element (indefinitely), then
  /// takes whatever else is already queued, up to `max_batch` elements, and
  /// returns at once — it never waits for batch-mates, so a lone request
  /// starts as soon as the consumer is free, and batches fill only from the
  /// backlog that builds while the consumer works. Appends to `*out` (not
  /// cleared). Returns false iff closed and drained; a true return delivers
  /// at least one element.
  bool PopBatch(std::vector<T>* out, size_t max_batch) {
    SSA_CHECK(max_batch >= 1);
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    const size_t taken = std::min(max_batch, items_.size());
    for (size_t i = 0; i < taken; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    not_full_.notify_all();
    return true;
  }

  /// Closes the queue: subsequent pushes fail with kClosed, blocked
  /// producers wake and fail, consumers drain then see end-of-stream.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  // Admission counters (relaxed; safe to read concurrently).
  int64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  int64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  const BackpressurePolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> rejected_{0};
};

}  // namespace ssa

#endif  // SSA_UTIL_BOUNDED_QUEUE_H_
