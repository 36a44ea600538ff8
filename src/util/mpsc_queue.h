// MpscBatchQueue: the thread transport's inbox.
//
// Multi-producer, single-consumer, swap-the-vector design: producers
// append to a vector under one mutex; the consumer exchanges that vector
// for its own drained one under the same mutex, then processes the whole
// batch lock-free. One lock acquisition per *batch* on the consumer side
// (vs. one per message for a plain locked deque), and the two vectors recycle
// each other's capacity so a steady-state queue stops allocating.
//
// Wakeup discipline (the p99 tail fix): the consumer spins on a lock-free
// size hint before parking, and producers pay the notify syscall only
// when the consumer has actually parked (`parked_` flag, written under
// the mutex so there is no lost-wakeup window). The old design notified
// on every empty->nonempty transition, so under an intermittent load the
// producer ate a futex wake and the consumer a futex sleep on nearly
// every message — that round trip is where the ms-scale p99 came from.

#ifndef LAZYTREE_UTIL_MPSC_QUEUE_H_
#define LAZYTREE_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lazytree {

/// Pause hint for spin loops: de-pipelines the spinning core without
/// yielding its timeslice (x86 `pause`, ARM `yield`; plain fallback
/// elsewhere). Cheaper than std::this_thread::yield when the wait is
/// expected to be sub-microsecond.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Unbounded MPSC queue drained in batches. Close() wakes the consumer;
/// after close, PopAll keeps returning queued batches until empty.
/// PopAllUntil bounds the wait by a deadline, and Poke() ends it early.
template <typename T>
class MpscBatchQueue {
 public:
  /// Enqueues one item. Returns false (item dropped) if the queue is
  /// closed.
  bool Push(T item) {
    bool consumer_parked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      size_hint_.fetch_add(1, std::memory_order_release);
      consumer_parked = parked_;
    }
    // Only a parked consumer needs (or can benefit from) a futex wake; a
    // spinning one observes size_hint_ without our help.
    if (consumer_parked) cv_.notify_one();
    return true;
  }

  /// Blocks until items are available or the queue is closed, then moves
  /// up to `max_items` pending items into `out` (whose previous contents
  /// are cleared — pass the same vector every call to recycle capacity).
  /// Returns false only when the queue is closed *and* drained.
  ///
  /// The bound keeps one flooded inbox from turning into a single
  /// unbounded delivery batch: without it, a burst of N messages is
  /// handled as one atomic chunk during which the worker never revisits
  /// the queue, and every message that arrived mid-chunk waits for the
  /// whole chunk — a tail-latency amplifier proportional to burst size.
  bool PopAll(std::vector<T>& out,
              size_t max_items = std::numeric_limits<size_t>::max()) {
    return PopAllUntil(out, max_items,
                       std::chrono::steady_clock::time_point::max());
  }

  /// PopAll that also returns (true, `out` empty) once `deadline` passes
  /// or a Poke arrives first — the worker's cue to fire its timers.
  ///
  /// Spin-then-park: before taking the sleep path the consumer spins on
  /// the lock-free size hint (multicore only — on a single hardware
  /// thread spinning just burns the producers' timeslice). Under load
  /// the next batch arrives within microseconds, and dodging the futex
  /// sleep/wake round trip keeps the consumer out of the producers' Push
  /// path entirely.
  bool PopAllUntil(std::vector<T>& out, size_t max_items,
                   std::chrono::steady_clock::time_point deadline) {
    using Clock = std::chrono::steady_clock;
    static const int kSpins =
        std::thread::hardware_concurrency() > 1 ? 4096 : 0;
    constexpr int kClockEvery = 64;  // spins between deadline checks
    out.clear();
    if (TakeStaged(out, max_items)) return true;
    const bool timed = deadline != Clock::time_point::max();
    for (int spin = 0; spin < kSpins; ++spin) {
      if (size_hint_.load(std::memory_order_acquire) > 0) {
        if (SwapAndTake(out, max_items)) return true;
      }
      if (closed_hint_.load(std::memory_order_acquire)) break;
      if (timed && spin % kClockEvery == 0 && Clock::now() >= deadline) {
        break;
      }
      CpuRelax();
    }
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    const auto ready = [&] { return !items_.empty() || closed_ || poked_; };
    if (timed) {
      cv_.wait_until(lock, deadline, ready);
    } else {
      cv_.wait(lock, ready);
    }
    parked_ = false;
    poked_ = false;
    if (items_.empty()) return !closed_;
    StageLocked();
    lock.unlock();
    TakeStaged(out, max_items);
    return true;
  }

  /// Wakes the consumer without an item: its pending (or next) PopAllUntil
  /// returns with `out` empty. A poke that lands before the consumer
  /// parks is kept until it does.
  void Poke() {
    bool consumer_parked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      poked_ = true;
      consumer_parked = parked_;
    }
    if (consumer_parked) cv_.notify_one();
  }

  /// Non-blocking variant: moves up to `max_items` pending items into
  /// `out`. Returns false when nothing was pending (closed or not).
  bool TryPopAll(std::vector<T>& out,
                 size_t max_items = std::numeric_limits<size_t>::max()) {
    out.clear();
    if (TakeStaged(out, max_items)) return true;
    return SwapAndTake(out, max_items);
  }

  /// Rejects further pushes and wakes a blocked consumer.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      closed_hint_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size() + (staged_.size() - staged_pos_);
  }

 private:
  // Moves up to `max_items` from the staged batch (consumer-owned, no
  // lock needed). Returns true if anything was taken.
  bool TakeStaged(std::vector<T>& out, size_t max_items) {
    if (staged_pos_ >= staged_.size()) return false;
    const size_t take =
        std::min(max_items, staged_.size() - staged_pos_);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(std::move(staged_[staged_pos_ + i]));
    }
    staged_pos_ += take;
    if (staged_pos_ >= staged_.size()) {
      staged_.clear();
      staged_pos_ = 0;
    }
    return true;
  }

  // Swaps the producer vector into the staging area (under the lock),
  // then serves from it. Returns false when nothing was pending.
  bool SwapAndTake(std::vector<T>& out, size_t max_items) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return false;
      StageLocked();
    }
    return TakeStaged(out, max_items);
  }

  // Requires mu_ held and staged_ fully drained: recycle its capacity
  // into the producer vector and take the pending batch.
  void StageLocked() {
    staged_.swap(items_);
    staged_pos_ = 0;
    size_hint_.fetch_sub(staged_.size(), std::memory_order_release);
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> items_;
  bool closed_ = false;
  bool parked_ = false;  // guarded by mu_; read by producers under mu_
  bool poked_ = false;   // guarded by mu_; consumed by the next park

  // Lock-free mirror of items_.size() / closed_ for the consumer's spin
  // phase — advisory only; every take re-checks under the mutex.
  std::atomic<size_t> size_hint_{0};
  std::atomic<bool> closed_hint_{false};

  // Consumer-only staging area for bounded drains: a swapped-in batch
  // larger than max_items is served across successive PopAll calls.
  std::vector<T> staged_;
  size_t staged_pos_ = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_UTIL_MPSC_QUEUE_H_
