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
//
// The consumer can wait on a second, lock-free source beside the locked
// vector: PopAllUntil takes a probe of it (`other_ready`) that it checks
// while it spins and again after it raises `parked_`, and its producers
// call WakeIfParked after they publish. `parked_` is seq_cst on both
// sides, so either the producer sees the consumer parked and pokes it,
// or the consumer's probe sees the item (a Dekker handshake; no wake is
// lost).
//
// MpscRingQueue: the lock-free source. It carries client operations into
// a processor's worker without a lock or an allocation: a chain of
// Vyukov-style bounded rings (one CAS to claim a cell, one store to
// publish it). A producer that finds the tail ring full links a ring of
// twice the size and closes the full one, so the queue is unbounded and
// no producer ever waits for the consumer or for another producer. Old
// rings stay allocated until the queue is destroyed (a stalled producer
// may still hold one), which costs at most the size of the newest ring.

#ifndef LAZYTREE_UTIL_MPSC_QUEUE_H_
#define LAZYTREE_UTIL_MPSC_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
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
      consumer_parked = parked_.load(std::memory_order_relaxed);
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
  ///
  /// `other_ready` probes a second, lock-free source the caller drains
  /// itself: when it returns true, PopAllUntil returns (true) at once,
  /// with whatever the inbox held. Its producers call WakeIfParked after
  /// they publish.
  template <typename Probe = bool (*)()>
  bool PopAllUntil(std::vector<T>& out, size_t max_items,
                   std::chrono::steady_clock::time_point deadline,
                   Probe&& other_ready = [] { return false; }) {
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
      if (other_ready()) return true;
      if (closed_hint_.load(std::memory_order_acquire)) break;
      if (timed && spin % kClockEvery == 0 && Clock::now() >= deadline) {
        break;
      }
      CpuRelax();
    }
    std::unique_lock<std::mutex> lock(mu_);
    // Raised before the predicate's first probe of the other source.
    parked_.store(true, std::memory_order_seq_cst);
    bool other = false;
    const auto ready = [&] {
      other = other_ready();
      return other || !items_.empty() || closed_ || poked_;
    };
    if (timed) {
      cv_.wait_until(lock, deadline, ready);
    } else {
      cv_.wait(lock, ready);
    }
    parked_.store(false, std::memory_order_relaxed);
    poked_ = false;
    if (other && items_.empty()) return true;
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
      consumer_parked = parked_.load(std::memory_order_relaxed);
    }
    if (consumer_parked) cv_.notify_one();
  }

  /// Pokes the consumer only if it has parked. A lock-free producer calls
  /// this after publishing to the source PopAllUntil probes: the seq_cst
  /// load pairs with the consumer's seq_cst store before its last probe.
  void WakeIfParked() {
    if (parked_.load(std::memory_order_seq_cst)) Poke();
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
  bool poked_ = false;   // guarded by mu_; consumed by the next park
  // Written by the consumer under mu_; read under mu_ by Push and Poke,
  // and lock-free by WakeIfParked.
  std::atomic<bool> parked_{false};

  // Lock-free mirror of items_.size() / closed_ for the consumer's spin
  // phase — advisory only; every take re-checks under the mutex.
  std::atomic<size_t> size_hint_{0};
  std::atomic<bool> closed_hint_{false};

  // Consumer-only staging area for bounded drains: a swapped-in batch
  // larger than max_items is served across successive PopAll calls.
  std::vector<T> staged_;
  size_t staged_pos_ = 0;
};

/// Unbounded lock-free multi-producer, single-consumer queue of trivially
/// copyable items (see the header comment). FIFO per producing thread.
/// Push never blocks, never waits for another thread, and allocates only
/// when it grows the queue; Drain, Ready and Close's drain are the
/// consumer's. After Close, Push returns false and the items pushed before
/// it stay drainable.
template <typename T>
class MpscRingQueue {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit MpscRingQueue(size_t initial_capacity = 32) {
    size_t capacity = 2;
    while (capacity < initial_capacity) capacity *= 2;
    head_ring_ = new Ring(capacity);
    first_ring_ = head_ring_;
    tail_ring_.store(head_ring_, std::memory_order_relaxed);
  }
  ~MpscRingQueue() {
    for (Ring* r = first_ring_; r != nullptr;) {
      Ring* succ = r->successor.load(std::memory_order_relaxed);
      delete r;
      r = succ;
    }
  }
  MpscRingQueue(const MpscRingQueue&) = delete;
  MpscRingQueue& operator=(const MpscRingQueue&) = delete;

  /// Appends `item`. Returns false (item dropped) once the queue is
  /// closed.
  bool Push(const T& item) {
    Ring* r = tail_ring_.load(std::memory_order_acquire);
    for (;;) {
      // Acquire: a closed bit seen here implies the linker's successor.
      uint64_t pos = r->claim.load(std::memory_order_acquire);
      while ((pos & kClosed) == 0) {
        Cell& cell = r->cells[pos & r->mask];
        const uint64_t turn = cell.lap.load(std::memory_order_acquire);
        const auto diff =
            static_cast<int64_t>(turn) - static_cast<int64_t>(pos);
        if (diff == 0) {
          if (r->claim.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_acquire)) {
            cell.item = item;
            cell.lap.store(pos + 1, std::memory_order_seq_cst);
            return true;
          }
        } else if (diff < 0) {
          break;  // full: the cell still holds an item from the last lap
        } else {
          pos = r->claim.load(std::memory_order_acquire);
        }
      }
      Ring* succ = r->successor.load(std::memory_order_seq_cst);
      if (succ == nullptr) {
        // A ring closed with no successor was closed by Close.
        if (pos & kClosed) return false;
        auto grown = std::make_unique<Ring>((r->mask + 1) * 2);
        grown->cells[0].item = item;
        grown->cells[0].lap.store(1, std::memory_order_relaxed);
        grown->claim.store(1, std::memory_order_relaxed);
        if (r->successor.compare_exchange_strong(
                succ, grown.get(), std::memory_order_seq_cst,
                std::memory_order_seq_cst)) {
          Ring* mine = grown.release();
          Advance(r, mine);
          // Close may have walked the chain before this ring was linked.
          if (shut_.load(std::memory_order_seq_cst)) {
            mine->claim.fetch_or(kClosed, std::memory_order_seq_cst);
          }
          return true;
        }
        // Another producer linked first; `succ` now holds its ring.
      }
      Advance(r, succ);
      r = succ;
    }
  }

  /// Consumer: true when an item is ready to drain. Sequentially
  /// consistent, for the park handshake.
  bool Ready() { return Next() != nullptr; }

  /// Consumer: passes up to `max_items` ready items, oldest first, to
  /// `sink(const T&)`. Returns how many it passed.
  template <typename Sink>
  size_t Drain(size_t max_items, Sink&& sink) {
    size_t n = 0;
    for (; n < max_items; ++n) {
      Cell* cell = Next();
      if (cell == nullptr) break;
      sink(cell->item);
      cell->lap.store(head_ + head_ring_->mask + 1,
                      std::memory_order_release);
      ++head_;
    }
    return n;
  }

  /// Rejects further pushes. Call from any thread; the consumer then
  /// drains what was pushed before with DrainClosed.
  void Close() {
    shut_.store(true, std::memory_order_seq_cst);
    for (Ring* r = first_ring_; r != nullptr;
         r = r->successor.load(std::memory_order_seq_cst)) {
      r->claim.fetch_or(kClosed, std::memory_order_seq_cst);
    }
  }

  /// Consumer, after Close: drains every item pushed before it, waiting
  /// out producers that claimed a cell and have not yet published it (a
  /// few stores away). Returns how many it drained.
  size_t DrainClosed() {
    size_t n = 0;
    for (;;) {
      n += Drain(std::numeric_limits<size_t>::max(), [](const T&) {});
      // A ring linked just before Close is closed by its linker a moment
      // later; wait for that too, so no claim can follow.
      const uint64_t claimed =
          head_ring_->claim.load(std::memory_order_acquire);
      if (claimed == (head_ | kClosed) &&
          head_ring_->successor.load(std::memory_order_acquire) == nullptr) {
        return n;
      }
      CpuRelax();
    }
  }

 private:
  static constexpr uint64_t kClosed = uint64_t{1} << 63;

  struct Cell {
    std::atomic<uint64_t> lap{0};  // pos: free; pos + 1: holds item
    T item{};
  };

  struct Ring {
    explicit Ring(size_t capacity)
        : mask(capacity - 1), cells(new Cell[capacity]) {
      for (size_t i = 0; i < capacity; ++i) {
        cells[i].lap.store(i, std::memory_order_relaxed);
      }
    }
    const uint64_t mask;
    std::unique_ptr<Cell[]> cells;
    // Producers' claim position; kClosed once the ring takes no more.
    alignas(64) std::atomic<uint64_t> claim{0};
    // Set once, by the producer that grows the queue past this ring.
    alignas(64) std::atomic<Ring*> successor{nullptr};
  };

  // Closes full ring `r` behind its successor and moves the shared tail
  // pointer on (any producer may help).
  void Advance(Ring* r, Ring* succ) {
    r->claim.fetch_or(kClosed, std::memory_order_seq_cst);
    tail_ring_.compare_exchange_strong(r, succ, std::memory_order_acq_rel,
                                       std::memory_order_relaxed);
  }

  // Consumer: the ready head cell, stepping past drained closed rings.
  // An idle probe reads the head cell and the successor link, which only
  // growth writes, not the producers' claim counter.
  Cell* Next() {
    for (;;) {
      Cell& cell = head_ring_->cells[head_ & head_ring_->mask];
      if (cell.lap.load(std::memory_order_seq_cst) == head_ + 1) {
        return &cell;
      }
      Ring* succ = head_ring_->successor.load(std::memory_order_seq_cst);
      if (succ == nullptr) return nullptr;  // empty (or closed by Close)
      // The linker closes this ring after linking `succ`; step once it is
      // closed and drained.
      const uint64_t claimed =
          head_ring_->claim.load(std::memory_order_seq_cst);
      if (claimed != (head_ | kClosed)) return nullptr;
      head_ring_ = succ;
      head_ = 0;
    }
  }

  std::atomic<Ring*> tail_ring_{nullptr};
  std::atomic<bool> shut_{false};
  Ring* first_ring_ = nullptr;
  // Consumer-owned read position.
  Ring* head_ring_ = nullptr;
  uint64_t head_ = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_UTIL_MPSC_QUEUE_H_
