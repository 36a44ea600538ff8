// MpscRingQueue and Parker: the handoff into a processor's worker.
//
// MpscRingQueue carries items (peer messages, client operations) from any
// thread into one consumer without a lock or, in steady state, an
// allocation: a chain of Vyukov-style bounded rings (one CAS to claim a
// cell, one store to publish it). Items are moved in and may be moved out
// by the consumer. A producer that finds the tail ring full links a ring
// of twice the size and closes the full one, so the queue is unbounded
// and no producer ever waits for the consumer or for another producer.
// Old rings stay allocated until the queue is destroyed (a stalled
// producer may still hold one), which costs at most the size of the
// newest ring.
//
// Parker is where the consumer waits while its queues are empty. Wakeup
// discipline (the p99 tail fix): the consumer spins on its queues before
// parking, and producers pay the notify syscall only when the consumer
// has actually parked. Notifying on every empty->nonempty transition
// would cost the producer a futex wake and the consumer a futex sleep on
// nearly every item under an intermittent load — the ms-scale p99 this
// discipline removed. A producer publishes to its ring and then calls
// WakeIfParked; the consumer raises `parked_` and then probes its rings
// one last time. `parked_` is seq_cst on both sides, so either the
// producer sees the consumer parked and pokes it, or the consumer's probe
// sees the item (a Dekker handshake; no wake is lost).

#ifndef LAZYTREE_UTIL_MPSC_QUEUE_H_
#define LAZYTREE_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

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

/// Where one consumer waits for the producers of its MpscRingQueues (see
/// the header comment). Producers publish, then call WakeIfParked; Poke
/// wakes the consumer without an item; Close ends every later wait.
class Parker {
 public:
  /// Consumer: returns once `ready()` holds, a Poke arrives or `deadline`
  /// passes. Returns false when closed, unless `ready()` held.
  ///
  /// Spin-then-park: before taking the sleep path the consumer spins on
  /// `ready` (multicore only — on a single hardware thread spinning just
  /// burns the producers' timeslice). Under load the next item arrives
  /// within microseconds, and dodging the futex sleep/wake round trip
  /// keeps the consumer out of the producers' path entirely.
  template <typename Ready>
  bool WaitUntil(std::chrono::steady_clock::time_point deadline,
                 Ready&& ready) {
    using Clock = std::chrono::steady_clock;
    static const int kSpins =
        std::thread::hardware_concurrency() > 1 ? 4096 : 0;
    constexpr int kClockEvery = 64;  // spins between deadline checks
    const bool timed = deadline != Clock::time_point::max();
    for (int spin = 0; spin < kSpins; ++spin) {
      if (ready()) return true;
      if (closed_.load(std::memory_order_acquire)) break;
      if (timed && spin % kClockEvery == 0 && Clock::now() >= deadline) {
        break;
      }
      CpuRelax();
    }
    std::unique_lock<std::mutex> lock(mu_);
    // Raised before the predicate's first probe of the queues.
    parked_.store(true, std::memory_order_seq_cst);
    bool is_ready = false;
    const auto wake = [&] {
      is_ready = ready();
      return is_ready || poked_ || closed_.load(std::memory_order_relaxed);
    };
    if (timed) {
      cv_.wait_until(lock, deadline, wake);
    } else {
      cv_.wait(lock, wake);
    }
    parked_.store(false, std::memory_order_relaxed);
    poked_ = false;
    return is_ready || !closed_.load(std::memory_order_relaxed);
  }

  /// Wakes the consumer: its pending (or next) WaitUntil returns. A poke
  /// that lands before the consumer parks is kept until it does.
  void Poke() {
    bool consumer_parked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      poked_ = true;
      consumer_parked = parked_.load(std::memory_order_relaxed);
    }
    if (consumer_parked) cv_.notify_one();
  }

  /// Pokes the consumer only if it has parked. A producer calls this after
  /// publishing an item: the seq_cst load pairs with the consumer's
  /// seq_cst store before its last probe.
  void WakeIfParked() {
    if (parked_.load(std::memory_order_seq_cst)) Poke();
  }

  /// Ends the consumer's current and later waits.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool poked_ = false;  // guarded by mu_; consumed by the next park
  // Written by the consumer under mu_; read under mu_ by Poke, and
  // lock-free by WakeIfParked.
  std::atomic<bool> parked_{false};
  // Written under mu_; read lock-free by the consumer's spin phase.
  std::atomic<bool> closed_{false};
};

/// Unbounded lock-free multi-producer, single-consumer queue of movable,
/// default-constructible items (see the header comment). FIFO per
/// producing thread. Push never blocks, never waits for another thread,
/// and allocates only when it grows the queue; Drain, Ready and
/// DrainClosed are the consumer's. After Close, Push returns false and the
/// items pushed before it stay drainable.
template <typename T>
class MpscRingQueue {
  static_assert(std::is_default_constructible_v<T> &&
                std::is_nothrow_move_assignable_v<T>);

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

  /// Moves `item` in. Returns false (item dropped) once the queue is
  /// closed.
  bool Push(T item) {
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
            cell.item = std::move(item);
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
        grown->cells[0].item = std::move(item);
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
        // Another producer linked first; `succ` now holds its ring. Take
        // the item back before `grown` is freed.
        item = std::move(grown->cells[0].item);
      }
      Advance(r, succ);
      r = succ;
    }
  }

  /// Consumer: true when an item is ready to drain. Sequentially
  /// consistent, for the park handshake.
  bool Ready() { return Next() != nullptr; }

  /// Consumer: passes up to `max_items` ready items, oldest first, to
  /// `sink(T&)`, which may move from them. Returns how many it passed.
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

  /// Consumer, after Close: drains and destroys every item pushed before
  /// it, waiting out producers that claimed a cell and have not yet
  /// published it (a few stores away). Returns how many it drained.
  size_t DrainClosed() {
    size_t n = 0;
    for (;;) {
      n += Drain(std::numeric_limits<size_t>::max(),
                 [](T& item) { item = T(); });
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
