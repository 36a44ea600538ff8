// Threading primitives shared by benches, examples and tests.

#ifndef LAZYTREE_UTIL_THREADING_H_
#define LAZYTREE_UTIL_THREADING_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace lazytree {

/// Go-style wait group: tracks outstanding work items across threads.
class WaitGroup {
 public:
  void Add(int64_t delta = 1);
  /// Decrements the counter; wakes waiters when it reaches zero.
  void Done();
  /// Blocks until the counter is zero.
  void Wait();
  /// Blocks until zero or timeout; true if the counter reached zero.
  bool WaitFor(std::chrono::milliseconds timeout);
  int64_t Count() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t count_ = 0;
};

/// Monotonic wall-clock in nanoseconds (benchmark timing).
uint64_t NowNanos();

}  // namespace lazytree

#endif  // LAZYTREE_UTIL_THREADING_H_
