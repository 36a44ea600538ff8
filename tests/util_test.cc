// Unit tests for the utility kit: Status/StatusOr, Rng, Histogram,
// Parker, MpscRingQueue, WaitGroup.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/mpsc_queue.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/util/threading.h"

namespace lazytree {
namespace {

TEST(Status, OkIsDefaultAndCheap) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "key 42");
  EXPECT_EQ(s.ToString(), "not_found: key 42");
}

TEST(Status, CopyingSharesRepresentation) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.code(), StatusCode::kInternal);
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(a == b);
}

TEST(Status, AllConstructorsMapToCodes) {
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::InvalidArgument("").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unavailable("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::TimedOut("").code(), StatusCode::kTimedOut);
  EXPECT_EQ(Status::Aborted("").code(), StatusCode::kAborted);
}

TEST(StatusOr, ValueAndErrorPaths) {
  StatusOr<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  EXPECT_EQ(good.value_or(9), 7);

  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(bad.value_or(9), 9);
}

TEST(StatusOr, MoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(3));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 3);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff_seed_equal = true;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next(), y = b.Next(), z = c.Next();
    all_equal &= (x == y);
    any_diff_seed_equal &= (x == z);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_FALSE(any_diff_seed_equal);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(5);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Range(10, 13));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 13u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(h.P50(), 50, 6);
  EXPECT_NEAR(h.P99(), 99, 6);
}

TEST(Histogram, MergeAndReset) {
  Histogram a, b;
  for (int i = 0; i < 50; ++i) a.Record(10);
  for (int i = 0; i < 50; ++i) b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(50), 0.0);
}

TEST(Histogram, SmallValuePercentilesAreSane) {
  // Regression: values in [0, 4] straddle the exact-bucket / log-bucket
  // boundary; percentiles must stay within [min, max].
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(3);
  for (int i = 0; i < 100; ++i) h.Record(4);
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, 3.0) << "p" << p;
    EXPECT_LE(v, 4.0) << "p" << p;
  }
  Histogram zeros;
  zeros.Record(0);
  zeros.Record(0);
  EXPECT_EQ(zeros.Percentile(50), 0.0);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  h.Record(0);
  h.Record(1ull << 62);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 1ull << 62);
  EXPECT_FALSE(h.Summary().empty());
}

TEST(Parker, DeadlinePassingReturnsTrue) {
  Parker parker;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(20);
  EXPECT_TRUE(parker.WaitUntil(deadline, [] { return false; }));
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

// Runs WaitUntil with no deadline on its own thread; true if it returned
// true within `limit` (the parker is closed afterwards either way, so a
// missed wakeup fails the test instead of hanging it).
bool ReturnsWithin(Parker& parker, const std::function<bool()>& ready,
                   const std::function<void()>& after_start,
                   std::chrono::milliseconds limit) {
  std::promise<bool> result;
  std::future<bool> returned = result.get_future();
  std::thread consumer([&] {
    result.set_value(
        parker.WaitUntil(std::chrono::steady_clock::time_point::max(), ready));
  });
  after_start();
  const bool woke =
      returned.wait_for(limit) == std::future_status::ready && returned.get();
  parker.Close();
  consumer.join();
  return woke;
}

const std::function<bool()> kNeverReady = [] { return false; };

TEST(Parker, PokeWakesParkedConsumer) {
  Parker parker;
  EXPECT_TRUE(ReturnsWithin(
      parker, kNeverReady,
      [&parker] {
        // Long past the spin phase: the consumer is parked.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        parker.Poke();
      },
      std::chrono::seconds(10)));
}

TEST(Parker, PokeRacingTheParkIsNotLost) {
  {
    // A poke before the consumer waits at all is kept for its park.
    Parker parker;
    parker.Poke();
    EXPECT_TRUE(ReturnsWithin(parker, kNeverReady, [] {},
                              std::chrono::seconds(10)));
  }
  // Pokes landing anywhere in the spin-then-park window.
  for (int i = 0; i < 200; ++i) {
    Parker parker;
    ASSERT_TRUE(ReturnsWithin(
        parker, kNeverReady,
        [&parker, i] {
          std::this_thread::sleep_for(std::chrono::microseconds(i * 5));
          parker.Poke();
        },
        std::chrono::seconds(10)))
        << "poke " << i << " was lost";
  }
}

// The producer side of the handshake: publish to a ring, then
// WakeIfParked. Landing anywhere in the spin-then-park window, the
// consumer's probe sees the item or the producer sees the park.
TEST(Parker, PublishThenWakeIfParkedIsNotLost) {
  for (int i = 0; i < 200; ++i) {
    Parker parker;
    MpscRingQueue<uint64_t> q;
    ASSERT_TRUE(ReturnsWithin(
        parker, [&q] { return q.Ready(); },
        [&parker, &q, i] {
          std::this_thread::sleep_for(std::chrono::microseconds(i * 5));
          ASSERT_TRUE(q.Push(1));
          parker.WakeIfParked();
        },
        std::chrono::seconds(10)))
        << "push " << i << " was lost";
  }
}

TEST(Parker, ClosedReturnsFalseDespiteDeadlineOrPoke) {
  Parker parker;
  parker.Close();
  parker.Poke();
  const auto past = std::chrono::steady_clock::now();
  EXPECT_TRUE(parker.WaitUntil(past, [] { return true; }))
      << "a ready queue still drains after close";
  EXPECT_FALSE(parker.WaitUntil(past, kNeverReady));
  EXPECT_FALSE(parker.WaitUntil(std::chrono::steady_clock::time_point::max(),
                                kNeverReady));
}

TEST(WaitGroup, WaitsForAllDone) {
  WaitGroup wg;
  wg.Add(3);
  std::thread t([&] {
    wg.Done();
    wg.Done();
    wg.Done();
  });
  wg.Wait();
  EXPECT_EQ(wg.Count(), 0);
  t.join();
}

TEST(WaitGroup, WaitForTimesOutWhenPending) {
  WaitGroup wg;
  wg.Add(1);
  EXPECT_FALSE(wg.WaitFor(std::chrono::milliseconds(10)));
  wg.Done();
  EXPECT_TRUE(wg.WaitFor(std::chrono::milliseconds(10)));
}

TEST(MpscRingQueue, GrowsPastItsFirstRingInOrder) {
  MpscRingQueue<uint64_t> q(4);
  // Never drained while pushing: the queue must link larger rings.
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<uint64_t> out;
  EXPECT_EQ(q.Drain(10, [&](uint64_t v) { out.push_back(v); }), 10u);
  EXPECT_TRUE(q.Ready());
  q.Drain(SIZE_MAX, [&](uint64_t v) { out.push_back(v); });
  ASSERT_EQ(out.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(out[i], i);
  EXPECT_FALSE(q.Ready());
  // Reused cells keep order too.
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(q.Push(i));
    uint64_t got = 0;
    ASSERT_EQ(q.Drain(1, [&](uint64_t v) { got = v; }), 1u);
    ASSERT_EQ(got, i);
  }
}

TEST(MpscRingQueue, DrainsInOrderAndBoundsEachDrain) {
  MpscRingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  std::vector<int> out;
  EXPECT_EQ(q.Drain(4, [&](int v) { out.push_back(v); }), 4u);
  EXPECT_EQ(q.Drain(SIZE_MAX, [&](int v) { out.push_back(v); }), 6u);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
  EXPECT_FALSE(q.Ready());
  EXPECT_EQ(q.Drain(SIZE_MAX, [&](int v) { out.push_back(v); }), 0u);
}

TEST(MpscRingQueue, CloseRejectsPushesAndKeepsEarlierOnes) {
  MpscRingQueue<uint64_t> q(2);
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  EXPECT_FALSE(q.Push(9));
  EXPECT_EQ(q.DrainClosed(), 5u);
  EXPECT_FALSE(q.Push(10));
  EXPECT_EQ(q.DrainClosed(), 0u);
}

TEST(MpscRingQueue, DrainAfterCloseKeepsEarlierItems) {
  MpscRingQueue<std::unique_ptr<int>> q;
  ASSERT_TRUE(q.Push(std::make_unique<int>(1)));
  q.Close();
  EXPECT_FALSE(q.Push(std::make_unique<int>(2)))
      << "closed queue rejects pushes";
  std::vector<int> out;
  EXPECT_EQ(q.Drain(SIZE_MAX,
                    [&](std::unique_ptr<int>& v) { out.push_back(*v); }),
            1u);
  EXPECT_EQ(out, std::vector<int>({1}));
  EXPECT_EQ(q.DrainClosed(), 0u) << "closed and drained";
}

TEST(MpscRingQueue, MultiProducerKeepsPerProducerOrder) {
  MpscRingQueue<std::pair<int, int>> q;  // (producer, seq)
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(q.Push({p, i}));
    });
  }
  std::vector<int> next_seq(kProducers, 0);
  int total = 0, reordered = 0;
  while (total < kProducers * kPerProducer) {
    const size_t n = q.Drain(128, [&](const std::pair<int, int>& item) {
      const auto [p, seq] = item;
      if (seq != next_seq[p]) ++reordered;
      next_seq[p] = seq + 1;
      ++total;
    });
    if (n == 0) std::this_thread::yield();
  }
  EXPECT_EQ(reordered, 0);
  EXPECT_EQ(total, kProducers * kPerProducer);
  for (auto& t : producers) t.join();
}

// A move-only item that owns heap memory, pushed by racing producers into
// a ring that starts at two cells: most pushes grow the queue, and a
// producer that loses the race to link the next ring must take its item
// back out of the ring it discards. Under ASan a lost or doubly owned item
// also shows as a leak or a double free.
TEST(MpscRingQueue, MoveOnlyItemsSurviveRacingGrowth) {
  struct Item {
    int producer;
    int seq;
  };
  constexpr int kRounds = 20;  // each round races a fresh queue's growth
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 1000;
  for (int round = 0; round < kRounds; ++round) {
    MpscRingQueue<std::unique_ptr<Item>> q(2);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(q.Push(std::make_unique<Item>(Item{p, i})));
        }
      });
    }
    std::vector<int> next_seq(kProducers, 0);
    int total = 0, reordered = 0;
    bool all_present = true;
    const auto take = [&](std::unique_ptr<Item>& item) {
      const std::unique_ptr<Item> mine = std::move(item);
      if (mine == nullptr) {
        all_present = false;
        return;
      }
      if (mine->seq != next_seq[mine->producer]) ++reordered;
      next_seq[mine->producer] = mine->seq + 1;
      ++total;
    };
    while (total < kProducers * kPerProducer && all_present) {
      if (q.Drain(128, take) == 0) std::this_thread::yield();
    }
    for (auto& t : producers) t.join();
    q.Drain(SIZE_MAX, take);
    ASSERT_TRUE(all_present) << "round " << round << ": an item arrived empty";
    ASSERT_EQ(reordered, 0) << "round " << round;
    ASSERT_EQ(total, kProducers * kPerProducer)
        << "round " << round << ": an item was lost";
  }
}

}  // namespace
}  // namespace lazytree
