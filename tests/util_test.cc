// Unit tests for the utility kit: Status/StatusOr, Rng, Histogram,
// MpscBatchQueue, WaitGroup.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <set>
#include <thread>

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

TEST(MpscBatchQueue, DrainsWholeBatchInOrder) {
  MpscBatchQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  std::vector<int> batch;
  ASSERT_TRUE(q.PopAll(batch));
  ASSERT_EQ(batch.size(), 10u) << "one swap drains everything pending";
  for (int i = 0; i < 10; ++i) EXPECT_EQ(batch[i], i);
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_FALSE(q.TryPopAll(batch));
}

TEST(MpscBatchQueue, CloseWakesAndDrains) {
  MpscBatchQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2)) << "closed queue rejects pushes";
  std::vector<int> batch;
  ASSERT_TRUE(q.PopAll(batch)) << "drains remaining items after close";
  EXPECT_EQ(batch, std::vector<int>({1}));
  EXPECT_FALSE(q.PopAll(batch)) << "closed and drained";
}

TEST(MpscBatchQueue, DeadlinePassingReturnsEmpty) {
  MpscBatchQueue<int> q;
  std::vector<int> batch = {7};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(20);
  ASSERT_TRUE(q.PopAllUntil(batch, 16, deadline));
  EXPECT_TRUE(batch.empty()) << "nothing pushed: out comes back empty";
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

// Runs PopAllUntil with no deadline on its own thread; true if it returned
// within `limit` (the queue is closed afterwards either way, so a missed
// wakeup fails the test instead of hanging it).
bool ReturnsWithin(MpscBatchQueue<int>& q, std::vector<int>& batch,
                   const std::function<void()>& after_start,
                   std::chrono::milliseconds limit) {
  std::promise<bool> result;
  std::future<bool> returned = result.get_future();
  std::thread consumer([&] {
    result.set_value(q.PopAllUntil(
        batch, 16, std::chrono::steady_clock::time_point::max()));
  });
  after_start();
  const bool woke =
      returned.wait_for(limit) == std::future_status::ready && returned.get();
  q.Close();
  consumer.join();
  return woke;
}

TEST(MpscBatchQueue, PokeWakesParkedConsumer) {
  MpscBatchQueue<int> q;
  std::vector<int> batch = {7};
  EXPECT_TRUE(ReturnsWithin(
      q, batch,
      [&q] {
        // Long past the spin phase: the consumer is parked.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        q.Poke();
      },
      std::chrono::seconds(10)));
  EXPECT_TRUE(batch.empty()) << "a poke carries no item";
}

TEST(MpscBatchQueue, PokeRacingTheParkIsNotLost) {
  {
    // A poke before the consumer waits at all is kept for its park.
    MpscBatchQueue<int> q;
    q.Poke();
    std::vector<int> batch;
    EXPECT_TRUE(ReturnsWithin(q, batch, [] {}, std::chrono::seconds(10)));
  }
  // Pokes landing anywhere in the spin-then-park window.
  for (int i = 0; i < 200; ++i) {
    MpscBatchQueue<int> q;
    std::vector<int> batch;
    ASSERT_TRUE(ReturnsWithin(
        q, batch,
        [&q, i] {
          std::this_thread::sleep_for(std::chrono::microseconds(i * 5));
          q.Poke();
        },
        std::chrono::seconds(10)))
        << "poke " << i << " was lost";
  }
}

TEST(MpscBatchQueue, ClosedAndDrainedReturnsFalseDespiteDeadlineOrPoke) {
  MpscBatchQueue<int> q;
  q.Push(1);
  q.Close();
  q.Poke();
  const auto past = std::chrono::steady_clock::now();
  std::vector<int> batch;
  ASSERT_TRUE(q.PopAllUntil(batch, 16, past)) << "queued items still drain";
  EXPECT_EQ(batch, std::vector<int>({1}));
  EXPECT_FALSE(q.PopAllUntil(batch, 16, past)) << "closed and drained";
  EXPECT_FALSE(q.PopAll(batch));
}

TEST(MpscBatchQueue, MultiProducerKeepsPerProducerOrder) {
  MpscBatchQueue<std::pair<int, int>> q;  // (producer, seq)
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push({p, i});
    });
  }
  std::vector<int> next_seq(kProducers, 0);
  int total = 0;
  std::vector<std::pair<int, int>> batch;
  while (total < kProducers * kPerProducer) {
    if (!q.PopAll(batch)) break;
    for (auto& [p, seq] : batch) {
      ASSERT_EQ(seq, next_seq[p]++) << "producer " << p << " reordered";
      ++total;
    }
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
  for (auto& t : producers) t.join();
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

TEST(MpscRingQueue, CloseRejectsPushesAndKeepsEarlierOnes) {
  MpscRingQueue<uint64_t> q(2);
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  EXPECT_FALSE(q.Push(9));
  EXPECT_EQ(q.DrainClosed(), 5u);
  EXPECT_FALSE(q.Push(10));
  EXPECT_EQ(q.DrainClosed(), 0u);
}

}  // namespace
}  // namespace lazytree
