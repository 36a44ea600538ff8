// Transport tests: the paper's network assumption (reliable, exactly-once,
// per-channel FIFO) on both implementations; sim determinism; quiescence
// detection; the sim's latency mode delivering one processor's share of a
// tick as one batch.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/net/faults.h"
#include "src/net/sim_network.h"
#include "src/net/thread_network.h"

namespace lazytree {
namespace {

/// Records every delivered action's (from, key) for order checking.
class Recorder : public net::Receiver {
 public:
  explicit Recorder(net::Network* network = nullptr) : network_(network) {}

  void Deliver(Message m) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Action& a : m.actions) {
      by_sender_[m.from].push_back(a.key);
      total_++;
      if (network_ != nullptr && a.kind == ActionKind::kSearch &&
          a.key < bounce_limit_) {
        // Ping-pong: reply with key+1 (exercises reentrant Send).
        Action reply;
        reply.kind = ActionKind::kSearch;
        reply.key = a.key + 1;
        network_->Send(Message(m.to, m.from, reply));
      }
    }
  }

  std::vector<Key> SenderKeys(ProcessorId from) {
    std::lock_guard<std::mutex> lock(mu_);
    return by_sender_[from];
  }
  size_t total() {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  void set_bounce_limit(Key limit) { bounce_limit_ = limit; }

 private:
  net::Network* network_;
  Key bounce_limit_ = 0;
  std::mutex mu_;
  std::map<ProcessorId, std::vector<Key>> by_sender_;
  size_t total_ = 0;
};

Action KeyedAction(Key k) {
  Action a;
  a.kind = ActionKind::kSearch;
  a.key = k;
  return a;
}

TEST(SimNetwork, DeliversEverythingExactlyOnce) {
  net::SimNetwork net(1);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  for (Key k = 0; k < 100; ++k) net.Send(Message(0, 1, KeyedAction(k)));
  EXPECT_EQ(net.Pending(), 100u);
  EXPECT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1000)));
  EXPECT_EQ(r1.total(), 100u);
  EXPECT_EQ(r0.total(), 0u);
  EXPECT_EQ(net.Pending(), 0u);
}

TEST(SimNetwork, PerChannelFifoDespiteRandomScheduling) {
  net::SimNetwork net(99);
  Recorder sinks[3];
  for (ProcessorId id = 0; id < 3; ++id) net.Register(id, &sinks[id]);
  // Two senders interleave into one receiver; each sender's order holds.
  for (Key k = 0; k < 200; ++k) {
    net.Send(Message(0, 2, KeyedAction(k)));
    net.Send(Message(1, 2, KeyedAction(1000 + k)));
  }
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1000)));
  auto from0 = sinks[2].SenderKeys(0);
  auto from1 = sinks[2].SenderKeys(1);
  ASSERT_EQ(from0.size(), 200u);
  ASSERT_EQ(from1.size(), 200u);
  for (Key k = 0; k < 200; ++k) {
    EXPECT_EQ(from0[k], k);
    EXPECT_EQ(from1[k], 1000 + k);
  }
}

TEST(SimNetwork, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    net::SimNetwork net(seed);
    Recorder r0(&net), r1(&net);
    r0.set_bounce_limit(50);
    r1.set_bounce_limit(50);
    net.Register(0, &r0);
    net.Register(1, &r1);
    net.Send(Message(0, 1, KeyedAction(0)));
    net.Send(Message(1, 0, KeyedAction(1)));
    net.WaitQuiescent(std::chrono::milliseconds(1000));
    return net.delivered();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(SimNetwork, StepDeliversOne) {
  net::SimNetwork net(3);
  Recorder r0;
  net.Register(0, &r0);
  EXPECT_FALSE(net.Step()) << "nothing pending";
  net.Send(Message(0, 0, KeyedAction(1)));
  net.Send(Message(0, 0, KeyedAction(2)));
  EXPECT_TRUE(net.Step());
  EXPECT_EQ(r0.total(), 1u);
  EXPECT_TRUE(net.Step());
  EXPECT_FALSE(net.Step());
}

TEST(ThreadNetwork, DeliversAcrossThreadsAndQuiesces) {
  net::ThreadNetwork net;
  Recorder sinks[4];
  for (ProcessorId id = 0; id < 4; ++id) net.Register(id, &sinks[id]);
  net.Start();
  std::vector<std::thread> senders;
  for (ProcessorId from = 0; from < 4; ++from) {
    senders.emplace_back([&net, from] {
      for (Key k = 0; k < 500; ++k) {
        net.Send(Message(from, (from + 1) % 4, KeyedAction(k)));
      }
    });
  }
  for (auto& t : senders) t.join();
  EXPECT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(5000)));
  for (ProcessorId id = 0; id < 4; ++id) {
    EXPECT_EQ(sinks[id].total(), 500u);
    auto keys = sinks[id].SenderKeys((id + 3) % 4);
    ASSERT_EQ(keys.size(), 500u);
    for (Key k = 0; k < 500; ++k) EXPECT_EQ(keys[k], k) << "FIFO broken";
  }
  net.Stop();
}

TEST(ThreadNetwork, ReentrantSendFromDeliver) {
  net::ThreadNetwork net;
  Recorder r0(&net), r1(&net);
  r0.set_bounce_limit(100);
  r1.set_bounce_limit(100);
  net.Register(0, &r0);
  net.Register(1, &r1);
  net.Start();
  net.Send(Message(0, 1, KeyedAction(0)));
  EXPECT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(5000)));
  // Keys 0..99 bounce; the final key==100 message is delivered unbounced.
  EXPECT_EQ(r0.total() + r1.total(), 101u);
  net.Stop();
}

TEST(NetworkStats, CountsRemoteAndLocal) {
  net::SimNetwork net(1);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  net.Send(Message(0, 1, KeyedAction(5)));
  net.Send(Message(1, 1, KeyedAction(6)));  // self-send = local
  auto snap = net.stats().Snapshot();
  EXPECT_EQ(snap.remote_messages, 1u);
  EXPECT_EQ(snap.local_messages, 1u);
  EXPECT_EQ(snap.remote_bytes, 0u) << "the sim counts no bytes";
  EXPECT_EQ(snap.ActionCount(ActionKind::kSearch), 2u);
  // Each send counts in its sender's shard.
  EXPECT_EQ(net.stats().Snapshot(0).remote_messages, 1u);
  EXPECT_EQ(net.stats().Snapshot(0).local_messages, 0u);
  EXPECT_EQ(net.stats().Snapshot(1).local_messages, 1u);
  auto diff = net.stats().Snapshot() - snap;
  EXPECT_EQ(diff.remote_messages, 0u);
}

TEST(SimNetworkLatency, DeliversInTimeOrderAndAdvancesClock) {
  net::SimNetwork net(1);
  net.EnableLatency(/*base_us=*/100, /*jitter_us=*/50, /*local_us=*/1);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  for (Key k = 0; k < 50; ++k) net.Send(Message(0, 1, KeyedAction(k)));
  net.Send(Message(1, 1, KeyedAction(999)));  // local: tiny latency
  EXPECT_EQ(net.NowUs(), 0u);
  ASSERT_TRUE(net.Step());
  // The local message (1µs) beats every remote one (>=100µs).
  EXPECT_EQ(r1.SenderKeys(1).size(), 1u);
  EXPECT_GE(net.NowUs(), 1u);
  EXPECT_LT(net.NowUs(), 100u);
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1000)));
  EXPECT_GE(net.NowUs(), 100u) << "clock advanced past the base latency";
  // Per-channel FIFO survives the jitter (arrivals are clamped).
  auto keys = r1.SenderKeys(0);
  ASSERT_EQ(keys.size(), 50u);
  for (Key k = 0; k < 50; ++k) EXPECT_EQ(keys[k], k);
}

TEST(SimNetworkLatency, DeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    net::SimNetwork net(seed);
    net.EnableLatency(200, 100);
    Recorder r0, r1;
    net.Register(0, &r0);
    net.Register(1, &r1);
    for (Key k = 0; k < 30; ++k) {
      net.Send(Message(0, 1, KeyedAction(k)));
      net.Send(Message(1, 0, KeyedAction(100 + k)));
    }
    net.WaitQuiescent(std::chrono::milliseconds(1000));
    return net.NowUs();
  };
  EXPECT_EQ(run(9), run(9));
}

/// Tallies the fault outcomes the scheduler reports, split by link kind.
class FaultTally : public net::DeliveryObserver {
 public:
  void OnDelivery(const Message& m, net::DeliveryOutcome outcome) override {
    if (m.from == m.to) {
      if (outcome != net::DeliveryOutcome::kDeliver) ++self_faults;
    } else if (outcome == net::DeliveryOutcome::kDrop) {
      ++remote_drops;
    } else if (outcome == net::DeliveryOutcome::kDuplicate) {
      ++remote_dups;
    }
  }
  void OnCrash(ProcessorId) override {}
  void OnRestart(ProcessorId) override {}

  uint64_t self_faults = 0;
  uint64_t remote_drops = 0;
  uint64_t remote_dups = 0;
};

// Latency mode takes its faults from the same plan as queue mode: every
// self-send is delivered, and each remote drop or duplicate is a
// scheduling decision the observer sees.
TEST(SimNetworkLatency, FaultPlanSparesSelfSendsAndReportsEveryFault) {
  net::FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.1;
  plan.seed = 5;
  net::FaultInjector faults(plan, /*processors=*/2);
  FaultTally tally;
  net::SimNetwork net(3);
  net.EnableLatency(/*base_us=*/100, /*jitter_us=*/50);
  net.SetFaultInjector(&faults);
  net.SetObserver(&tally);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  constexpr Key kCount = 200;
  for (Key k = 0; k < kCount; ++k) {
    net.Send(Message(0, 1, KeyedAction(k)));
    net.Send(Message(1, 1, KeyedAction(1000 + k)));
  }
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1000)));
  EXPECT_EQ(r1.SenderKeys(1).size(), kCount) << "self-sends are never faulted";
  EXPECT_EQ(tally.self_faults, 0u);
  EXPECT_GT(faults.dropped(), 0u);
  EXPECT_GT(faults.duplicated(), 0u);
  EXPECT_EQ(tally.remote_drops, faults.dropped());
  EXPECT_EQ(tally.remote_dups, faults.duplicated());
  EXPECT_EQ(r1.SenderKeys(0).size(),
            kCount - faults.dropped() + faults.duplicated());
}

/// One delivery call as the receiver saw it: the destination and each
/// message's (sender, first key), in batch order.
struct Batch {
  ProcessorId to = kInvalidProcessor;
  std::vector<std::pair<ProcessorId, Key>> messages;
  bool operator==(const Batch&) const = default;
};

/// Appends every DeliverBatch call of the receivers sharing `log` to it,
/// then runs `on_batch` (if set) with the destination.
class BatchLog : public net::Receiver {
 public:
  BatchLog(ProcessorId id, std::vector<Batch>* log) : id_(id), log_(log) {}

  void Deliver(Message) override { ADD_FAILURE() << "latency mode batches"; }
  void DeliverBatch(std::vector<Message>& batch) override {
    Batch b{id_, {}};
    for (const Message& m : batch) {
      b.messages.emplace_back(m.from, m.actions.front().key);
    }
    log_->push_back(std::move(b));
    if (on_batch) on_batch();
  }

  std::function<void()> on_batch;

 private:
  ProcessorId id_;
  std::vector<Batch>* log_;
};

/// A latency-mode sim of `n` BatchLog receivers with fixed remote latency
/// 10 µs (no jitter) and local latency 1 µs.
struct TickFixture {
  explicit TickFixture(ProcessorId n, uint64_t jitter_us = 0) : net(1) {
    net.EnableLatency(/*base_us=*/10, jitter_us, /*local_us=*/1);
    for (ProcessorId p = 0; p < n; ++p) {
      sinks.push_back(std::make_unique<BatchLog>(p, &log));
    }
    for (ProcessorId p = 0; p < n; ++p) net.Register(p, sinks[p].get());
  }
  void Send(ProcessorId from, ProcessorId to, Key k) {
    net.Send(Message(from, to, KeyedAction(k)));
  }

  net::SimNetwork net;
  std::vector<Batch> log;
  std::vector<std::unique_ptr<BatchLog>> sinks;
};

// All of a tick's arrivals at one processor form one batch in seq order,
// whichever channel they came on; the tick's other destination waits for
// the next Step.
TEST(SimNetworkTick, SameTickArrivalsToOneProcessorFormOneBatch) {
  TickFixture f(3);
  f.Send(0, 2, 1);
  f.Send(1, 2, 2);
  f.Send(2, 1, 3);
  f.Send(0, 2, 4);
  ASSERT_TRUE(f.net.Step());
  EXPECT_EQ(f.net.NowUs(), 10u);
  ASSERT_EQ(f.log.size(), 1u);
  EXPECT_EQ(f.log[0], (Batch{2, {{0, 1}, {1, 2}, {0, 4}}}));
  EXPECT_EQ(f.net.Pending(), 1u);
  ASSERT_TRUE(f.net.Step());
  EXPECT_EQ(f.net.NowUs(), 10u) << "the tick's other destination";
  EXPECT_EQ(f.log[1], (Batch{1, {{2, 3}}}));
  EXPECT_FALSE(f.net.Step());
  EXPECT_EQ(f.net.delivered(), 4u) << "delivered() counts messages";
}

// Ticks deliver in arrival order; within one, destinations go in the
// order of their first message's seq.
TEST(SimNetworkTick, OtherTicksAndDestinationsArriveInSeparateBatches) {
  TickFixture f(3);
  f.Send(0, 1, 1);  // remote: tick 10
  f.Send(2, 2, 2);  // local: tick 1
  f.Send(1, 1, 3);  // local: tick 1
  f.Send(0, 2, 4);  // remote: tick 10
  f.Send(2, 1, 5);  // remote: tick 10
  ASSERT_TRUE(f.net.WaitQuiescent(std::chrono::milliseconds(1)));
  const std::vector<Batch> expected = {
      {2, {{2, 2}}},
      {1, {{1, 3}}},
      {1, {{0, 1}, {2, 5}}},
      {2, {{0, 4}}},
  };
  EXPECT_EQ(f.log, expected);
}

// Per-channel FIFO holds through jitter and batching.
TEST(SimNetworkTick, PerChannelFifoHoldsAcrossBatches) {
  TickFixture f(4, /*jitter_us=*/5);
  for (Key k = 0; k < 100; ++k) {
    for (ProcessorId p = 0; p < 3; ++p) f.Send(p, 3, k);
  }
  ASSERT_TRUE(f.net.WaitQuiescent(std::chrono::milliseconds(1)));
  std::map<ProcessorId, std::vector<Key>> at3;
  size_t multi = 0;
  for (const Batch& b : f.log) {
    if (b.messages.size() > 1) ++multi;
    for (const auto& [from, k] : b.messages) at3[from].push_back(k);
  }
  EXPECT_GT(multi, 0u) << "same-tick arrivals were batched";
  std::vector<Key> sent;
  for (Key k = 0; k < 100; ++k) sent.push_back(k);
  for (ProcessorId p = 0; p < 3; ++p) EXPECT_EQ(at3[p], sent) << "p" << p;
}

// A delivery's own sends land in a later tick, even a self-send to the
// processor whose batch is running.
TEST(SimNetworkTick, SendsDuringABatchNeverJoinIt) {
  TickFixture f(2);
  bool replied = false;
  f.sinks[1]->on_batch = [&] {
    if (replied) return;
    replied = true;
    f.Send(1, 1, 7);
    f.Send(0, 1, 8);
  };
  f.Send(0, 1, 1);
  f.Send(0, 1, 2);
  ASSERT_TRUE(f.net.WaitQuiescent(std::chrono::milliseconds(1)));
  const std::vector<Batch> expected = {
      {1, {{0, 1}, {0, 2}}},
      {1, {{1, 7}}},  // tick 11
      {1, {{0, 8}}},  // tick 20
  };
  EXPECT_EQ(f.log, expected);
}

/// Records every delivery decision the scheduler reports.
class OutcomeLog : public net::DeliveryObserver {
 public:
  void OnDelivery(const Message& m, net::DeliveryOutcome outcome) override {
    seen.emplace_back(m.actions.front().key, outcome);
  }
  void OnCrash(ProcessorId) override {}
  void OnRestart(ProcessorId) override {}

  std::vector<std::pair<Key, net::DeliveryOutcome>> seen;
};

// Each message's fate is its own: the observer sees every one, and a
// duplicate is delivered twice, adjacent, inside its batch.
TEST(SimNetworkTick, ObserverSeesEveryMessageAndDuplicatesDeliverTwice) {
  net::FaultPlan plan;
  plan.duplicate = 1.0;
  net::FaultInjector faults(plan, /*processors=*/2);
  OutcomeLog outcomes;
  TickFixture f(2);
  f.net.SetFaultInjector(&faults);
  f.net.SetObserver(&outcomes);
  f.Send(0, 1, 1);
  f.Send(1, 1, 2);  // local: never faulted, an earlier tick
  f.Send(0, 1, 3);
  ASSERT_TRUE(f.net.WaitQuiescent(std::chrono::milliseconds(1)));
  using net::DeliveryOutcome;
  const std::vector<std::pair<Key, DeliveryOutcome>> expected_outcomes = {
      {2, DeliveryOutcome::kDeliver},
      {1, DeliveryOutcome::kDuplicate},
      {3, DeliveryOutcome::kDuplicate},
  };
  EXPECT_EQ(outcomes.seen, expected_outcomes);
  const std::vector<Batch> expected = {
      {1, {{1, 2}}},
      {1, {{0, 1}, {0, 1}, {0, 3}, {0, 3}}},
  };
  EXPECT_EQ(f.log, expected);
  EXPECT_EQ(f.net.delivered(), 5u);
}

// A crashed destination's messages are dropped one by one as its batch
// would be built, so a crash during an earlier Step of the same tick
// still keeps them out.
TEST(SimNetworkTick, CrashedDestinationMessagesNeverJoinABatch) {
  OutcomeLog outcomes;
  TickFixture f(3);
  f.net.SetObserver(&outcomes);
  f.net.Crash(2);
  f.Send(0, 2, 1);
  f.Send(0, 1, 2);
  f.Send(1, 2, 3);
  ASSERT_TRUE(f.net.Step());
  EXPECT_TRUE(f.log.empty()) << "every message of p2's batch dropped";
  ASSERT_TRUE(f.net.Step());
  EXPECT_EQ(f.log, (std::vector<Batch>{{1, {{0, 2}}}}));

  // p1's batch crashes p0, whose share of the tick comes next.
  f.net.Restart(2);
  f.sinks[1]->on_batch = [&f] { f.net.Crash(0); };
  f.Send(2, 1, 4);
  f.Send(2, 0, 5);
  f.Send(1, 0, 6);
  ASSERT_TRUE(f.net.WaitQuiescent(std::chrono::milliseconds(1)));
  EXPECT_EQ(f.log.size(), 2u);
  EXPECT_EQ(f.log.back(), (Batch{1, {{2, 4}}}));
  using net::DeliveryOutcome;
  const std::vector<std::pair<Key, DeliveryOutcome>> expected_outcomes = {
      {1, DeliveryOutcome::kCrashDrop}, {3, DeliveryOutcome::kCrashDrop},
      {2, DeliveryOutcome::kDeliver},   {4, DeliveryOutcome::kDeliver},
      {5, DeliveryOutcome::kCrashDrop}, {6, DeliveryOutcome::kCrashDrop},
  };
  EXPECT_EQ(outcomes.seen, expected_outcomes);
  EXPECT_EQ(f.net.delivered(), 2u);
}

// A tick of more than kMaxBatch messages to one processor is split.
TEST(SimNetworkTick, OversizedTickSplitsAtMaxBatch) {
  TickFixture f(2);
  for (Key k = 0; k <= net::kMaxBatch; ++k) f.Send(0, 1, k);
  ASSERT_TRUE(f.net.WaitQuiescent(std::chrono::milliseconds(1)));
  ASSERT_EQ(f.log.size(), 2u);
  EXPECT_EQ(f.log[0].messages.size(), net::kMaxBatch);
  EXPECT_EQ(f.log[0].messages.front().second, 0u);
  EXPECT_EQ(f.log[1], (Batch{1, {{0, net::kMaxBatch}}}));
  EXPECT_EQ(f.net.NowUs(), 10u) << "both batches are one tick";
}

/// Keys delivered over link 0->1 of a fresh `Net` whose links follow
/// `plan`, with no reliable layer to hide the faults.
template <typename Net>
std::vector<Key> KeysOverLossyLink(const net::FaultPlan& plan, Key count) {
  net::FaultInjector faults(plan, /*processors=*/2);
  Recorder r0, r1;
  Net net;
  net.SetFaultInjector(&faults);
  net.Register(0, &r0);
  net.Register(1, &r1);
  net.Start();
  for (Key k = 0; k < count; ++k) net.Send(Message(0, 1, KeyedAction(k)));
  EXPECT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(10000)));
  net.Stop();
  return r1.SenderKeys(0);
}

// One plan, one fault sequence: the sim decides at delivery and threads
// at send, but both index a link's messages in FIFO order, so the same
// plan drops, duplicates and partitions the same messages on both.
TEST(FaultInjector, SamePlanSameFaultsOnBothTransports) {
  net::FaultPlan plan;
  plan.drop = 0.1;
  plan.duplicate = 0.1;
  plan.seed = 17;
  plan.partitions.push_back({.a = 1, .b = 0, .start = 50, .length = 20});
  constexpr Key kCount = 500;
  std::vector<Key> sim = KeysOverLossyLink<net::SimNetwork>(plan, kCount);
  std::vector<Key> threads =
      KeysOverLossyLink<net::ThreadNetwork>(plan, kCount);
  EXPECT_EQ(sim, threads);
  // The plan really bit: the window blackholed 50..69, and random drops
  // and duplicates both happened elsewhere.
  std::map<Key, int> seen;
  for (Key k : sim) ++seen[k];
  for (Key k = 50; k < 70; ++k) EXPECT_EQ(seen.count(k), 0u) << k;
  size_t dropped = 0;
  size_t duplicated = 0;
  for (Key k = 0; k < kCount; ++k) {
    if (k >= 50 && k < 70) continue;
    if (seen[k] == 0) ++dropped;
    if (seen[k] == 2) ++duplicated;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
}

}  // namespace
}  // namespace lazytree
