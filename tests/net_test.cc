// Transport tests: the paper's network assumption (reliable, exactly-once,
// per-channel FIFO) on both implementations; sim determinism; quiescence
// detection.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>

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

TEST(NetworkStats, CountsRemoteLocalAndBytes) {
  net::SimNetwork net(1);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  net.Send(Message(0, 1, KeyedAction(5)));
  net.Send(Message(1, 1, KeyedAction(6)));  // self-send = local
  auto snap = net.stats().Snapshot();
  EXPECT_EQ(snap.remote_messages, 1u);
  EXPECT_EQ(snap.local_messages, 1u);
  EXPECT_GT(snap.remote_bytes, 0u);
  EXPECT_EQ(snap.ActionCount(ActionKind::kSearch), 2u);
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
