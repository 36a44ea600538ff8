// Transport conformance suite: every Network implementation must honor
// the paper's §4 assumption — reliable, exactly-once, per-(from,to) FIFO
// delivery — plus the repo's own contract extensions (reentrant Send from
// Deliver, WaitQuiescent). Runs against the zero-copy ThreadNetwork and
// SimNetwork, so a transport rewrite cannot silently weaken any of them —
// and against both base transports made lossy by a FaultInjector (5% drop
// + 5% duplicate) under ReliableNetwork, which must restore the exact same
// contract over the lossy links.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/faults.h"
#include "src/net/reliable.h"
#include "src/net/sim_network.h"
#include "src/net/thread_network.h"

namespace lazytree {
namespace {

enum class TransportUnderTest {
  kSim,
  kThread,
  kSimLossy,     // lossy Sim base + ReliableNetwork (virtual timers)
  kThreadLossy,  // lossy Thread base + ReliableNetwork (real timers)
};

const char* TransportName(TransportUnderTest t) {
  switch (t) {
    case TransportUnderTest::kSim: return "Sim";
    case TransportUnderTest::kThread: return "Thread";
    case TransportUnderTest::kSimLossy: return "SimLossy";
    case TransportUnderTest::kThreadLossy: return "ThreadLossy";
  }
  return "?";
}

net::FaultPlan LossyPlan() {
  net::FaultPlan plan;
  plan.drop = 0.05;
  plan.duplicate = 0.05;
  plan.seed = 11;
  return plan;
}

/// Most processors any conformance case registers.
constexpr ProcessorId kMaxProcs = 16;

/// The lossy stack under test: a base transport whose links a
/// FaultInjector breaks, and a ReliableNetwork restoring the §4 contract
/// on top. Declaration order is destruction-order-critical (reverse of
/// wrapping).
class LossyTransport : public net::Network {
 public:
  template <typename Base>
  LossyTransport(std::unique_ptr<Base> base, bool real_timers)
      : faulty_(std::make_unique<net::FaultInjector>(LossyPlan(),
                                                     kMaxProcs)) {
    base->SetFaultInjector(faulty_.get());
    base_ = std::move(base);
    reliable_ = std::make_unique<net::ReliableNetwork>(
        base_.get(), net::ReliabilityOptions{}, real_timers);
  }

  void Register(ProcessorId id, net::Receiver* receiver) override {
    reliable_->Register(id, receiver);
  }
  ProcessorId size() const override { return reliable_->size(); }
  void Send(Message m) override { reliable_->Send(std::move(m)); }
  void Start() override { reliable_->Start(); }
  void Stop() override { reliable_->Stop(); }
  bool WaitQuiescent(std::chrono::milliseconds timeout) override {
    return reliable_->WaitQuiescent(timeout);
  }
  net::NetworkStats& stats() override { return reliable_->stats(); }

  net::FaultInjector& faulty() { return *faulty_; }
  net::ReliableNetwork& reliable() { return *reliable_; }

 private:
  std::unique_ptr<net::FaultInjector> faulty_;
  std::unique_ptr<net::Network> base_;
  std::unique_ptr<net::ReliableNetwork> reliable_;
};

std::unique_ptr<net::Network> MakeTransport(TransportUnderTest t) {
  switch (t) {
    case TransportUnderTest::kSim:
      return std::make_unique<net::SimNetwork>(7);
    case TransportUnderTest::kThread:
      return std::make_unique<net::ThreadNetwork>();
    case TransportUnderTest::kSimLossy:
      return std::make_unique<LossyTransport>(
          std::make_unique<net::SimNetwork>(7), /*real_timers=*/false);
    case TransportUnderTest::kThreadLossy:
      return std::make_unique<LossyTransport>(
          std::make_unique<net::ThreadNetwork>(),
          /*real_timers=*/true);
  }
  return nullptr;
}

bool IsThreaded(TransportUnderTest t) {
  return t == TransportUnderTest::kThread ||
         t == TransportUnderTest::kThreadLossy;
}

bool IsLossy(TransportUnderTest t) {
  return t == TransportUnderTest::kSimLossy ||
         t == TransportUnderTest::kThreadLossy;
}

/// Thread-safe sink recording (from, key) sequences and total count.
class Recorder : public net::Receiver {
 public:
  void Deliver(Message m) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Action& a : m.actions) {
      by_sender_[m.from].push_back(a.key);
      ++total_;
    }
    if (bouncer_) bouncer_(m);
  }

  /// Installs a hook invoked under the lock for every delivered message.
  void SetHook(std::function<void(const Message&)> hook) {
    bouncer_ = std::move(hook);
  }

  std::vector<Key> SenderKeys(ProcessorId from) {
    std::lock_guard<std::mutex> lock(mu_);
    return by_sender_[from];
  }
  size_t total() {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

 private:
  std::mutex mu_;
  std::function<void(const Message&)> bouncer_;
  std::map<ProcessorId, std::vector<Key>> by_sender_;
  size_t total_ = 0;
};

Action KeyedAction(Key k) {
  Action a;
  a.kind = ActionKind::kSearch;
  a.key = k;
  return a;
}

class TransportConformanceTest
    : public ::testing::TestWithParam<TransportUnderTest> {};

TEST_P(TransportConformanceTest, FifoPerOrderedPairExactlyOnce) {
  auto net = MakeTransport(GetParam());
  constexpr ProcessorId kProcs = 4;
  constexpr Key kPerChannel = 300;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (ProcessorId id = 0; id < kProcs; ++id) {
    sinks.push_back(std::make_unique<Recorder>());
    net->Register(id, sinks.back().get());
  }
  net->Start();
  // Every ordered pair (including self-sends) gets its own key sequence.
  for (Key k = 0; k < kPerChannel; ++k) {
    for (ProcessorId from = 0; from < kProcs; ++from) {
      for (ProcessorId to = 0; to < kProcs; ++to) {
        net->Send(Message(from, to, KeyedAction(k * 1000 + from)));
      }
    }
  }
  ASSERT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(10000)));
  for (ProcessorId to = 0; to < kProcs; ++to) {
    EXPECT_EQ(sinks[to]->total(), kPerChannel * kProcs) << "exactly-once";
    for (ProcessorId from = 0; from < kProcs; ++from) {
      auto keys = sinks[to]->SenderKeys(from);
      ASSERT_EQ(keys.size(), kPerChannel);
      for (Key k = 0; k < kPerChannel; ++k) {
        ASSERT_EQ(keys[k], k * 1000 + from)
            << "FIFO broken on p" << from << "->p" << to << " at " << k;
      }
    }
  }
  net->Stop();
}

TEST_P(TransportConformanceTest, ReentrantSendFromDeliver) {
  auto net = MakeTransport(GetParam());
  Recorder r0, r1;
  net->Register(0, &r0);
  net->Register(1, &r1);
  // Ping-pong: each delivery below the limit sends key+1 back.
  auto bounce = [&](const Message& m) {
    for (const Action& a : m.actions) {
      if (a.key < 200) net->Send(Message(m.to, m.from, KeyedAction(a.key + 1)));
    }
  };
  r0.SetHook(bounce);
  r1.SetHook(bounce);
  net->Start();
  net->Send(Message(0, 1, KeyedAction(0)));
  ASSERT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(10000)));
  // Keys 0..199 bounce; the final key==200 message arrives unbounced.
  EXPECT_EQ(r0.total() + r1.total(), 201u);
  net->Stop();
}

TEST_P(TransportConformanceTest, QuiescenceUnderSendStorm) {
  auto net = MakeTransport(GetParam());
  constexpr int kSenders = 16;
  constexpr Key kPerSender = 400;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (ProcessorId id = 0; id < kSenders; ++id) {
    sinks.push_back(std::make_unique<Recorder>());
    net->Register(id, sinks.back().get());
  }
  net->Start();
  auto send_all = [&](int s) {
    for (Key k = 0; k < kPerSender; ++k) {
      net->Send(Message(static_cast<ProcessorId>(s),
                        static_cast<ProcessorId>((s + 1 + k) % kSenders),
                        KeyedAction(k)));
    }
  };
  if (IsThreaded(GetParam())) {
    // 16 real producer threads hammer Send concurrently while workers
    // drain; WaitQuiescent must only return true once every message has
    // been fully handled.
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) senders.emplace_back(send_all, s);
    for (auto& t : senders) t.join();
  } else {
    for (int s = 0; s < kSenders; ++s) send_all(s);
  }
  ASSERT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(20000)));
  size_t total = 0;
  for (auto& sink : sinks) total += sink->total();
  EXPECT_EQ(total, static_cast<size_t>(kSenders) * kPerSender);
  // Quiescence is stable: nothing new shows up afterwards.
  EXPECT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(10)));
  net->Stop();
}

TEST_P(TransportConformanceTest, SendDuringStopIsAccounted) {
  if (!IsThreaded(GetParam()) || IsLossy(GetParam())) {
    GTEST_SKIP() << "bare thread transport only: the reliable layer cannot "
                    "settle windows whose acks died with the transport";
  }
  auto net = MakeTransport(GetParam());
  Recorder r0, r1;
  net->Register(0, &r0);
  net->Register(1, &r1);
  net->Start();
  std::atomic<bool> stop_senders{false};
  // Race Send against Stop: sends that hit a closed inbox must still be
  // retired from the inflight accounting (the PR-2 shutdown-race fix),
  // so a later WaitQuiescent returns true instead of hanging.
  std::thread sender([&] {
    Key k = 0;
    while (!stop_senders.load(std::memory_order_relaxed)) {
      net->Send(Message(0, 1, KeyedAction(k++)));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net->Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop_senders.store(true);
  sender.join();
  EXPECT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(5000)))
      << "messages dropped at shutdown leaked inflight accounting";
}

TEST_P(TransportConformanceTest, StatsCountRemoteAndLocal) {
  if (IsLossy(GetParam())) {
    GTEST_SKIP() << "lossy stack: retransmits and acks make exact message "
                    "counts fault-schedule-dependent (see "
                    "LossyRecoveryIsObservable)";
  }
  auto net = MakeTransport(GetParam());
  Recorder r0, r1;
  net->Register(0, &r0);
  net->Register(1, &r1);
  net->Start();
  net->Send(Message(0, 1, KeyedAction(5)));
  net->Send(Message(1, 1, KeyedAction(6)));  // self-send = local
  ASSERT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(5000)));
  auto snap = net->stats().Snapshot();
  EXPECT_EQ(snap.remote_messages, 1u);
  EXPECT_EQ(snap.local_messages, 1u);
  // No transport counts bytes; wire_test pins the encoded sizes.
  EXPECT_EQ(snap.remote_bytes, 0u);
  EXPECT_EQ(snap.ActionCount(ActionKind::kSearch), 2u);
  net->Stop();
}

TEST_P(TransportConformanceTest, LossyRecoveryIsObservable) {
  if (!IsLossy(GetParam())) GTEST_SKIP() << "lossy stack only";
  auto net = MakeTransport(GetParam());
  auto* lossy = static_cast<LossyTransport*>(net.get());
  constexpr ProcessorId kProcs = 3;
  constexpr Key kRounds = 300;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (ProcessorId id = 0; id < kProcs; ++id) {
    sinks.push_back(std::make_unique<Recorder>());
    net->Register(id, sinks.back().get());
  }
  // Ping-pong on every ordered pair: replies are reverse data traffic, so
  // cumulative acks ride them (piggybacked) instead of pure-ack frames.
  auto bounce = [&](const Message& m) {
    for (const Action& a : m.actions) {
      if (a.key < kRounds) {
        net->Send(Message(m.to, m.from, KeyedAction(a.key + 1)));
      }
    }
  };
  for (auto& sink : sinks) sink->SetHook(bounce);
  net->Start();
  for (ProcessorId from = 0; from < kProcs; ++from) {
    for (ProcessorId to = 0; to < kProcs; ++to) {
      if (from != to) net->Send(Message(from, to, KeyedAction(0)));
    }
  }
  ASSERT_TRUE(net->WaitQuiescent(std::chrono::milliseconds(20000)));
  // Recovery was real: the fault layer injected, the reliable layer paid.
  EXPECT_GT(lossy->faulty().dropped(), 0u);
  EXPECT_GT(lossy->faulty().duplicated(), 0u);
  auto snap = net->stats().Snapshot();
  EXPECT_GT(snap.retransmits, 0u) << "drops must force retransmissions";
  EXPECT_GT(snap.duplicates_dropped, 0u)
      << "injected duplicates must be suppressed by the dedup window";
  EXPECT_GT(snap.acks_piggybacked, 0u);
  EXPECT_EQ(snap.link_down, 0u) << "no link may die at 5% loss";
  // And the contract still held: exactly-once despite all of the above.
  // Each ordered pair's chain delivers keys 0..kRounds exactly once.
  for (ProcessorId to = 0; to < kProcs; ++to) {
    EXPECT_EQ(sinks[to]->total(), (kRounds + 1) * (kProcs - 1));
  }
  net->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportConformanceTest,
    ::testing::Values(TransportUnderTest::kSim,
                      TransportUnderTest::kThread,
                      TransportUnderTest::kSimLossy,
                      TransportUnderTest::kThreadLossy),
    [](const ::testing::TestParamInfo<TransportUnderTest>& param_info) {
      return TransportName(param_info.param);
    });

}  // namespace
}  // namespace lazytree
