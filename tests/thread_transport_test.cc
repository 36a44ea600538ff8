// End-to-end runs on the thread-backed transport: genuine parallelism,
// multiple client threads, all protocols, history checks at quiescence;
// and the client edge: ops handed to a worker through its lock-free queue.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "src/net/thread_network.h"
#include "src/server/queue_manager.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;

ClusterOptions ThreadOptions(ProtocolKind protocol, uint32_t processors) {
  ClusterOptions o;
  o.processors = processors;
  o.protocol = protocol;
  o.transport = TransportKind::kThreads;
  o.tree.max_entries = 16;
  o.tree.track_history = true;
  return o;
}

class ThreadedProtocolTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ThreadedProtocolTest, ParallelClientsConverge) {
  Cluster cluster(ThreadOptions(GetParam(), 6));
  cluster.Start();
  Oracle oracle;

  constexpr int kClients = 4;
  constexpr int kPerClient = 1500;
  std::vector<Key> keys = RandomKeys(kClients * kPerClient, 77);
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, k + 3).ok());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Key k = keys[c * kPerClient + i];
        Status s = cluster.Insert(static_cast<ProcessorId>(c % 6), k,
                                  k + 3);
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);

  // Parallel readers next: every key visible from every processor.
  std::vector<std::thread> readers;
  std::atomic<int> misses{0};
  for (int c = 0; c < kClients; ++c) {
    readers.emplace_back([&, c] {
      for (int i = c; i < kClients * kPerClient; i += kClients * 7) {
        auto r = cluster.Search(static_cast<ProcessorId>(i % 6), keys[i]);
        if (!r.ok() || *r != keys[i] + 3) misses.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(misses.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ThreadedProtocolTest,
    ::testing::Values(ProtocolKind::kSemiSyncSplit, ProtocolKind::kSyncSplit,
                      ProtocolKind::kVigorous, ProtocolKind::kMobile,
                      ProtocolKind::kVarCopies),
    [](const ::testing::TestParamInfo<ProtocolKind>& pinfo) {
      return std::string(ProtocolKindName(pinfo.param));
    });

TEST(ThreadTransport, PiggybackedClusterStaysCorrect) {
  ClusterOptions o = ThreadOptions(ProtocolKind::kSemiSyncSplit, 5);
  o.piggyback_window = 16;
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(4000, 11);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < keys.size(); i += 4) {
        cluster.Insert(static_cast<ProcessorId>(i % 5), keys[i], 1);
      }
    });
  }
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, 1).ok());
  for (auto& t : clients) t.join();
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  EXPECT_GT(cluster.history_log().RecordCount(), 0u);
}

TEST(ThreadTransport, DeletesAndScansFromParallelClients) {
  Cluster cluster(ThreadOptions(ProtocolKind::kVarCopies, 4));
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(4000, 21);
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, k).ok());
  std::vector<std::thread> writers;
  for (int c = 0; c < 4; ++c) {
    writers.emplace_back([&, c] {
      for (size_t i = c; i < keys.size(); i += 4) {
        cluster.Insert(static_cast<ProcessorId>(c), keys[i], keys[i]);
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(cluster.Settle());
  // Parallel deleters remove disjoint slices while scanners read.
  std::atomic<int> scan_failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = c; i < keys.size() / 2; i += 2) {
        cluster.Delete(static_cast<ProcessorId>(c), keys[i]);
      }
    });
  }
  for (int c = 2; c < 4; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(77 + c);
      for (int i = 0; i < 200; ++i) {
        auto r = cluster.Scan(static_cast<ProcessorId>(c),
                              rng.Range(1, 1u << 30), 20);
        if (!r.ok()) scan_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    ASSERT_TRUE(oracle.Delete(keys[i]).ok());
  }
  EXPECT_EQ(scan_failures.load(), 0);
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

TEST(ThreadTransport, MobileMigrationsRaceRealThreads) {
  ClusterOptions o = ThreadOptions(ProtocolKind::kMobile, 4);
  o.tree.shed_threshold = 6;  // online shedding during the run
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(5000, 13);
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, 2).ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < keys.size(); i += 4) {
        cluster.Insert(static_cast<ProcessorId>(c), keys[i], 2);
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

// --- Client edge: Network::SubmitLocal on ThreadNetwork ---

ClientOp SearchOp(ProcessorId p, OpId op) {
  ClientOp c;
  c.kind = ActionKind::kSearch;
  c.origin = p;
  c.op = op;
  return c;
}

// Records the op ids of delivered actions, in delivery order.
class OpRecorder : public net::Receiver {
 public:
  void Deliver(Message m) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Action& a : m.actions) ops_.push_back(a.op);
  }
  std::vector<OpId> ops() {
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }
  size_t count() { return ops().size(); }

 private:
  std::mutex mu_;
  std::vector<OpId> ops_;
};

bool WaitFor(const std::function<bool()>& done,
             std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ClientQueue, TwoProducersEachKeepTheirOwnOrder) {
  net::ThreadNetwork net;
  OpRecorder recorder;
  net.Register(0, &recorder);
  net.Start();
  constexpr uint32_t kPerProducer = 20000;
  std::vector<std::thread> producers;
  for (uint32_t p = 1; p <= 2; ++p) {
    producers.emplace_back([&net, p] {
      for (uint32_t seq = 1; seq <= kPerProducer; ++seq) {
        net.SubmitLocal(0, SearchOp(0, MakeOpId(p, seq)));
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::seconds(30)));
  const std::vector<OpId> ops = recorder.ops();
  ASSERT_EQ(ops.size(), 2 * kPerProducer);
  uint32_t last[3] = {0, 0, 0};
  for (OpId op : ops) {
    const ProcessorId p = OpOrigin(op);
    ASSERT_EQ(static_cast<uint32_t>(op), last[p] + 1)
        << "producer " << p << " out of order";
    last[p] = static_cast<uint32_t>(op);
  }
  EXPECT_EQ(net.stats().Snapshot().local_messages, 2 * kPerProducer);
}

// The worker parks with no deadline (this receiver has no timers), so an
// op whose wake is lost is never delivered. Varied pauses land the push
// before, during and after the worker's spin-then-park.
TEST(ClientQueue, OpSubmittedToAParkedWorkerIsDeliveredPromptly) {
  net::ThreadNetwork net;
  OpRecorder recorder;
  net.Register(0, &recorder);
  net.Start();
  for (uint32_t i = 1; i <= 300; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds((i % 16) * 50));
    net.SubmitLocal(0, SearchOp(0, MakeOpId(0, i)));
    ASSERT_TRUE(WaitFor([&] { return recorder.count() == i; },
                        std::chrono::seconds(5)))
        << "op " << i << " not delivered: lost wake";
  }
}

TEST(ClientQueue, SettleNeverReturnsWhileAnOpIsQueued) {
  Cluster cluster(ThreadOptions(ProtocolKind::kSemiSyncSplit, 2));
  cluster.Start();
  std::atomic<int> completed{0};
  for (int i = 0; i < 300; ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 2), 1000 + i, 1,
                        [&](const OpResult&) {
                          completed.fetch_add(1, std::memory_order_relaxed);
                        });
    ASSERT_TRUE(cluster.Settle());
    ASSERT_EQ(completed.load(std::memory_order_relaxed), i + 1);
  }
}

// Counts the ops that reach the network's client edge.
class EdgeCountingNetwork : public net::ThreadNetwork {
 public:
  void SubmitLocal(ProcessorId p, const ClientOp& op) override {
    submits.fetch_add(1, std::memory_order_relaxed);
    ThreadNetwork::SubmitLocal(p, op);
  }
  std::atomic<int> submits{0};
};

// Delivers inside an outbox scope, as Processor does; the first delivered
// op resubmits a second one from the worker thread.
class ResubmittingReceiver : public net::Receiver {
 public:
  explicit ResubmittingReceiver(QueueManager* out) : out_(out) {}
  void Deliver(Message m) override {
    out_->BeginCombine();
    for (const Action& a : m.actions) {
      ops.push_back(a.op);
      if (a.op == MakeOpId(0, 1)) {
        out_->SubmitClient(SearchOp(0, MakeOpId(0, 2)));
      }
    }
    out_->EndCombine();
  }
  std::vector<OpId> ops;  // worker thread only, read at quiescence

 private:
  QueueManager* out_;
};

TEST(ClientQueue, WorkerThreadSubmitToItsOwnProcessorUsesTheOutbox) {
  EdgeCountingNetwork net;
  QueueManager out(0, &net);
  ResubmittingReceiver receiver(&out);
  net.Register(0, &receiver);
  net.Start();
  out.SubmitClient(SearchOp(0, MakeOpId(0, 1)));  // client thread
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::seconds(10)));
  EXPECT_EQ(receiver.ops,
            (std::vector<OpId>{MakeOpId(0, 1), MakeOpId(0, 2)}));
  EXPECT_EQ(net.submits.load(), 1) << "the in-scope submit left the outbox";
  EXPECT_EQ(net.stats().Snapshot().local_messages, 2u);
}

TEST(ClientQueue, OpsPushedAfterStopAreCountedAsHandled) {
  net::ThreadNetwork net;
  OpRecorder recorder;
  net.Register(0, &recorder);
  net.Start();
  net.SubmitLocal(0, SearchOp(0, MakeOpId(0, 1)));
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::seconds(10)));
  net.Stop();
  for (uint32_t i = 2; i < 100; ++i) {
    net.SubmitLocal(0, SearchOp(0, MakeOpId(0, i)));
  }
  net.Send(Message(0, 0, SearchOp(0, MakeOpId(0, 100)).ToAction()));
  EXPECT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(0)));
  EXPECT_EQ(recorder.count(), 1u);
}

// Holds the worker in its first delivery until the gate opens, so the
// messages sent meanwhile wait in the inbox.
class GatedRecorder : public OpRecorder {
 public:
  explicit GatedRecorder(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}
  void Deliver(Message m) override {
    gate_.wait();
    OpRecorder::Deliver(std::move(m));
  }

 private:
  std::shared_future<void> gate_;
};

TEST(ThreadTransport, StopDeliversWhatTheInboxHolds) {
  net::ThreadNetwork net;
  std::promise<void> open;
  GatedRecorder recorder(open.get_future().share());
  net.Register(0, &recorder);
  net.Start();
  // Far past the inbox ring's first size: Stop finds grown rings.
  constexpr uint32_t kQueued = 1000;
  for (uint32_t i = 1; i <= kQueued; ++i) {
    net.Send(Message(0, 0, SearchOp(0, MakeOpId(0, i)).ToAction()));
  }
  std::thread stopper([&net] { net.Stop(); });
  // Stop closes the queues, then waits for the held worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  open.set_value();
  stopper.join();
  net.Send(Message(0, 0, SearchOp(0, MakeOpId(0, kQueued + 1)).ToAction()));
  EXPECT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(0)))
      << "every message is delivered or retired";
  const std::vector<OpId> ops = recorder.ops();
  ASSERT_EQ(ops.size(), kQueued) << "what the inbox held at Stop arrives";
  for (uint32_t i = 0; i < kQueued; ++i) {
    EXPECT_EQ(ops[i], MakeOpId(0, i + 1));
  }
}

}  // namespace
}  // namespace lazytree
