// QueueManager unit tests (src/server/queue_manager.h).
//
// The outbox sits between every protocol handler and the network, so its
// routing rules are load-bearing for both correctness and the perf
// numbers: nested scopes must flush exactly once at the outermost close,
// an empty scope must send nothing, ownership must hand off cleanly
// between consecutive batches (including across threads, as when the
// worker pool recycles), the per-(from,to) FIFO contract must survive
// combined flushes interleaved with direct sends from other threads, and
// piggybacked relays must wait for direct traffic, the window, or Settle.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/server/queue_manager.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

/// Records every Send in arrival order; no delivery, no threads.
class RecordingNetwork : public net::Network {
 public:
  void Register(ProcessorId, net::Receiver*) override {}
  ProcessorId size() const override { return 4; }
  void Send(Message m) override { sent.push_back(std::move(m)); }
  void Start() override {}
  void Stop() override {}
  bool WaitQuiescent(std::chrono::milliseconds) override { return true; }

  std::vector<Message> sent;
};

Action SearchFor(uint64_t key) {
  Action a;
  a.kind = ActionKind::kSearch;
  a.key = key;
  return a;
}

Action RelayFor(uint64_t key) {
  Action a;
  a.kind = ActionKind::kRelayedInsert;
  a.key = key;
  return a;
}

/// One delivery scope that emits `action` toward `dest`.
void DeliverySending(QueueManager& qm, ProcessorId dest, Action action) {
  qm.BeginCombine();
  qm.SendAction(dest, std::move(action));
  qm.EndCombine();
}

// Nested Begin/EndCombine: only the outermost EndCombine flushes, and the
// inner scopes' actions ride in the same per-destination message.
TEST(QueueManager, NestedCombineScopesFlushOnceAtOutermostClose) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();  // batch scope
  qm.SendAction(1, SearchFor(10));
  qm.BeginCombine();  // per-message scope
  qm.SendAction(1, SearchFor(11));
  qm.SendAction(2, SearchFor(12));
  qm.EndCombine();
  EXPECT_TRUE(net.sent.empty()) << "inner close must not flush";
  qm.SendAction(2, SearchFor(13));
  qm.EndCombine();

  ASSERT_EQ(net.sent.size(), 2u);  // one message per destination
  EXPECT_EQ(net.sent[0].to, 1u);   // first-touch order: dest 1 before 2
  ASSERT_EQ(net.sent[0].actions.size(), 2u);
  EXPECT_EQ(net.sent[0].actions[0].key, 10u);
  EXPECT_EQ(net.sent[0].actions[1].key, 11u);
  EXPECT_EQ(net.sent[1].to, 2u);
  ASSERT_EQ(net.sent[1].actions.size(), 2u);
  EXPECT_EQ(net.sent[1].actions[0].key, 12u);
  EXPECT_EQ(net.sent[1].actions[1].key, 13u);
  EXPECT_EQ(net.stats().Snapshot().combined_actions, 2u)
      << "4 actions in 2 messages = 2 combined";
}

// A combine scope that buffered nothing must close silently: no empty
// messages on the wire, no combining stats.
TEST(QueueManager, FlushWithZeroBufferedActionsSendsNothing) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.EndCombine();

  EXPECT_TRUE(net.sent.empty());
  EXPECT_EQ(net.stats().Snapshot().combined_actions, 0u);

  // And the manager still works normally afterwards.
  qm.SendAction(3, SearchFor(7));
  ASSERT_EQ(net.sent.size(), 1u);
  EXPECT_EQ(net.sent[0].to, 3u);
}

// Consecutive batches, each owned by a different thread (as when a worker
// pool hands the processor to another worker): the scope owner must hand
// off so the second batch combines for its own thread, and each batch
// flushes its own actions exactly once.
TEST(QueueManager, OwnerThreadHandoffAcrossConsecutiveBatches) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  auto run_batch = [&](uint64_t base) {
    qm.BeginCombine();
    qm.SendAction(1, SearchFor(base));
    qm.SendAction(1, SearchFor(base + 1));
    qm.EndCombine();
  };

  std::thread first([&] { run_batch(100); });
  first.join();
  std::thread second([&] { run_batch(200); });
  second.join();

  ASSERT_EQ(net.sent.size(), 2u);
  ASSERT_EQ(net.sent[0].actions.size(), 2u);
  EXPECT_EQ(net.sent[0].actions[0].key, 100u);
  ASSERT_EQ(net.sent[1].actions.size(), 2u);
  EXPECT_EQ(net.sent[1].actions[0].key, 200u);
}

// After EndCombine resets the owner, the same thread's sends go direct
// again — the combining path must not leak past the scope.
TEST(QueueManager, SendsGoDirectOutsideScope) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.SendAction(1, SearchFor(1));
  qm.EndCombine();
  qm.SendAction(1, SearchFor(2));
  qm.SendAction(1, SearchFor(3));

  ASSERT_EQ(net.sent.size(), 3u);
  EXPECT_EQ(net.sent[0].actions.size(), 1u);  // the flushed scope
  EXPECT_EQ(net.sent[1].actions.size(), 1u);  // direct
  EXPECT_EQ(net.sent[2].actions.size(), 1u);  // direct
}

// FIFO with a client thread interleaved: while the owner combines, a
// non-owner thread's SendAction must bypass the buffers (it can never
// match combine_owner_) and its message lands on the wire immediately —
// before the owner's flush. The owner's buffered actions still leave in
// submission order within their message, so per-sender order holds for
// both parties.
TEST(QueueManager, CombinedFlushInterleavedWithDirectSendsKeepsFifo) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.SendAction(1, SearchFor(10));  // buffered by the owner
  std::thread client([&] {
    qm.SendAction(1, SearchFor(99));  // direct: client is not the owner
  });
  client.join();
  qm.SendAction(1, SearchFor(11));  // buffered after the direct send
  qm.EndCombine();

  ASSERT_EQ(net.sent.size(), 2u);
  // The client's direct message hit the network first...
  ASSERT_EQ(net.sent[0].actions.size(), 1u);
  EXPECT_EQ(net.sent[0].actions[0].key, 99u);
  // ...and the owner's combined message preserves its submission order.
  ASSERT_EQ(net.sent[1].actions.size(), 2u);
  EXPECT_EQ(net.sent[1].actions[0].key, 10u);
  EXPECT_EQ(net.sent[1].actions[1].key, 11u);
}

// Broadcast inside a scope buffers per destination and skips self.
TEST(QueueManager, BroadcastInsideScopeBuffersPerDestinationSkippingSelf) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net);

  qm.BeginCombine();
  qm.Broadcast({0, 1, 2}, SearchFor(5));
  qm.Broadcast({1, 2}, SearchFor(6));
  qm.EndCombine();

  ASSERT_EQ(net.sent.size(), 2u);
  for (const Message& m : net.sent) {
    EXPECT_NE(m.to, 0u) << "self must be skipped";
    ASSERT_EQ(m.actions.size(), 2u);
    EXPECT_EQ(m.actions[0].key, 5u);
    EXPECT_EQ(m.actions[1].key, 6u);
  }
}

// Relays emitted by separate deliveries stay in the outbox; the next
// delivery that sends direct traffic to the same destination carries them,
// in order, ahead of its own action — one message on the wire.
TEST(QueueManagerOutbox, DefersRelaysUntilDirectTraffic) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net, /*piggyback_window=*/16);
  for (uint64_t k = 0; k < 5; ++k) DeliverySending(qm, 1, RelayFor(k));
  EXPECT_EQ(qm.deferred(), 5u);
  EXPECT_TRUE(net.sent.empty()) << "relays held, not sent";

  DeliverySending(qm, 1, SearchFor(99));
  EXPECT_EQ(qm.deferred(), 0u);
  ASSERT_EQ(net.sent.size(), 1u) << "one combined message";
  const Message& m = net.sent[0];
  EXPECT_EQ(m.from, 0u);
  EXPECT_EQ(m.to, 1u);
  ASSERT_EQ(m.actions.size(), 6u);
  for (uint64_t k = 0; k < 5; ++k) {
    EXPECT_EQ(m.actions[k].key, k) << "relay order kept";
  }
  EXPECT_EQ(m.actions[5].key, 99u) << "direct action rides last";
  EXPECT_EQ(net.stats().Snapshot().piggybacked_actions, 5u);
}

// Reaching the window sends the held relays as one standalone message.
TEST(QueueManagerOutbox, WindowForcesStandaloneFlush) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net, /*piggyback_window=*/4);
  for (uint64_t k = 0; k < 3; ++k) DeliverySending(qm, 1, RelayFor(k));
  EXPECT_EQ(qm.deferred(), 3u);
  EXPECT_TRUE(net.sent.empty());
  DeliverySending(qm, 1, RelayFor(3));
  EXPECT_EQ(qm.deferred(), 0u) << "window reached: flushed";
  ASSERT_EQ(net.sent.size(), 1u);
  EXPECT_EQ(net.sent[0].actions.size(), 4u);
}

// TakeDeferred (what Cluster::Settle calls at quiescence) empties every
// destination's held relays into one message each, in relay order, and
// sends nothing itself.
TEST(QueueManagerOutbox, TakeDeferredEmptiesHeldRelays) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net, /*piggyback_window=*/64);
  for (uint64_t k = 0; k < 10; ++k) {
    DeliverySending(qm, 1 + k % 2, RelayFor(k));
  }
  EXPECT_EQ(qm.deferred(), 10u);
  std::vector<Message> held;
  qm.TakeDeferred(&held);
  EXPECT_EQ(qm.deferred(), 0u);
  EXPECT_TRUE(net.sent.empty()) << "the caller sends";
  ASSERT_EQ(held.size(), 2u);
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].from, 0u);
    EXPECT_EQ(held[i].to, 1u + i);
    ASSERT_EQ(held[i].actions.size(), 5u);
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(held[i].actions[j].key, i + 2 * j) << "relay order kept";
    }
  }
  qm.TakeDeferred(&held);
  EXPECT_EQ(held.size(), 2u) << "nothing left to take";
}

// Window 0: no deferral — a relay leaves when its delivery ends.
TEST(QueueManagerOutbox, ZeroWindowPassesThrough) {
  RecordingNetwork net;
  QueueManager qm(/*self=*/0, &net, /*piggyback_window=*/0);
  DeliverySending(qm, 1, RelayFor(1));
  EXPECT_EQ(qm.deferred(), 0u);
  ASSERT_EQ(net.sent.size(), 1u);
  EXPECT_EQ(net.sent[0].actions.size(), 1u);
}

// End to end on a cluster: with replicated leaves every insert relays to
// the other copy. Running the sim to network quiescence alone leaves
// relays held in the outboxes across many deliveries — the replicas have
// not seen them yet — and Settle sends them, reaches quiescence again,
// and passes the §3 checks.
TEST(QueueManagerOutbox, RelaysHeldAcrossDeliveriesUntilSettle) {
  ClusterOptions o =
      testing::SimOptions(ProtocolKind::kSemiSyncSplit, 3, /*seed=*/5,
                          /*fanout=*/64);
  o.tree.leaf_replication = 2;
  o.piggyback_window = 100000;
  Cluster cluster(std::move(o));
  cluster.Start();
  int completed = 0;
  for (Key k = 1; k <= 20; ++k) {
    cluster.InsertAsync(static_cast<ProcessorId>(k % 3), k, k,
                        [&](const OpResult& r) {
                          EXPECT_TRUE(r.status.ok());
                          ++completed;
                        });
  }
  ASSERT_TRUE(
      cluster.network().WaitQuiescent(std::chrono::milliseconds(1000)));
  EXPECT_EQ(completed, 20) << "ops complete without waiting for relays";
  size_t held = 0;
  for (ProcessorId p = 0; p < cluster.size(); ++p) {
    held += cluster.processor(p).out().deferred();
  }
  EXPECT_EQ(held, 20u) << "one relay per insert, all still held";
  EXPECT_GT(cluster.sim()->delivered(), 20u);

  ASSERT_TRUE(cluster.Settle());
  for (ProcessorId p = 0; p < cluster.size(); ++p) {
    EXPECT_EQ(cluster.processor(p).out().deferred(), 0u);
  }
  testing::ExpectCorrect(cluster);
  for (Key k = 1; k <= 20; ++k) {
    auto v = cluster.Search(static_cast<ProcessorId>((k + 1) % 3), k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(*v, k);
  }
}

}  // namespace
}  // namespace lazytree
