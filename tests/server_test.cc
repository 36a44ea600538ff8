// Server-runtime unit tests: AAS registry, operation tracker, queue
// manager routing, processor id allocation and bookkeeping.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/net/sim_network.h"
#include "src/server/aas.h"
#include "src/server/op_tracker.h"
#include "src/server/processor.h"
#include "src/server/queue_manager.h"
#include "src/util/logging.h"

namespace lazytree {
namespace {

NodeId Id(uint32_t seq) { return NodeId::Make(0, seq); }

TEST(AasRegistry, BeginDeferEndRoundTrip) {
  AasRegistry aas;
  EXPECT_FALSE(aas.Active(Id(1)));
  aas.Begin(Id(1));
  EXPECT_TRUE(aas.Active(Id(1)));
  EXPECT_FALSE(aas.Active(Id(2)));

  Action a;
  a.kind = ActionKind::kInsert;
  a.key = 5;
  aas.Defer(Id(1), a);
  a.key = 6;
  aas.Defer(Id(1), a);
  EXPECT_EQ(aas.DeferredCount(Id(1)), 2u);

  std::vector<Action> drained = aas.End(Id(1));
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].key, 5u) << "arrival order preserved";
  EXPECT_EQ(drained[1].key, 6u);
  EXPECT_FALSE(aas.Active(Id(1)));
  EXPECT_EQ(aas.DeferredCount(Id(1)), 0u);
}

TEST(AasRegistry, IndependentNodes) {
  AasRegistry aas;
  aas.Begin(Id(1));
  aas.Begin(Id(2));
  EXPECT_EQ(aas.ActiveCount(), 2u);
  EXPECT_TRUE(aas.End(Id(1)).empty());
  EXPECT_TRUE(aas.Active(Id(2)));
}

TEST(OpTracker, BeginCompleteLifecycle) {
  OpTracker tracker(3);
  OpResult seen;
  OpId op = tracker.Begin([&](const OpResult& r) { seen = r; });
  EXPECT_EQ(OpOrigin(op), 3u);
  EXPECT_EQ(tracker.Outstanding(), 1u);

  OpResult result;
  result.op = op;
  result.status = Status::OK();
  result.value = 99;
  tracker.Complete(result);
  EXPECT_EQ(seen.value, 99u);
  EXPECT_EQ(tracker.Outstanding(), 0u);
  EXPECT_EQ(tracker.completed(), 1u);

  // Duplicate / unknown completions are ignored, not fatal.
  tracker.Complete(result);
  EXPECT_EQ(tracker.completed(), 1u);
}

TEST(OpTracker, DistinctIdsPerOperation) {
  OpTracker tracker(1);
  OpId a = tracker.Begin([](const OpResult&) {});
  OpId b = tracker.Begin([](const OpResult&) {});
  EXPECT_NE(a, b);
  EXPECT_EQ(tracker.Outstanding(), 2u);
}

OpResult ResultFor(OpId op) {
  OpResult result;
  result.op = op;
  result.status = Status::OK();
  return result;
}

TEST(OpTracker, IdsStaySequentialAcrossGrowth) {
  OpTracker tracker(2);
  for (uint32_t seq = 1; seq <= 40; ++seq) {
    EXPECT_EQ(tracker.Begin([](const OpResult&) {}), MakeOpId(2, seq));
  }
  EXPECT_EQ(tracker.Outstanding(), 40u);
}

TEST(OpTracker, StragglerOutlivingAFullTableCompletesOnce) {
  OpTracker tracker(1);
  int straggler_calls = 0;
  const OpId straggler =
      tracker.Begin([&](const OpResult&) { ++straggler_calls; });
  // Far more later ops than the first table holds, each completed before
  // the next begins: every lap lands on the straggler's slot again.
  int later_calls = 0;
  for (uint32_t seq = 2; seq <= 300; ++seq) {
    const OpId op = tracker.Begin([&](const OpResult&) { ++later_calls; });
    ASSERT_EQ(op, MakeOpId(1, seq));
    tracker.Complete(ResultFor(op));
  }
  EXPECT_EQ(later_calls, 299);
  EXPECT_EQ(tracker.Outstanding(), 1u);
  tracker.Complete(ResultFor(straggler));
  tracker.Complete(ResultFor(straggler));
  EXPECT_EQ(straggler_calls, 1);
  EXPECT_EQ(tracker.completed(), 300u);
  EXPECT_EQ(tracker.Outstanding(), 0u);
}

TEST(OpTracker, DuplicateAndUnknownCompletionsAreIgnored) {
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // each ignored completion warns
  OpTracker tracker(1);
  int calls = 0;
  const OpId op = tracker.Begin([&](const OpResult&) { ++calls; });
  tracker.Complete(ResultFor(MakeOpId(1, 7)));  // never begun
  tracker.Complete(ResultFor(MakeOpId(0, 1)));  // another processor's
  tracker.Complete(ResultFor(kNoOp));
  EXPECT_EQ(calls, 0);
  tracker.Complete(ResultFor(op));
  tracker.Complete(ResultFor(op));  // duplicate
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(tracker.completed(), 1u);
  EXPECT_EQ(tracker.FailAllPending(Status::Unavailable("x")), 0u);
  SetLogLevel(level);
}

TEST(OpTracker, FailAllPendingSkipsFinishedOpsAndFailsInIdOrder) {
  OpTracker tracker(0);
  std::vector<OpId> failed;
  std::vector<OpId> ops;
  for (int i = 0; i < 6; ++i) {
    ops.push_back(tracker.Begin([&](const OpResult& r) {
      if (r.status.code() == StatusCode::kUnavailable) failed.push_back(r.op);
    }));
  }
  tracker.Complete(ResultFor(ops[0]));
  tracker.Complete(ResultFor(ops[3]));
  EXPECT_EQ(tracker.FailAllPending(Status::Unavailable("down")), 4u);
  EXPECT_EQ(failed, (std::vector<OpId>{ops[1], ops[2], ops[4], ops[5]}));
  EXPECT_EQ(tracker.Outstanding(), 0u);
}

// A completion on the owning worker racing Cluster::OnLinkDown's
// FailAllPending on another worker: each callback runs exactly once, and
// each op is counted once. Rounds of a few ops keep both threads on the
// same slots at the same moment.
TEST(OpTracker, FailAllPendingRacingCompleteRunsEachCallbackOnce) {
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // the loser's completions warn
  constexpr int kRounds = 4000;
  constexpr int kOps = 4;
  OpTracker tracker(0);
  std::vector<std::atomic<int>> calls(kRounds * kOps);
  std::vector<OpId> ids(kRounds * kOps);
  std::atomic<int> round_go{-1};
  std::atomic<int> done{0};
  std::thread completer([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (round_go.load(std::memory_order_acquire) < r) {
      }
      for (int i = 0; i < kOps; ++i) {
        tracker.Complete(ResultFor(ids[r * kOps + i]));
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  std::thread failer([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (round_go.load(std::memory_order_acquire) < r) {
      }
      tracker.FailAllPending(Status::Unavailable("link down"));
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kOps; ++i) {
      const int n = r * kOps + i;
      ids[n] = tracker.Begin([&calls, n](const OpResult&) {
        calls[n].fetch_add(1, std::memory_order_relaxed);
      });
    }
    round_go.store(r, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < 2 * (r + 1)) {
    }
  }
  completer.join();
  failer.join();
  SetLogLevel(level);
  int wrong = 0;
  for (auto& c : calls) wrong += c.load() != 1;
  EXPECT_EQ(wrong, 0) << "callbacks not run exactly once";
  EXPECT_EQ(tracker.completed(), static_cast<uint64_t>(kRounds * kOps));
  EXPECT_EQ(tracker.Outstanding(), 0u);
}

class CountingReceiver : public net::Receiver {
 public:
  void Deliver(Message m) override { count += m.actions.size(); }
  size_t count = 0;
};

TEST(QueueManager, RoutesLocalAndRemote) {
  net::SimNetwork net(1);
  CountingReceiver r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  QueueManager qm(0, &net);
  Action a;
  a.kind = ActionKind::kSearch;
  qm.SendLocal(a);
  qm.SendAction(1, a);
  qm.Broadcast({0, 1}, a);  // skips self
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1000)));
  EXPECT_EQ(r0.count, 1u) << "local + broadcast-skip-self";
  EXPECT_EQ(r1.count, 2u);
  auto stats = net.stats().Snapshot();
  EXPECT_EQ(stats.local_messages, 1u);
  EXPECT_EQ(stats.remote_messages, 2u);
}

TEST(Processor, IdAllocatorsAreUniqueAndCreatorTagged) {
  net::SimNetwork net(1);
  history::HistoryLog log(false);
  TreeConfig config;
  Processor p(0, 1, &net, &log, config);
  NodeId n1 = p.NewNodeId();
  NodeId n2 = p.NewNodeId();
  EXPECT_NE(n1, n2);
  EXPECT_EQ(n1.creator(), 0u);
  UpdateId u1 = p.NewUpdateId();
  UpdateId u2 = p.NewUpdateId();
  EXPECT_NE(u1, u2);
}

TEST(Processor, InstallAndRemoveTrackHistory) {
  net::SimNetwork net(1);
  history::HistoryLog log(true);
  TreeConfig config;
  Processor p(0, 1, &net, &log, config);
  auto node = std::make_unique<Node>(Id(5), 0, KeyRange{}, true);
  node->NoteApplied(77);
  p.InstallNode(std::move(node));
  auto copies = log.Copies();
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(copies.begin()->second.inherited.size(), 1u);
  EXPECT_TRUE(copies.begin()->second.live);
  p.RemoveNode(Id(5));
  EXPECT_FALSE(log.Copies().begin()->second.live);
}

/// Forwards every action it handles to processor `dest`.
class ForwardingHandler : public ProtocolHandler {
 public:
  ForwardingHandler(Processor* p, ProcessorId dest) : p_(p), dest_(dest) {}
  void Handle(Action action) override {
    p_->out().SendAction(dest_, std::move(action));
  }

 private:
  Processor* p_;
  ProcessorId dest_;
};

/// Counts the messages and actions delivered to it.
class MessageCounter : public net::Receiver {
 public:
  void Deliver(Message m) override {
    ++messages;
    actions += m.actions.size();
  }
  size_t messages = 0;
  size_t actions = 0;
};

// On the latency-mode sim a processor handles one tick's arrivals in one
// outbox scope, as a threads worker handles one drained batch: two
// messages arriving in one tick whose handlers both send to one peer
// leave as one message. Arrivals in different ticks do not fuse.
TEST(Processor, SameTickArrivalsSendToOnePeerAsOneMessage) {
  net::SimNetwork net(1);
  net.EnableLatency(/*base_us=*/10, /*jitter_us=*/0);
  history::HistoryLog log(false);
  TreeConfig config;
  Processor p0(0, 3, &net, &log, config);
  p0.SetHandler(std::make_unique<ForwardingHandler>(&p0, 2));
  MessageCounter p1, p2;
  net.Register(1, &p1);
  net.Register(2, &p2);
  Action a;
  a.kind = ActionKind::kSearch;
  net.Send(Message(1, 0, a));
  net.Send(Message(2, 0, a));
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1)));
  EXPECT_EQ(p2.messages, 1u);
  EXPECT_EQ(p2.actions, 2u);
  EXPECT_EQ(net.stats().Snapshot(0).combined_actions, 1u);
  EXPECT_EQ(net.stats().Snapshot(0).remote_messages, 1u);

  net.Send(Message(1, 0, a));
  ASSERT_TRUE(net.Step());
  net.Send(Message(1, 0, a));  // sent one tick later, arrives one later
  ASSERT_TRUE(net.WaitQuiescent(std::chrono::milliseconds(1)));
  EXPECT_EQ(p2.messages, 3u);
  EXPECT_EQ(p2.actions, 4u);
  EXPECT_EQ(net.stats().Snapshot(0).combined_actions, 1u);
}

}  // namespace
}  // namespace lazytree
