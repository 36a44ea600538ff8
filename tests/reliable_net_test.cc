// Nasty-edge tests for the reliable-delivery layer (net/reliable.h) and
// its interaction with fault injection (net/faults.h) and the cluster:
//
//   * dedup-window wraparound at sequence-number overflow,
//   * the cumulative ack riding the last in-flight (reverse) message,
//   * a retransmission racing the original's late delivery,
//   * selective repeat: scripted drops resend only the holes, at once,
//     only the timer path spends the retransmit budget, and the timer
//     guards the window head,
//   * a partition window healing in the middle of a leaf split,
//   * bounded retransmit budget: link-down fails pending ops with a
//     retriable status instead of hanging Settle(),
//   * on real threads, Settle arming a retransmit deadline from outside
//     the owning worker, which must wake it,
//   * fault-bearing episode traces recording byte-for-byte identically
//     and replaying without divergence.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/net/faults.h"
#include "src/net/reliable.h"
#include "src/net/sim_network.h"
#include "src/sim/explorer.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

/// Records (from, key) sequences; optional reply hook for reverse traffic.
class Recorder : public net::Receiver {
 public:
  void Deliver(Message m) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Action& a : m.actions) {
      keys_.push_back(a.key);
      ++total_;
    }
    if (hook_) hook_(m);
  }
  void SetHook(std::function<void(const Message&)> hook) {
    hook_ = std::move(hook);
  }
  std::vector<Key> keys() {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }
  size_t total() {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

 private:
  std::mutex mu_;
  std::function<void(const Message&)> hook_;
  std::vector<Key> keys_;
  size_t total_ = 0;
};

Action KeyedAction(Key k) {
  Action a;
  a.kind = ActionKind::kSearch;
  a.key = k;
  return a;
}

/// Network decorator over the sim that scripts the fate of data frames at
/// send time: a scripted frame is dropped, or held back until Release()
/// sends it behind everything queued meanwhile (a late original).
class ScriptedLinks : public net::Network {
 public:
  explicit ScriptedLinks(net::Network* base) : base_(base) {}

  /// Drops the first `copies` sends (original first) of `from`'s seq.
  void Drop(ProcessorId from, uint64_t seq, int copies = 1) {
    drops_[{from, seq}] = copies;
  }
  /// Holds the original send of `from`'s seq until Release().
  void Hold(ProcessorId from, uint64_t seq) { holds_[{from, seq}] = 1; }
  void Release() {
    for (Message& m : held_) base_->Send(std::move(m));
    held_.clear();
  }
  /// The receiver the layer above registered for `id`.
  net::Receiver* receiver(ProcessorId id) { return receivers_.at(id); }

  void Register(ProcessorId id, net::Receiver* receiver) override {
    receivers_[id] = receiver;
    base_->Register(id, receiver);
  }
  ProcessorId size() const override { return base_->size(); }
  void Send(Message m) override {
    if (!(m.flags & Message::kAckOnly)) {
      if (int& left = drops_[{m.from, m.seq}]; left > 0) {
        --left;
        return;
      }
      if (int& left = holds_[{m.from, m.seq}]; left > 0) {
        --left;
        held_.push_back(std::move(m));
        return;
      }
    }
    base_->Send(std::move(m));
  }
  void Start() override { base_->Start(); }
  void Stop() override { base_->Stop(); }
  bool WaitQuiescent(std::chrono::milliseconds timeout) override {
    return base_->WaitQuiescent(timeout);
  }
  net::NetworkStats& stats() override { return base_->stats(); }

 private:
  net::Network* base_;
  std::map<ProcessorId, net::Receiver*> receivers_;
  std::map<std::pair<ProcessorId, uint64_t>, int> drops_, holds_;
  std::vector<Message> held_;
};

/// Sends keys 1..count from p0 to p1; channel seqs start at 1, so key k
/// rides seq k.
void SendKeys(net::ReliableNetwork& reliable, Key count) {
  for (Key k = 1; k <= count; ++k) {
    reliable.Send(Message(0, 1, KeyedAction(k)));
  }
}

void ExpectKeysInOrder(Recorder& r, Key count) {
  const std::vector<Key> keys = r.keys();
  ASSERT_EQ(keys.size(), count);
  for (Key k = 1; k <= count; ++k) EXPECT_EQ(keys[k - 1], k);
}

/// Options under which any retransmission-timer firing takes the link
/// down, and the first one is due at exactly virtual `rto_us`.
net::ReliabilityOptions NoTimerOptions() {
  net::ReliabilityOptions ropt;
  ropt.jitter_us = 0;
  ropt.max_retransmits = 0;
  return ropt;
}

// ---------------------------------------------------------------------------
// Sequence overflow: the dedup window and the reorder buffer must survive
// next_seq wrapping past UINT64_MAX, because both compare sequence numbers
// with serial arithmetic, not magnitude.
TEST(ReliableNetTest, DedupWindowSurvivesSequenceWraparound) {
  net::FaultPlan plan;
  plan.drop = 0.25;      // force retransmissions across the wrap
  plan.duplicate = 0.5;  // force dedup decisions across the wrap
  plan.seed = 3;
  net::FaultInjector faulty(plan, /*processors=*/2);
  net::SimNetwork sim(7);
  sim.SetFaultInjector(&faulty);
  net::ReliabilityOptions ropt;
  ropt.initial_seq = UINT64_MAX - 3;  // wrap after four sends
  net::ReliableNetwork reliable(&sim, ropt, /*real_timers=*/false);

  Recorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();
  constexpr Key kCount = 16;
  for (Key k = 0; k < kCount; ++k) {
    reliable.Send(Message(0, 1, KeyedAction(k)));
  }
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(10000)));

  // The fault layer really misbehaved...
  EXPECT_GT(faulty.dropped() + faulty.duplicated(), 0u);
  // ...and exactly-once FIFO still held across the numeric wrap.
  auto keys = r1.keys();
  ASSERT_EQ(keys.size(), kCount);
  for (Key k = 0; k < kCount; ++k) EXPECT_EQ(keys[k], k);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// ---------------------------------------------------------------------------
// Ack piggybacking: when the receiver happens to send reverse data while
// its delayed ack is still pending, the ack must ride that message — the
// last in-flight frame — instead of waiting for the pure-ack timer.
TEST(ReliableNetTest, AckRidesLastInflightReverseMessage) {
  net::SimNetwork sim(7);
  net::ReliableNetwork reliable(&sim, net::ReliabilityOptions{},
                                /*real_timers=*/false);

  Recorder r0, r1;
  // Every delivery at p1 answers with one reverse message.
  r1.SetHook([&](const Message& m) {
    reliable.Send(Message(1, 0, KeyedAction(m.actions.front().key + 100)));
  });
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  reliable.Send(Message(0, 1, KeyedAction(1)));
  ASSERT_TRUE(sim.Step());  // deliver the data; the hook sends the reply
  EXPECT_EQ(reliable.stats().Snapshot().acks_piggybacked, 1u)
      << "the pending ack must ride the reply, not a pure-ack frame";

  ASSERT_TRUE(sim.Step());  // deliver the reply: its ack empties 0->1
  EXPECT_EQ(reliable.Unacked(), 1u) << "only the reply itself is unacked";

  // Drain: the reply's own ack is the only remaining timer work.
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  EXPECT_EQ(reliable.Unacked(), 0u);
  EXPECT_EQ(r0.total(), 1u);
  EXPECT_EQ(r1.total(), 1u);
  reliable.Stop();
}

// ---------------------------------------------------------------------------
// Retransmit vs late original: fire the retransmission timer while the
// original is still sitting undelivered in the base transport, so both
// copies are in flight on the same channel. Exactly one may surface.
TEST(ReliableNetTest, RetransmitRacingLateOriginalIsDeduped) {
  net::SimNetwork sim(7);
  net::ReliableNetwork reliable(&sim, net::ReliabilityOptions{},
                                /*real_timers=*/false);
  Recorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  reliable.Send(Message(0, 1, KeyedAction(7)));
  // The original is queued in the simulator, "late". Advance the virtual
  // clock to the retransmission deadline: a second copy joins it.
  ASSERT_TRUE(reliable.Pump());
  EXPECT_EQ(reliable.stats().Snapshot().retransmits, 1u);

  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  EXPECT_EQ(r1.total(), 1u) << "exactly one of the two copies delivers";
  EXPECT_EQ(reliable.stats().Snapshot().duplicates_dropped, 1u);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// ---------------------------------------------------------------------------
// Selective repeat: one frame lost in a window of 8. The receiver's gap
// ack reports the frames it holds past the hole, and the sender resends
// the hole alone, at once: one retransmission, and the window drains
// before the retransmission timer could first fire (go-back-N waits for
// it and resends the rest of the window).
TEST(ReliableNetTest, OneDropInWindowResendsOnlyTheHoleBeforeTimeout) {
  net::SimNetwork sim(7);
  ScriptedLinks links(&sim);
  links.Drop(0, 3);
  const net::ReliabilityOptions ropt = NoTimerOptions();
  net::ReliableNetwork reliable(&links, ropt, /*real_timers=*/false);
  Recorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  SendKeys(reliable, 8);
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  const net::StatsSnapshot snap = reliable.stats().Snapshot();
  EXPECT_EQ(snap.retransmits, 1u);
  EXPECT_EQ(snap.duplicates_dropped, 0u);
  EXPECT_LT(reliable.VirtualNowUs(), ropt.rto_us);
  EXPECT_FALSE(reliable.AnyLinkDown()) << "the timer fired";
  ExpectKeysInOrder(r1, 8);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// Two holes in one window: one selective ack reports both, and both are
// fast-retransmitted; the timer never fires.
TEST(ReliableNetTest, TwoDropsInWindowResendTwoWithoutTimeout) {
  net::SimNetwork sim(7);
  ScriptedLinks links(&sim);
  links.Drop(0, 3);
  links.Drop(0, 6);
  const net::ReliabilityOptions ropt = NoTimerOptions();
  net::ReliableNetwork reliable(&links, ropt, /*real_timers=*/false);
  Recorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  SendKeys(reliable, 8);
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  EXPECT_EQ(reliable.stats().Snapshot().retransmits, 2u);
  EXPECT_LT(reliable.VirtualNowUs(), ropt.rto_us);
  EXPECT_FALSE(reliable.AnyLinkDown()) << "the timer fired";
  ExpectKeysInOrder(r1, 8);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// A hole further than 64 frames behind held frames: seq 1 is lost twice
// (its original and its fast retransmit) while 2..80 arrive. The gap ack
// can report only 2..65, so the timer recovers the hole, and it resends
// only the frames not known held: seq 1 and 66..80, never 2..65.
TEST(ReliableNetTest, HoleBeyondSackReachIsRecoveredByTimerResendingUnheld) {
  net::SimNetwork sim(7);
  ScriptedLinks links(&sim);
  links.Drop(0, 1, /*copies=*/2);
  net::ReliabilityOptions ropt;
  ropt.jitter_us = 0;
  net::ReliableNetwork reliable(&links, ropt, /*real_timers=*/false);
  Recorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  SendKeys(reliable, 80);
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  const net::StatsSnapshot snap = reliable.stats().Snapshot();
  EXPECT_EQ(snap.retransmits, 1u + 16u) << "one fast, then 1 + 66..80";
  EXPECT_EQ(snap.duplicates_dropped, 15u) << "66..80 arrived twice";
  EXPECT_GE(reliable.VirtualNowUs(), ropt.rto_us) << "the timer recovered";
  EXPECT_FALSE(reliable.AnyLinkDown());
  ExpectKeysInOrder(r1, 80);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// The timer guards the window head. Seq 2 is lost twice (its original
// and its fast retransmit at virtual time 0); a later hole, seq 6, is
// fast-resent at 50. That resend must not postpone the head's timer: it
// fires at rto_us, and the final ack follows ack_delay_us later. p1's one
// frame to p2 only supplies the delayed ack that moves the clock to 50.
TEST(ReliableNetTest, LaterHoleResendDoesNotPostponeTheHeadTimer) {
  net::SimNetwork sim(7);
  ScriptedLinks links(&sim);
  links.Drop(0, 2, /*copies=*/2);
  links.Drop(0, 6);
  net::ReliabilityOptions ropt;
  ropt.jitter_us = 0;
  net::ReliableNetwork reliable(&links, ropt, /*real_timers=*/false);
  Recorder r0, r1, r2;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Register(2, &r2);
  reliable.Start();

  SendKeys(reliable, 4);
  reliable.Send(Message(1, 2, KeyedAction(100)));
  ASSERT_TRUE(sim.WaitQuiescent(std::chrono::milliseconds(1000)));
  ASSERT_TRUE(reliable.Pump());  // the gap ack, at 0
  ASSERT_TRUE(sim.WaitQuiescent(std::chrono::milliseconds(1000)));
  EXPECT_EQ(reliable.stats().Snapshot().retransmits, 1u) << "seq 2, lost";
  ASSERT_TRUE(reliable.Pump());  // p2's delayed ack to p1, at 50
  ASSERT_EQ(reliable.VirtualNowUs(), ropt.ack_delay_us);

  for (Key k = 5; k <= 8; ++k) reliable.Send(Message(0, 1, KeyedAction(k)));
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  EXPECT_EQ(reliable.stats().Snapshot().retransmits, 3u)
      << "seq 2 and 6 fast, then seq 2 alone by the timer";
  EXPECT_EQ(reliable.VirtualNowUs(), ropt.rto_us + ropt.ack_delay_us);
  ExpectKeysInOrder(r1, 8);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// A fast retransmit whose original was only late, not lost: the resend
// fills the hole, and the original, arriving last, is deduped once.
TEST(ReliableNetTest, FastResendWithLateOriginalIsDedupedOnce) {
  net::SimNetwork sim(7);
  ScriptedLinks links(&sim);
  links.Hold(0, 3);
  net::ReliableNetwork reliable(&links, net::ReliabilityOptions{},
                                /*real_timers=*/false);
  Recorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  SendKeys(reliable, 8);
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  EXPECT_EQ(reliable.stats().Snapshot().retransmits, 1u);
  ExpectKeysInOrder(r1, 8);

  links.Release();  // the original seq 3 arrives after all
  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  EXPECT_EQ(reliable.stats().Snapshot().duplicates_dropped, 1u);
  ExpectKeysInOrder(r1, 8);
  EXPECT_EQ(reliable.Unacked(), 0u);
  reliable.Stop();
}

// The held marks decide future sends, so the verifier's fingerprint must
// tell apart two states that differ only in them: both senders hold seqs
// 1..3 unacked with seq 1 already fast-resent, and only one has learnt
// that the peer holds seq 3.
TEST(ReliableNetTest, MixStateSeesHeldMarks) {
  const auto fingerprint = [](bool third_held) {
    net::SimNetwork sim(7);
    ScriptedLinks links(&sim);
    net::ReliableNetwork reliable(&links, net::ReliabilityOptions{},
                                /*real_timers=*/false);
    Recorder r0, r1;
    reliable.Register(0, &r0);
    reliable.Register(1, &r1);
    reliable.Start();
    SendKeys(reliable, 3);  // stays queued in the sim
    const auto sack_from_p1 = [](uint64_t sack) {
      Message ack;
      ack.from = 1;
      ack.to = 0;
      ack.flags = Message::kHasAck | Message::kAckOnly | Message::kHasSack;
      ack.ack = 0;
      ack.sack = sack;  // bit i: p1 holds seq 2 + i
      return ack;
    };
    links.receiver(0)->Deliver(sack_from_p1(0b01));
    if (third_held) links.receiver(0)->Deliver(sack_from_p1(0b11));
    EXPECT_EQ(reliable.stats().Snapshot().retransmits, 1u);
    EXPECT_EQ(reliable.Unacked(), 3u);
    Fingerprint fp;
    reliable.MixState(fp);
    return fp.digest();
  };
  EXPECT_NE(fingerprint(false), fingerprint(true));
}

// ---------------------------------------------------------------------------
// Partition healing mid-split: a send-index partition window blackholes
// the inter-processor link exactly while a leaf split's relayed traffic is
// in flight. Retransmissions burn through the window; once it heals, every
// operation completes and the §3.1 battery is green.
TEST(ReliableNetTest, PartitionHealsMidSplit) {
  ClusterOptions options;
  options.processors = 2;
  options.protocol = ProtocolKind::kSemiSyncSplit;
  options.transport = TransportKind::kSim;
  options.seed = 5;
  options.tree.max_entries = 4;       // splits arrive quickly
  options.tree.leaf_replication = 2;  // relayed lazy updates cross the link
  net::FaultPlan::Partition window;
  window.a = 0;
  window.b = 1;
  window.start = 2;  // the bootstrap traffic passes, the split hits the wall
  window.length = 4;
  options.faults.partitions.push_back(window);
  options.reliable = true;
  // Both directions of the pair carry a window, and pure acks blackholed on
  // the reverse direction keep the sender's retry counter climbing until an
  // eager re-ack finally gets through — budget for both windows.
  options.reliability.max_retransmits = 25;

  Cluster cluster(options);
  cluster.Start();
  for (Key k = 0; k < 12; ++k) {
    ASSERT_TRUE(cluster.Insert(0, k * 7 + 1, k).ok()) << "key " << k * 7 + 1;
  }
  ASSERT_TRUE(cluster.Settle());
  ASSERT_NE(cluster.faulty(), nullptr);
  ASSERT_NE(cluster.reliable(), nullptr);
  EXPECT_GT(cluster.faulty()->partitioned(), 0u)
      << "the window must actually have blackholed messages";
  auto snap = cluster.NetStats();
  EXPECT_GT(snap.retransmits, 0u) << "healing is retransmission-driven";
  EXPECT_EQ(snap.link_down, 0u) << "the window must heal within budget";
  EXPECT_FALSE(cluster.reliable()->AnyLinkDown());
  for (Key k = 0; k < 12; ++k) {
    auto found = cluster.Search(1, k * 7 + 1);
    ASSERT_TRUE(found.ok()) << "key " << k * 7 + 1;
    EXPECT_EQ(*found, k);
  }
  EXPECT_TRUE(cluster.VerifyHistories().violations.empty());
  cluster.Stop();
}

// ---------------------------------------------------------------------------
// Graceful degradation: a permanent partition exhausts the retransmit
// budget, the link is declared down, pending operations fail with the
// retriable kUnavailable status, and Settle() returns instead of hanging.
TEST(ReliableNetTest, LinkDownFailsPendingOpsWithRetriableStatus) {
  ClusterOptions options;
  options.processors = 2;
  options.protocol = ProtocolKind::kSemiSyncSplit;
  options.transport = TransportKind::kSim;
  options.seed = 5;
  options.tree.max_entries = 8;
  net::FaultPlan::Partition forever;
  forever.a = 0;
  forever.b = 1;
  forever.start = 0;
  forever.length = UINT64_MAX / 2;  // never heals
  options.faults.partitions.push_back(forever);
  options.reliable = true;
  options.reliability.max_retransmits = 3;  // die fast

  Cluster cluster(options);
  cluster.Start();
  std::vector<OpResult> results(8);
  std::vector<bool> done(8, false);
  for (Key k = 0; k < 8; ++k) {
    // Half the ops are homed at p1, whose navigation must cross the dead
    // link; the p0-homed half stays local and must keep succeeding.
    const ProcessorId home = (k < 4) ? 0 : 1;
    cluster.InsertAsync(home, k, k, [&results, &done, k](const OpResult& res) {
      results[k] = res;
      done[k] = true;
    });
  }
  EXPECT_TRUE(cluster.Settle()) << "a dead link must not hang Settle()";

  ASSERT_NE(cluster.reliable(), nullptr);
  EXPECT_TRUE(cluster.reliable()->AnyLinkDown());
  auto snap = cluster.NetStats();
  EXPECT_EQ(snap.link_down, 1u);
  EXPECT_EQ(snap.retransmits, 12u);
  size_t unavailable = 0;
  for (Key k = 0; k < 8; ++k) {
    ASSERT_TRUE(done[k]) << "op " << k << " neither completed nor failed";
    if (results[k].status.code() == StatusCode::kUnavailable) ++unavailable;
  }
  EXPECT_GT(unavailable, 0u)
      << "cross-link ops must fail retriable, not silently vanish";
  cluster.Stop();
}

// ---------------------------------------------------------------------------
// Foreign-thread deadlines: on real threads each worker fires its own
// processor's timers and parks until the next one is due. Settle sends
// the relays held in the outboxes from the caller's thread once every
// worker has parked with nothing armed — the one path that arms a parked
// worker's retransmit deadline from outside its deliveries. A flushed
// relay that is dropped comes back only if that send wakes the sending
// processor's worker (Network::Wake); otherwise Settle runs out its
// timeout. Repeated rounds of concurrent clients, each ended by Settle.
TEST(ReliableNetTest, SettleWakesWorkersParkedPastForeignDeadlines) {
  constexpr uint32_t kProcessors = 3;
  ClusterOptions options;
  options.processors = kProcessors;
  options.protocol = ProtocolKind::kSemiSyncSplit;
  options.transport = TransportKind::kThreads;
  options.seed = 41;
  options.tree.max_entries = 8;
  options.tree.leaf_replication = 2;  // every insert relays to a replica
  options.piggyback_window = 4;
  options.faults.drop = 0.2;
  options.faults.seed = 43;
  options.reliable = true;
  options.reliability.max_retransmits = 16;  // no link dies at 20% loss

  Cluster cluster(options);
  cluster.Start();
  Oracle oracle;
  constexpr int kRounds = 30;
  constexpr int kClients = 3;
  constexpr int kPerClient = 12;
  const std::vector<Key> keys =
      testing::RandomKeys(kRounds * kClients * kPerClient, 47);
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    const Key* round_keys = &keys[round * kClients * kPerClient];
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&cluster, &failures, round_keys, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const Key k = round_keys[c * kPerClient + i];
          const auto home = static_cast<ProcessorId>((c + i) % kProcessors);
          if (!cluster.Insert(home, k, k + 1).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kClients * kPerClient; ++i) {
      ASSERT_TRUE(oracle.Insert(round_keys[i], round_keys[i] + 1).ok());
    }
    ASSERT_TRUE(cluster.Settle(std::chrono::seconds(10)))
        << "round " << round << ": Settle timed out";
  }
  EXPECT_EQ(failures.load(), 0) << "an op was lost or failed";
  testing::ExpectMatchesOracle(cluster, oracle);
  const net::StatsSnapshot snap = cluster.NetStats();
  EXPECT_GT(snap.piggybacked_actions, 0u) << "no relay was held for Settle";
  EXPECT_GT(snap.retransmits, 0u);
  EXPECT_EQ(snap.link_down, 0u);
  cluster.Stop();
}

// ---------------------------------------------------------------------------
// Determinism: a fault-bearing episode under the reliable layer records
// the identical trace twice and replays without divergence — drops, dups,
// retransmissions, and virtual-timer firings are all schedulable events.
TEST(ReliableNetTest, FaultBearingTraceRecordsAndReplaysByteForByte) {
  sim::EpisodeConfig config;
  config.protocol = ProtocolKind::kSemiSyncSplit;
  config.processors = 3;
  config.seed = 11;
  config.rounds = 2;
  config.ops_per_round = 12;
  config.key_space = 64;
  config.fanout = 4;
  config.leaf_replication = 2;
  config.drop = 0.05;
  config.dup = 0.05;
  config.reliable = true;
  ASSERT_TRUE(config.clean())
      << "recovered faults hold the episode to the oracle-exact standard";

  sim::EpisodeResult first = sim::RunEpisode(config);
  sim::EpisodeResult second = sim::RunEpisode(config);
  EXPECT_TRUE(first.ok) << (first.violations.empty()
                                ? "?"
                                : first.violations.front());
  EXPECT_GT(first.trace.FaultCount(), 0u)
      << "the config must actually inject faults";
  EXPECT_EQ(first.trace.events, second.trace.events)
      << "same config, same seed => byte-identical schedule";
  EXPECT_EQ(first.trace.meta, second.trace.meta);
  auto meta = first.trace.meta.find("reliable");
  ASSERT_NE(meta, first.trace.meta.end());
  EXPECT_EQ(meta->second, "1");

  sim::EpisodeResult replayed = sim::ReplayEpisode(config, first.trace);
  EXPECT_TRUE(replayed.ok) << (replayed.violations.empty()
                                   ? "?"
                                   : replayed.violations.front());
  EXPECT_EQ(replayed.replay_diverged, 0u);
}

}  // namespace
}  // namespace lazytree
