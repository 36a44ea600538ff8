// Fail-stop crash/restart injection (sim transport).
//
// A crashed processor loses its volatile state: the network drops its
// inbound messages until restart and its local copies die (their deaths
// recorded against the history log, so §3 checking treats them as
// conceptually-retained dead state rather than violations). These tests
// crash a *non-PC* copy holder in the middle of the two structure
// changes the protocols propagate lazily — a semi-sync split and a
// varcopies join — then restart it and require the surviving state to
// pass the full §3 battery and still serve every acknowledged key.

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;
using testing::SimOptions;

size_t CountLogicalNodes(Cluster& cluster) {
  std::set<NodeId> ids;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach(
        [&](const Node& n) { ids.insert(n.id()); });
  }
  return ids.size();
}

/// The leaf covering `key`, as seen by any live copy.
const Node* FindLeafCovering(Cluster& cluster, Key key) {
  const Node* found = nullptr;
  for (ProcessorId id = 0; id < cluster.size() && !found; ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (n.is_leaf() && n.Contains(key)) found = &n;
    });
  }
  return found;
}

TEST(CrashRestart, NonPcCopyCrashDuringSemiSyncSplit) {
  ClusterOptions o =
      SimOptions(ProtocolKind::kSemiSyncSplit, 4, 17, /*fanout=*/4);
  o.tree.leaf_replication = 3;
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;

  // Warm keys in a low band so the later overflow targets the rightmost
  // leaf (range open to infinity) deterministically.
  for (Key k : RandomKeys(30, 9)) {
    Key key = 1000 + (k % 1000);
    if (oracle.Insert(key, key * 3).ok()) {
      ASSERT_TRUE(cluster.Insert(0, key, key * 3).ok());
    }
  }
  ASSERT_TRUE(cluster.Settle());

  // Pick the crash victim: a copy holder of the rightmost leaf that is
  // neither its PC nor the clients' home processor.
  const Node* target = FindLeafCovering(cluster, 100000);
  ASSERT_NE(target, nullptr);
  ASSERT_GE(target->copies().size(), 3u);
  ProcessorId pc = target->pc();
  ProcessorId victim = kInvalidProcessor;
  for (ProcessorId p : target->copies()) {
    if (p != pc && p != 0) victim = p;
  }
  ASSERT_NE(victim, kInvalidProcessor);

  // Overflow the leaf asynchronously and run the simulator just far
  // enough for the PC to perform the half-split; the split/link relays
  // to the peer copies are still in flight when the victim dies.
  size_t nodes_before = CountLogicalNodes(cluster);
  size_t acked = 0;
  std::vector<Key> burst;
  for (int i = 0; i < 8; ++i) burst.push_back(100000 + 7 * i);
  for (Key k : burst) {
    ASSERT_TRUE(oracle.Insert(k, k + 1).ok());
    cluster.InsertAsync(0, k, k + 1, [&acked](const OpResult& r) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      ++acked;
    });
  }
  while (CountLogicalNodes(cluster) == nodes_before) {
    ASSERT_TRUE(cluster.sim()->Step()) << "drained before any split";
  }

  cluster.CrashProcessor(victim);
  for (int i = 0; i < 4; ++i) cluster.sim()->Step();
  cluster.RestartProcessor(victim);
  ASSERT_TRUE(cluster.Settle());

  EXPECT_EQ(acked, burst.size());
  ExpectCorrect(cluster);  // compatible/complete histories + structure
  ExpectMatchesOracle(cluster, oracle);
  for (Key k : burst) {
    StatusOr<Value> got = cluster.Search(0, k);
    ASSERT_TRUE(got.ok()) << "acked key " << k << " lost after crash: "
                          << got.status().ToString();
    EXPECT_EQ(*got, k + 1);
  }
}

TEST(CrashRestart, NonPcCopyCrashDuringVarCopiesJoin) {
  Cluster cluster(SimOptions(ProtocolKind::kVarCopies, 4, 23));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(40, 13)) {
    ASSERT_TRUE(cluster.Insert(0, k, k * 2).ok());
    ASSERT_TRUE(oracle.Insert(k, k * 2).ok());
  }
  ASSERT_TRUE(cluster.Settle());

  // All leaves bootstrapped on p0, so the interior spine is replicated
  // while p2 hosts no leaf: crashing p2 cannot lose dictionary state,
  // only a non-PC interior copy (the ISSUE's "non-PC copy").
  NodeId moved = kInvalidNode;
  Key best_low = 0;
  cluster.processor(0).store().ForEach([&](const Node& n) {
    if (n.is_leaf() && n.range().low >= best_low) {
      moved = n.id();
      best_low = n.range().low;
    }
  });
  ASSERT_TRUE(moved.valid());

  // Migrating the rightmost leaf to p1 makes p1 join the leaf's ancestor
  // path (§4.3). Crash p2 while the join handshake is in flight.
  cluster.MigrateNode(moved, 0, 1);
  for (int i = 0; i < 6; ++i) cluster.sim()->Step();
  net::StatsSnapshot before_crash = cluster.processor(2).counters();
  ASSERT_GT(before_crash.actions_handled, 0u);
  cluster.CrashProcessor(2);
  for (int i = 0; i < 4; ++i) cluster.sim()->Step();
  cluster.RestartProcessor(2);
  ASSERT_TRUE(cluster.Settle());

  // The counters are the ledger's, not the lost handler's: a crash never
  // takes a count back.
  net::StatsSnapshot after_restart = cluster.processor(2).counters();
  for (size_t c = 0; c < net::kNumCounters; ++c) {
    const auto counter = static_cast<net::Counter>(c);
    EXPECT_GE(after_restart[counter], before_crash[counter])
        << net::kCounterFields[c].name;
  }
  for (size_t k = 0; k < net::kNumKinds; ++k) {
    EXPECT_GE(after_restart.actions_by_kind[k],
              before_crash.actions_by_kind[k])
        << ActionKindName(static_cast<ActionKind>(k));
  }
  EXPECT_EQ(cluster.NetStats().joins_granted, 1u)
      << "migration must have forced a path join";

  ExpectCorrect(cluster);
  ExpectMatchesOracle(cluster, oracle);
  for (Key k : RandomKeys(40, 13)) {
    StatusOr<Value> got = cluster.Search(3, k);
    ASSERT_TRUE(got.ok()) << "key " << k
                          << " unreachable after crash/restart: "
                          << got.status().ToString();
    EXPECT_EQ(*got, k * 2);
  }
}

// Restarting a processor that never crashed must be a no-op: minimized
// schedules can retain a restart whose crash was deleted.
TEST(CrashRestart, RestartWithoutCrashIsHarmless) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 4, 3));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(50, 21)) {
    ASSERT_TRUE(cluster.Insert(k % 4, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  cluster.RestartProcessor(1);
  ASSERT_TRUE(cluster.Settle());
  ExpectCorrect(cluster);
  ExpectMatchesOracle(cluster, oracle);
}

}  // namespace
}  // namespace lazytree
