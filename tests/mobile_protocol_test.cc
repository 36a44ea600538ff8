// §4.2 tests: single-copy mobile nodes — migration, forwarding addresses,
// version-gated link-changes, misnavigation recovery, data balancing.

#include <gtest/gtest.h>

#include <map>

#include "src/protocol/mobile.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;
using testing::SimOptions;

MobileProtocol* Mobile(Cluster& cluster, ProcessorId id) {
  return static_cast<MobileProtocol*>(cluster.processor(id).handler());
}

/// All leaves with their current hosts.
std::map<NodeId, ProcessorId> LeafHosts(Cluster& cluster) {
  std::map<NodeId, ProcessorId> hosts;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (n.is_leaf()) hosts[n.id()] = id;
    });
  }
  return hosts;
}

/// Sends a search for `key` addressed to `leaf` from `from` straight to
/// `to`, bypassing navigation, and settles.
OpResult MisdirectedSearch(Cluster& cluster, ProcessorId from,
                           ProcessorId to, NodeId leaf, Key key) {
  OpResult result;
  result.status = Status::TimedOut("misdirected search never completed");
  Action a;
  a.kind = ActionKind::kSearch;
  a.op = cluster.processor(from).ops().Begin(
      [&result](const OpResult& r) { result = r; });
  a.key = key;
  a.target = leaf;
  a.level = 0;
  a.origin = from;
  cluster.network().Send(Message(from, to, std::move(a)));
  EXPECT_TRUE(cluster.Settle());
  return result;
}

TEST(MobileProtocol, SingleProcessorBasics) {
  Cluster cluster(SimOptions(ProtocolKind::kMobile, 1, 1));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(200, 3)) {
    ASSERT_TRUE(cluster.Insert(0, k, k + 9).ok());
    ASSERT_TRUE(oracle.Insert(k, k + 9).ok());
  }
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

TEST(MobileProtocol, RemoteProcessorsReachTheTree) {
  // All nodes start on p0; operations submitted at p3 must route there.
  Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, 1));
  cluster.Start();
  ASSERT_TRUE(cluster.Insert(3, 100, 1).ok());
  auto hit = cluster.Search(2, 100);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 1u);
}

TEST(MobileProtocol, ExplicitLeafMigrationMovesTheNode) {
  Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, 5));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(60, 11)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  auto before = LeafHosts(cluster);
  ASSERT_GE(before.size(), 2u);
  // Move every leaf off p0, one per destination round-robin.
  int moved = 0;
  for (auto& [id, host] : before) {
    ASSERT_EQ(host, 0u) << "everything starts on p0";
    cluster.MigrateNode(id, host, 1 + (moved++ % 3));
  }
  ASSERT_TRUE(cluster.Settle());
  auto after = LeafHosts(cluster);
  ASSERT_EQ(after.size(), before.size());
  for (auto& [id, host] : after) EXPECT_NE(host, 0u) << id.ToString();
  EXPECT_EQ(cluster.NetStats().migrations_completed, before.size());
  // The tree still answers correctly from every processor.
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  for (Key k : RandomKeys(60, 11)) {
    auto hit = cluster.Search(k % 4, k);
    ASSERT_TRUE(hit.ok()) << "key " << k << " lost after migration";
  }
}

// A processor that lost its location cache still reaches a node it
// shipped away, through the forwarding address it left behind (§4.2).
TEST(MobileProtocol, ForgottenCacheFollowsForwardingAddress) {
  Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, 3));
  cluster.Start();
  for (Key k : RandomKeys(60, 5)) ASSERT_TRUE(cluster.Insert(0, k, k).ok());
  const auto [leaf, host] = *LeafHosts(cluster).begin();
  ASSERT_EQ(host, 0u) << "everything starts on p0";
  cluster.MigrateNode(leaf, 0, 1);
  ASSERT_TRUE(cluster.Settle());
  for (ProcessorId id = 0; id < 4; ++id) {
    Mobile(cluster, id)->TEST_ForgetAddresses();
  }

  const Key key = cluster.processor(1).store().Get(leaf)->entries()[0].key;
  const OpResult result = MisdirectedSearch(cluster, 0, 0, leaf, key);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // Exact counts, all at p0, as its handler counted them before the ledger.
  const net::StatsSnapshot p0 = cluster.processor(0).counters();
  EXPECT_EQ(p0.forward_hits, 1u);
  EXPECT_EQ(p0.migrations_completed, 1u);
  EXPECT_EQ(cluster.NetStats().forward_hits, 1u);
  EXPECT_EQ(cluster.NetStats().recovery_routes, 0u);
}

TEST(MobileProtocol, MigrationRacesInsertsSafely) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, seed));
    cluster.Start();
    Oracle oracle;
    // Warm up with enough keys to create several leaves.
    std::vector<Key> warm = RandomKeys(80, seed + 100);
    for (Key k : warm) {
      ASSERT_TRUE(cluster.Insert(0, k, 7).ok());
      ASSERT_TRUE(oracle.Insert(k, 7).ok());
    }
    auto hosts = LeafHosts(cluster);
    // Now race: a second wave of inserts from all processors while every
    // leaf is told to migrate.
    std::vector<Key> wave = RandomKeys(200, seed + 200);
    size_t i = 0;
    int completions = 0;
    for (Key k : wave) {
      if (oracle.Insert(k, 8).ok()) {
        cluster.InsertAsync(static_cast<ProcessorId>(i % 4), k, 8,
                            [&](const OpResult& r) {
                              EXPECT_TRUE(r.status.ok());
                              ++completions;
                            });
      }
      ++i;
    }
    int dest = 1;
    for (auto& [id, host] : hosts) {
      cluster.MigrateNode(id, host, dest++ % 4);
    }
    ASSERT_TRUE(cluster.Settle());
    EXPECT_EQ(completions, static_cast<int>(wave.size()));
    ExpectMatchesOracle(cluster, oracle);
    ExpectCorrect(cluster);
  }
}

TEST(MobileProtocol, ForwardingAddressGarbageCollectionIsSafe) {
  // §4.2: forwarding addresses are not required for correctness. Migrate,
  // drop every forwarding address, and verify recovery still routes.
  Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, 9));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(120, 13)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  auto hosts = LeafHosts(cluster);
  int dest = 1;
  for (auto& [id, host] : hosts) cluster.MigrateNode(id, host, dest++ % 4);
  ASSERT_TRUE(cluster.Settle());
  size_t dropped = 0;
  for (ProcessorId id = 0; id < 4; ++id) {
    dropped += cluster.processor(id).store().ForwardingCount();
    cluster.processor(id).store().DropForwardingAddresses();
  }
  EXPECT_GT(dropped, 0u) << "migrations must have left addresses";
  ExpectMatchesOracle(cluster, oracle);
  for (Key k : RandomKeys(120, 13)) {
    auto hit = cluster.Search(k % 4, k);
    ASSERT_TRUE(hit.ok()) << "key " << k << " unreachable after GC";
  }
  ExpectCorrect(cluster);
}

TEST(MobileProtocol, OnlineSheddingBalancesLeaves) {
  ClusterOptions o = SimOptions(ProtocolKind::kMobile, 4, 17);
  o.tree.shed_threshold = 4;  // shed split-off leaves beyond 4 per host
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(600, 19)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  auto hosts = LeafHosts(cluster);
  std::map<ProcessorId, int> per_host;
  for (auto& [id, host] : hosts) ++per_host[host];
  EXPECT_GE(per_host.size(), 3u)
      << "shedding should spread leaves across hosts";
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

TEST(MobileProtocol, LinkChangeVersionGatingHoldsUnderRace) {
  // Repeated migrations of adjacent leaves generate racing link-changes;
  // the ordered-history checker inside ExpectCorrect is the assertion.
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, seed));
    cluster.Start();
    Oracle oracle;
    for (Key k : RandomKeys(100, seed)) {
      ASSERT_TRUE(cluster.Insert(0, k, 1).ok());
      ASSERT_TRUE(oracle.Insert(k, 1).ok());
    }
    // Three rounds of everyone-moves, issued back to back without
    // settling in between.
    Rng rng(seed);
    for (int round = 0; round < 3; ++round) {
      for (auto& [id, host] : LeafHosts(cluster)) {
        cluster.MigrateNode(id, host,
                            static_cast<ProcessorId>(rng.Below(4)));
      }
    }
    ASSERT_TRUE(cluster.Settle());
    ExpectMatchesOracle(cluster, oracle);
    ExpectCorrect(cluster);
  }
}

TEST(MobileProtocol, ScansSurviveMigrationStorm) {
  // Scans walk the leaf chain by key; leaves teleporting mid-scan must
  // never corrupt results (forwarding keeps them on track; the stale-
  // cache regression below covers the recovery path deterministically).
  for (uint64_t seed = 77; seed <= 80; ++seed) {
    Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, seed));
    cluster.Start();
    Oracle oracle;
    for (Key k : RandomKeys(300, 79)) {
      ASSERT_TRUE(cluster.Insert(0, k, k).ok());
      ASSERT_TRUE(oracle.Insert(k, k).ok());
    }
    Rng rng(seed + 4);
    // Round 1: scatter the leaves and settle, so p0's address cache now
    // names the round-1 hosts.
    for (auto& [id, host] : LeafHosts(cluster)) {
      cluster.MigrateNode(id, host, static_cast<ProcessorId>(rng.Below(4)));
    }
    ASSERT_TRUE(cluster.Settle());
    // Round 2 races the scans: leaves leave their round-1 hosts, so the
    // scanning path's cached addresses go stale and the forwarding /
    // closest-node recovery must kick in.
    std::vector<std::vector<Entry>> scans(10);
    int done = 0;
    for (int s2 = 0; s2 < 10; ++s2) {
      cluster.ScanAsync(static_cast<ProcessorId>(s2 % 4),
                        rng.Range(1, 1u << 30), 25,
                        [&, s2](const OpResult& r) {
                          EXPECT_TRUE(r.status.ok());
                          scans[s2] = r.entries;
                          ++done;
                        });
    }
    for (auto& [id, host] : LeafHosts(cluster)) {
      cluster.MigrateNode(id, host, static_cast<ProcessorId>(rng.Below(4)));
    }
    ASSERT_TRUE(cluster.Settle());
    EXPECT_EQ(done, 10);
    // Results are sorted and contain only real keys (scans racing moves
    // are best-effort, but must never invent or disorder entries).
    for (const auto& result : scans) {
      Key prev = 0;
      for (const Entry& e : result) {
        EXPECT_GT(e.key, prev);
        prev = e.key;
        EXPECT_TRUE(oracle.Search(e.key).ok()) << e.key;
      }
    }
    ExpectCorrect(cluster);
  }
}

// Regression: stale address caches + garbage-collected forwarding must
// not livelock. Construction: leaf L and its neighbors leave p0; L then
// moves again so p0's cache goes stale; the intermediate host GCs its
// forwarding address and holds no nodes at all. A search from p0 now
// bounces p0 -> p1 (nothing there) and must still terminate via the
// randomized recovery hand-off to a processor whose neighbor links are
// fresh.
TEST(MobileProtocol, StaleCachePlusGcForwardingTerminates) {
  Cluster cluster(SimOptions(ProtocolKind::kMobile, 4, 5));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(120, 11)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  // Pick a middle leaf L and its neighbors by range order.
  std::vector<std::pair<Key, NodeId>> by_low;
  cluster.processor(0).store().ForEach([&](const Node& n) {
    if (n.is_leaf()) by_low.push_back({n.range().low, n.id()});
  });
  std::sort(by_low.begin(), by_low.end());
  ASSERT_GE(by_low.size(), 5u);
  const size_t mid = by_low.size() / 2;
  const NodeId left = by_low[mid - 1].second;
  const NodeId leaf = by_low[mid].second;
  const NodeId right = by_low[mid + 1].second;
  const Key probe = by_low[mid].first;

  // Neighbors to p3, L to p1, settle; then L onward to p2 so p0's cache
  // (which learned L@p1 when it shipped it) goes stale.
  cluster.MigrateNode(left, 0, 3);
  cluster.MigrateNode(right, 0, 3);
  cluster.MigrateNode(leaf, 0, 1);
  ASSERT_TRUE(cluster.Settle());
  cluster.MigrateNode(leaf, 1, 2);
  ASSERT_TRUE(cluster.Settle());
  // p1 garbage-collects its forwarding address and now stores nothing.
  cluster.processor(1).store().DropForwardingAddresses();
  EXPECT_EQ(cluster.processor(1).store().size(), 0u);

  // Searches for L's keys from every processor must still terminate.
  for (ProcessorId home = 0; home < 4; ++home) {
    auto hit = cluster.Search(home, probe);
    ASSERT_TRUE(hit.ok()) << "home p" << home;
    EXPECT_EQ(*hit, probe);
  }
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);

  // Force the worst case the proactive refreshes normally prevent:
  // every processor forgets every cached address AND every forwarding
  // address, and a search is addressed straight to L at its *old* host
  // p1 (which stores nothing). §4.2's missing-node recovery — closest
  // node first, randomized hand-off once re-descents stop making
  // progress — must still deliver an answer.
  for (ProcessorId id = 0; id < 4; ++id) {
    Mobile(cluster, id)->TEST_ForgetAddresses();
    cluster.processor(id).store().DropForwardingAddresses();
  }
  const OpResult misdirected =
      MisdirectedSearch(cluster, /*from=*/3, /*to=*/1, leaf, probe);
  ASSERT_TRUE(misdirected.status.ok()) << misdirected.status.ToString();
  EXPECT_EQ(misdirected.value, probe);
  // The misdirected search must hit recovery: exact counts, all at p0, as
  // its handler counted them before the ledger.
  EXPECT_EQ(cluster.processor(0).counters().recovery_routes, 39u);
  EXPECT_EQ(cluster.NetStats().recovery_routes, 39u);
  EXPECT_EQ(cluster.NetStats().forward_hits, 0u);
}

}  // namespace
}  // namespace lazytree
