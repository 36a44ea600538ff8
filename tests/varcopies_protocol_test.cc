// §4.3 tests: variable copies — join/unjoin replication management, the
// Fig.-2 path-replication invariant, the Fig.-6 concurrent join+insert
// race, and mobile leaves under the full dB-tree.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/protocol/varcopies.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;
using testing::SimOptions;

VarCopiesProtocol* Var(Cluster& cluster, ProcessorId id) {
  return static_cast<VarCopiesProtocol*>(cluster.processor(id).handler());
}

std::map<NodeId, ProcessorId> LeafHosts(Cluster& cluster) {
  std::map<NodeId, ProcessorId> hosts;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (n.is_leaf()) hosts[n.id()] = id;
    });
  }
  return hosts;
}

/// Verifies Fig. 2: every processor that hosts a leaf also hosts a copy
/// of every node on the path from the root to that leaf.
void ExpectPathReplication(Cluster& cluster) {
  // Representative copy of each logical node, for path computation.
  std::map<NodeId, NodeSnapshot> nodes;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach(
        [&](const Node& n) { nodes.try_emplace(n.id(), n.ToSnapshot()); });
  }
  int32_t top_level = 0;
  for (auto& [id, snap] : nodes) {
    top_level = std::max(top_level, snap.level);
  }
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    Processor& p = cluster.processor(id);
    p.store().ForEach([&](const Node& leaf) {
      if (!leaf.is_leaf()) return;
      // Walk down from the top of the tree toward this leaf by key and
      // require a local copy at every step.
      Key probe = leaf.range().low;
      const NodeSnapshot* cur = nullptr;
      for (auto& [nid, snap] : nodes) {
        if (snap.level == top_level && snap.range.Contains(probe)) {
          cur = &snap;
        }
      }
      ASSERT_NE(cur, nullptr);
      while (cur->level > 0) {
        EXPECT_NE(p.store().Get(cur->id), nullptr)
            << "p" << id << " hosts leaf " << leaf.id().ToString()
            << " but no copy of path node " << cur->id.ToString()
            << " (level " << cur->level << ")";
        // Descend by key, following right links within the level.
        while (probe >= cur->right_low) {
          cur = &nodes.at(cur->right);
        }
        Key child_payload = 0;
        for (const Entry& e : cur->entries) {
          if (e.key <= probe) child_payload = e.payload;
        }
        cur = &nodes.at(NodeId{child_payload});
      }
    });
  }
}

TEST(VarCopiesProtocol, BasicInsertSearchAcrossProcessors) {
  Cluster cluster(SimOptions(ProtocolKind::kVarCopies, 4, 1));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(200, 3)) {
    ASSERT_TRUE(cluster.Insert(k % 4, k, k * 2).ok()) << "key " << k;
    ASSERT_TRUE(oracle.Insert(k, k * 2).ok());
  }
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

TEST(VarCopiesProtocol, MigrationTriggersJoinsAndPathReplication) {
  Cluster cluster(SimOptions(ProtocolKind::kVarCopies, 4, 5));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(250, 7)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  // Spread the leaves (all on p0 so far) across the cluster.
  int dest = 0;
  for (auto& [id, host] : LeafHosts(cluster)) {
    cluster.MigrateNode(id, host, static_cast<ProcessorId>(dest++ % 4));
  }
  ASSERT_TRUE(cluster.Settle());
  uint64_t joins = 0;
  for (ProcessorId id = 0; id < 4; ++id) {
    joins += Var(cluster, id)->joins_granted();
  }
  EXPECT_GT(joins, 0u) << "migrations must force path joins";
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  ExpectPathReplication(cluster);
}

// The Fig.-6 race, constructed deterministically: an insert's relays are
// delayed (held in the outbox) while another processor joins the node; the
// PC's version-gated re-relay must deliver the insert to the new copy.
TEST(VarCopiesProtocol, Fig6ConcurrentJoinAndInsertNeedsReRelay) {
  ClusterOptions o = SimOptions(ProtocolKind::kVarCopies, 4, 1,
                                /*fanout=*/4);
  o.piggyback_window = 100000;  // relays stay held until Settle
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;
  Rng rng(5);
  std::set<Key> warm;
  while (warm.size() < 60) warm.insert(rng.Range(1000, 1u << 20));
  for (Key k : warm) {
    ASSERT_TRUE(cluster.Insert(0, k, 1).ok());
    ASSERT_TRUE(oracle.Insert(k, 1).ok());
  }

  // Move the rightmost leaf to p1 (its ancestors' membership was pruned
  // back to the leaf owners; the leftmost spine stays everywhere).
  auto leaves = LeafHosts(cluster);
  NodeId moved = kInvalidNode;
  KeyRange moved_range;
  for (ProcessorId id = 0; id < 4; ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (n.is_leaf() &&
          (!moved.valid() || n.range().low > moved_range.low)) {
        moved = n.id();
        moved_range = n.range();
      }
    });
  }
  cluster.MigrateNode(moved, 0, 1);
  ASSERT_TRUE(cluster.Settle());

  // Fill p1's leaf until it splits: the parent pointer insert executes at
  // p1's local parent copy; its relays are held in p1's outbox.
  for (int i = 0; i < 8; ++i) {
    Key k = moved_range.low + 1 + i;
    cluster.InsertAsync(1, k, 7, [](const OpResult&) {});
    ASSERT_TRUE(oracle.Insert(k, 7).ok());
  }
  while (cluster.sim()->Step()) {
  }

  // A p0-hosted leaf under the same parent migrates to p3: p3 joins the
  // parent; the grant snapshot predates the buffered insert.
  NodeId neighbor = kInvalidNode;
  Key best_low = 0;
  cluster.processor(0).store().ForEach([&](const Node& n) {
    if (n.is_leaf() && n.range().low < moved_range.low &&
        n.range().low >= best_low) {
      neighbor = n.id();
      best_low = n.range().low;
    }
  });
  cluster.MigrateNode(neighbor, 0, 3);
  while (cluster.sim()->Step()) {
  }

  // Release the delayed relays: the PC must re-relay to p3.
  ASSERT_TRUE(cluster.Settle());
  uint64_t rerelays = 0;
  for (ProcessorId id = 0; id < 4; ++id) {
    rerelays += Var(cluster, id)->late_joiner_rerelays();
  }
  EXPECT_GT(rerelays, 0u) << "the Fig.-6 re-relay path must fire";
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  ExpectPathReplication(cluster);
}

// Organic churn: joins/unjoins racing inserts at scale stay correct.
TEST(VarCopiesProtocol, ChurnWithPiggybackingStaysComplete) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ClusterOptions o = SimOptions(ProtocolKind::kVarCopies, 8, seed,
                                  /*fanout=*/4);
    o.piggyback_window = 8;
    Cluster cluster(o);
    cluster.Start();
    Oracle oracle;
    std::vector<Key> warm = RandomKeys(200, seed + 50);
    for (Key k : warm) {
      ASSERT_TRUE(cluster.Insert(0, k, 1).ok());
      ASSERT_TRUE(oracle.Insert(k, 1).ok());
    }
    std::vector<Key> wave = RandomKeys(600, seed + 60);
    Rng rng(seed);
    size_t i = 0;
    auto hosts = LeafHosts(cluster);
    auto host_it = hosts.begin();
    for (Key k : wave) {
      if (oracle.Insert(k, 2).ok()) {
        cluster.InsertAsync(static_cast<ProcessorId>(i % 8), k, 2,
                            [](const OpResult&) {});
      }
      if (++i % 5 == 0 && host_it != hosts.end()) {
        cluster.MigrateNode(host_it->first, host_it->second,
                            static_cast<ProcessorId>(rng.Below(8)));
        ++host_it;
      }
    }
    ASSERT_TRUE(cluster.Settle());
    ExpectMatchesOracle(cluster, oracle);
    ExpectCorrect(cluster);
    ExpectPathReplication(cluster);
  }
}

TEST(VarCopiesProtocol, UnjoinsHappenWhenLeavesLeave) {
  Cluster cluster(SimOptions(ProtocolKind::kVarCopies, 4, 11));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(400, 13)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  // Scatter, settle, then pull everything back to p0: the other
  // processors must unjoin the interior nodes they no longer need.
  int dest = 0;
  for (auto& [id, host] : LeafHosts(cluster)) {
    cluster.MigrateNode(id, host, static_cast<ProcessorId>(dest++ % 4));
  }
  ASSERT_TRUE(cluster.Settle());
  for (auto& [id, host] : LeafHosts(cluster)) {
    if (host != 0) cluster.MigrateNode(id, host, 0);
  }
  ASSERT_TRUE(cluster.Settle());
  uint64_t unjoins = 0;
  for (ProcessorId id = 0; id < 4; ++id) {
    unjoins += Var(cluster, id)->unjoins_processed();
  }
  EXPECT_GT(unjoins, 0u);
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  ExpectPathReplication(cluster);
}

TEST(VarCopiesProtocol, OnlineSheddingKeepsInvariantUnderLoad) {
  ClusterOptions o = SimOptions(ProtocolKind::kVarCopies, 4, 17);
  o.tree.shed_threshold = 3;
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(800, 19);
  size_t i = 0;
  for (Key k : keys) {
    cluster.InsertAsync(static_cast<ProcessorId>(i++ % 4), k, k,
                        [](const OpResult&) {});
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  ExpectPathReplication(cluster);
  std::map<ProcessorId, int> per_host;
  for (auto& [id, host] : LeafHosts(cluster)) ++per_host[host];
  EXPECT_GE(per_host.size(), 2u) << "shedding should spread data";
}

TEST(VarCopiesProtocol, SeedSweepConvergence) {
  for (uint64_t seed = 31; seed <= 40; ++seed) {
    ClusterOptions o = SimOptions(ProtocolKind::kVarCopies, 4, seed);
    o.tree.shed_threshold = 4;
    Cluster cluster(o);
    cluster.Start();
    Oracle oracle;
    std::vector<Key> keys = RandomKeys(300, seed);
    size_t i = 0;
    for (Key k : keys) {
      cluster.InsertAsync(static_cast<ProcessorId>(i++ % 4), k, 5,
                          [](const OpResult&) {});
      ASSERT_TRUE(oracle.Insert(k, 5).ok());
    }
    ASSERT_TRUE(cluster.Settle()) << "seed " << seed;
    ExpectMatchesOracle(cluster, oracle);
    ExpectCorrect(cluster);
  }
}

}  // namespace
}  // namespace lazytree
