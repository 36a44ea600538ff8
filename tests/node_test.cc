// Node and NodeStore unit tests: range logic, half-splits, snapshot
// round trips, overflow buckets, closest-node recovery, forwarding, and
// the per-level index against a brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "src/node/node.h"
#include "src/node/node_store.h"
#include "src/util/rng.h"

namespace lazytree {
namespace {

NodeId Id(uint32_t seq) { return NodeId::Make(0, seq); }

TEST(KeyRange, ContainsAndEmpty) {
  KeyRange r{10, 20};
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(19));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9));
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE((KeyRange{5, 5}).Empty());
  EXPECT_EQ((KeyRange{0, kKeyInfinity}).ToString(), "[0,inf)");
}

TEST(NodeIdPacking, RoundTrip) {
  NodeId id = NodeId::Make(7, 42);
  EXPECT_EQ(id.creator(), 7u);
  EXPECT_EQ(id.seq(), 42u);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(kInvalidNode.valid());
  EXPECT_EQ(id.ToString(), "n7.42");
}

TEST(Node, LeafInsertFindAndDuplicates) {
  Node leaf(Id(1), 0, KeyRange{0, kKeyInfinity}, /*track=*/true);
  EXPECT_TRUE(leaf.Insert(10, 100));
  EXPECT_TRUE(leaf.Insert(5, 50));
  EXPECT_TRUE(leaf.Insert(20, 200));
  EXPECT_FALSE(leaf.Insert(10, 999)) << "dup rejected";
  EXPECT_EQ(*leaf.Find(10), 100u) << "value unchanged";
  EXPECT_TRUE(leaf.Insert(10, 999, /*upsert=*/false) == false);
  EXPECT_FALSE(leaf.Insert(10, 999, /*upsert=*/true));
  EXPECT_EQ(*leaf.Find(10), 999u) << "upsert overwrote";
  EXPECT_FALSE(leaf.Find(11).has_value());
  EXPECT_EQ(leaf.size(), 3u);
  // Entries stay sorted.
  EXPECT_EQ(leaf.entries()[0].key, 5u);
  EXPECT_EQ(leaf.entries()[2].key, 20u);
}

TEST(Node, InteriorRouting) {
  Node interior(Id(2), 1, KeyRange{0, kKeyInfinity}, false);
  interior.Insert(0, Id(10).v);
  interior.Insert(100, Id(11).v);
  interior.Insert(200, Id(12).v);
  EXPECT_EQ(interior.ChildFor(0), Id(10));
  EXPECT_EQ(interior.ChildFor(99), Id(10));
  EXPECT_EQ(interior.ChildFor(100), Id(11));
  EXPECT_EQ(interior.ChildFor(150), Id(11));
  EXPECT_EQ(interior.ChildFor(5000), Id(12));
}

TEST(Node, HalfSplitMovesUpperHalfAndLinks) {
  Node n(Id(3), 0, KeyRange{0, 1000}, true);
  n.set_right(Id(99), 1000);
  for (Key k = 10; k <= 80; k += 10) n.Insert(k, k);
  n.NoteApplied(555);
  Node::SplitResult split = n.HalfSplit(Id(4));

  EXPECT_EQ(split.sep, 50u);
  EXPECT_EQ(n.range().high, 50u);
  EXPECT_EQ(n.right(), Id(4));
  EXPECT_EQ(n.right_low(), 50u);
  EXPECT_EQ(n.size(), 4u);

  const NodeSnapshot& sib = split.sibling;
  EXPECT_EQ(sib.range.low, 50u);
  EXPECT_EQ(sib.range.high, 1000u);
  EXPECT_EQ(sib.right, Id(99));
  EXPECT_EQ(sib.right_low, 1000u);
  EXPECT_EQ(sib.left, Id(3));
  EXPECT_EQ(sib.entries.size(), 4u);
  EXPECT_EQ(sib.version, n.version() + 1);
  ASSERT_EQ(sib.applied_updates.size(), 1u)
      << "sibling inherits the backwards extension";
  EXPECT_EQ(sib.applied_updates[0], 555u);
}

TEST(Node, ApplySplitDiscardsMovedEntries) {
  Node copy(Id(5), 0, KeyRange{0, 1000}, false);
  for (Key k = 10; k <= 80; k += 10) copy.Insert(k, k);
  copy.ApplySplit(50, Id(6));
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy.range().high, 50u);
  EXPECT_EQ(copy.right(), Id(6));
  for (const Entry& e : copy.entries()) EXPECT_LT(e.key, 50u);
}

TEST(Node, OverflowBucketSemantics) {
  // Copies are maintained serially, so exceeding capacity is fine (§4.1:
  // "it is a simple matter to add overflow blocks").
  Node n(Id(7), 0, KeyRange{0, kKeyInfinity}, false);
  for (Key k = 1; k <= 20; ++k) n.Insert(k, k);
  EXPECT_TRUE(n.Overflowing(8));
  EXPECT_FALSE(n.Overflowing(20));
  EXPECT_EQ(n.size(), 20u);
}

TEST(Node, SnapshotRoundTripPreservesEverything) {
  Node n(Id(8), 2, KeyRange{100, 900}, true);
  n.set_right(Id(9), 900);
  n.set_left(Id(7));
  n.set_parent(Id(1));
  n.set_copies({0, 1, 2}, 1);
  n.set_version(5);
  n.set_link_version(LinkKind::kLeft, 3);
  n.Insert(100, Id(20).v);
  n.Insert(500, Id(21).v);
  n.NoteApplied(77);

  Node copy(n.ToSnapshot(), true);
  EXPECT_EQ(copy.id(), n.id());
  EXPECT_EQ(copy.level(), 2);
  EXPECT_EQ(copy.range(), n.range());
  EXPECT_EQ(copy.right(), Id(9));
  EXPECT_EQ(copy.left(), Id(7));
  EXPECT_EQ(copy.parent(), Id(1));
  EXPECT_EQ(copy.copies(), n.copies());
  EXPECT_EQ(copy.pc(), 1u);
  EXPECT_EQ(copy.version(), 5u);
  EXPECT_EQ(copy.link_version(LinkKind::kLeft), 3u);
  EXPECT_EQ(copy.entries(), n.entries());
  EXPECT_TRUE(copy.HasApplied(77));
  EXPECT_FALSE(copy.HasApplied(78));
}

TEST(Node, CopyMembership) {
  Node n(Id(10), 1, KeyRange{}, false);
  n.set_copies({0, 1}, 0);
  EXPECT_TRUE(n.HasCopy(1));
  EXPECT_FALSE(n.HasCopy(2));
  n.AddCopy(2);
  n.AddCopy(2);  // idempotent
  EXPECT_EQ(n.copies().size(), 3u);
  n.RemoveCopy(1);
  EXPECT_FALSE(n.HasCopy(1));
  EXPECT_EQ(n.copies().size(), 2u);
}

TEST(NodeStore, InstallGetRemove) {
  NodeStore store(1);
  store.Install(std::make_unique<Node>(Id(1), 0, KeyRange{}, false));
  EXPECT_NE(store.Get(Id(1)), nullptr);
  EXPECT_EQ(store.Get(Id(2)), nullptr);
  EXPECT_EQ(store.size(), 1u);
  store.Remove(Id(1));
  EXPECT_EQ(store.Get(Id(1)), nullptr);
  EXPECT_EQ(store.size(), 0u);
}

// The id table: by_id_[creator][seq], sized by the cluster, rows grown
// on install.
TEST(NodeStore, GetOutsideTheTableIsNull) {
  NodeStore store(2);
  store.Install(std::make_unique<Node>(NodeId::Make(1, 3), 0, KeyRange{},
                                       false));
  EXPECT_NE(store.Get(NodeId::Make(1, 3)), nullptr);
  EXPECT_EQ(store.Get(NodeId::Make(2, 3)), nullptr) << "unknown creator";
  EXPECT_EQ(store.Get(NodeId::Make(7, 1)), nullptr) << "unknown creator";
  EXPECT_EQ(store.Get(NodeId::Make(1, 4)), nullptr) << "seq past the row";
  EXPECT_EQ(store.Get(NodeId::Make(1, 2)), nullptr) << "empty slot";
  EXPECT_EQ(store.Get(NodeId::Make(0, 3)), nullptr) << "empty row";
  EXPECT_EQ(store.Get(kInvalidNode), nullptr);
}

TEST(NodeStore, ReinstallKeepsSizeAndLevelIndex) {
  NodeStore store(1);
  store.Install(std::make_unique<Node>(Id(1), 1, KeyRange{0, 100}, false));
  store.Install(std::make_unique<Node>(Id(2), 0, KeyRange{0, 50}, false));
  store.Remove(Id(2));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.CountAtLevel(0), 0u);
  EXPECT_EQ(store.FirstAtLevel(0, 0), nullptr);
  store.Install(std::make_unique<Node>(Id(2), 0, KeyRange{0, 50}, false));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.CountAtLevel(0), 1u);
  EXPECT_EQ(store.FirstAtLevel(0, 0), store.Get(Id(2)));
  EXPECT_EQ(store.Closest(10, 0), store.Get(Id(2)));
  // Installing over a live copy replaces it in place.
  store.Install(std::make_unique<Node>(Id(2), 0, KeyRange{0, 50}, false));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.CountAtLevel(0), 1u);
  EXPECT_EQ(store.CountAtLevel(1), 1u);
}

TEST(NodeStore, ResetEmptiesEverything) {
  NodeStore store(2);
  store.Install(std::make_unique<Node>(NodeId::Make(0, 1), 1, KeyRange{},
                                       false));
  store.Install(std::make_unique<Node>(NodeId::Make(1, 1), 0, KeyRange{},
                                       false));
  store.Remove(NodeId::Make(1, 1), /*forward_to=*/0);
  store.SetRootHint(NodeId::Make(0, 1), 1);
  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Get(NodeId::Make(0, 1)), nullptr);
  EXPECT_EQ(store.CountAtLevel(1), 0u);
  EXPECT_EQ(store.ForwardingCount(), 0u);
  EXPECT_FALSE(store.root_hint().valid());
  EXPECT_EQ(store.Closest(5, 0), nullptr);
  int visited = 0;
  store.ForEach([&](const Node&) { ++visited; });
  EXPECT_EQ(visited, 0);
}

TEST(NodeStore, ForEachVisitsInIdOrder) {
  NodeStore store(3);
  const NodeId ids[] = {NodeId::Make(2, 1), NodeId::Make(0, 9),
                        NodeId::Make(1, 4), NodeId::Make(0, 2),
                        NodeId::Make(2, 7), NodeId::Make(1, 1)};
  for (NodeId id : ids) {
    store.Install(std::make_unique<Node>(id, 0, KeyRange{}, false));
  }
  std::vector<NodeId> visited;
  store.ForEach([&](const Node& n) { visited.push_back(n.id()); });
  std::vector<NodeId> sorted(std::begin(ids), std::end(ids));
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(visited, sorted);
}

TEST(NodeStore, ForwardingAddressesAndGC) {
  NodeStore store(1);
  store.Install(std::make_unique<Node>(Id(1), 0, KeyRange{}, false));
  store.Remove(Id(1), /*forward_to=*/3);
  EXPECT_EQ(store.Forwarding(Id(1)), 3u);
  EXPECT_EQ(store.ForwardingCount(), 1u);
  // Reinstalling clears the stale forward.
  store.Install(std::make_unique<Node>(Id(1), 0, KeyRange{}, false));
  EXPECT_EQ(store.Forwarding(Id(1)), kInvalidProcessor);
  EXPECT_EQ(store.ForwardingCount(), 0u);
  store.Remove(Id(1), 2);
  store.DropForwardingAddresses();
  EXPECT_EQ(store.Forwarding(Id(1)), kInvalidProcessor);
}

TEST(NodeStore, RootHintIsLevelOrdered) {
  NodeStore store(1);
  store.SetRootHint(Id(1), 1);
  store.SetRootHint(Id(2), 3);
  store.SetRootHint(Id(3), 2);  // lower: ignored
  EXPECT_EQ(store.root_hint(), Id(2));
  EXPECT_EQ(store.root_level(), 3);
}

TEST(NodeStore, ClosestPrefersLowestUsableLevel) {
  NodeStore store(1);
  // Level 2 spans everything; level 1 has [0,500) and [500,1000);
  // level 0 has [0,100).
  auto mk = [&](uint32_t seq, int32_t level, Key low, Key high) {
    auto n = std::make_unique<Node>(Id(seq), level, KeyRange{low, high},
                                    false);
    store.Install(std::move(n));
  };
  mk(1, 2, 0, kKeyInfinity);
  mk(2, 1, 0, 500);
  mk(3, 1, 500, 1000);
  mk(4, 0, 0, 100);
  store.SetRootHint(Id(1), 2);

  // Key 50 at level 0: the leaf itself.
  EXPECT_EQ(store.Closest(50, 0)->id(), Id(4));
  // Key 700 at level 0: no leaf; best start is level-1 [500,1000).
  EXPECT_EQ(store.Closest(700, 0)->id(), Id(3));
  // Key 700 at level 1 wants a level>=1 node with low <= 700.
  EXPECT_EQ(store.Closest(700, 1)->id(), Id(3));
  // Level 2 target: only the top qualifies.
  EXPECT_EQ(store.Closest(700, 2)->id(), Id(1));
  // Nothing usable (low > key at every level >= 3): falls back to root.
  EXPECT_EQ(store.Closest(5, 3)->id(), Id(1));
}

// The closest-node rule as a scan of every local copy: prefer a copy
// whose range contains the key, then the lowest level, then the greatest
// low; fall back to the root hint.
const Node* BruteForceClosest(const NodeStore& store, Key key,
                              int32_t level) {
  const Node* best = nullptr;
  auto better = [&](const Node& n) {
    if (best == nullptr) return true;
    const bool n_contains = n.Contains(key);
    const bool b_contains = best->Contains(key);
    if (n_contains != b_contains) return n_contains;
    if (n.level() != best->level()) return n.level() < best->level();
    return n.range().low > best->range().low;
  };
  store.ForEach([&](const Node& n) {
    if (n.level() < level || n.range().low > key) return;
    if (better(n)) best = &n;
  });
  if (best != nullptr) return best;
  return store.root_hint().valid() ? store.Get(store.root_hint()) : nullptr;
}

const Node* BruteForceFirstAtLevel(const NodeStore& store, int32_t level,
                                   Key from) {
  const Node* best = nullptr;
  store.ForEach([&](const Node& n) {
    if (n.level() != level || n.range().low < from) return;
    if (best == nullptr || n.range().low < best->range().low) best = &n;
  });
  return best;
}

// Random histories of one processor's store while a tree grows around
// it: logical nodes split, the local copy applies a split at once or
// stays wider until its relayed split lands, siblings install or not,
// copies leave with a forward, come back over their tombstone, get
// replaced in place, and the store crashes (Reset). After every step the
// indexed lookups must equal the brute-force scans.
TEST(NodeStore, IndexMatchesBruteForceOverRandomHistories) {
  constexpr Key kSpace = 1024;
  constexpr int32_t kTop = 3;  // the root level; the root never splits
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    NodeStore store(1);
    struct Logical {
      int32_t level;
      Key low;
      Key high;
    };
    std::map<NodeId, Logical> logical;  // the tree's current ranges
    // Splits a local copy has not applied yet, oldest first.
    std::map<NodeId, std::vector<std::pair<Key, NodeId>>> pending;
    uint32_t next_seq = 1;
    auto fresh = [&](int32_t level, Key low, Key high) {
      NodeId id = Id(next_seq++);
      logical[id] = Logical{level, low, high};
      return id;
    };
    auto install = [&](NodeId id) {
      const Logical& l = logical.at(id);
      store.Install(std::make_unique<Node>(id, l.level,
                                           KeyRange{l.low, l.high}, false));
      pending.erase(id);
    };
    NodeId root;
    for (int32_t level = 0; level <= kTop; ++level) {
      root = fresh(level, 0, kKeyInfinity);
      if (level == kTop || rng.Below(2) == 0) install(root);
    }
    store.SetRootHint(root, kTop);
    for (int step = 0; step < 1500; ++step) {
      const uint64_t op = rng.Below(100);
      auto it = logical.begin();
      std::advance(it, rng.Below(logical.size()));
      const NodeId id = it->first;
      Logical& l = it->second;
      Node* copy = store.Get(id);
      if (op < 50) {
        // The logical node splits at its PC.
        const Key hi = std::min(l.high, kSpace);
        if (l.level == kTop || hi <= l.low + 1) continue;
        const Key sep = l.low + 1 + rng.Below(hi - l.low - 1);
        const Key old_high = l.high;
        l.high = sep;
        const NodeId sibling = fresh(l.level, sep, old_high);
        if (copy != nullptr) {
          auto& waiting = pending[id];
          if (waiting.empty() && rng.Below(2) == 0) {
            copy->ApplySplit(sep, sibling);
          } else {
            waiting.emplace_back(sep, sibling);  // relayed split in flight
          }
        }
        if (rng.Below(2) == 0) install(sibling);
      } else if (op < 65) {
        // The oldest relayed split for a stale copy lands.
        auto p = pending.begin();
        if (p == pending.end()) continue;
        std::advance(p, rng.Below(pending.size()));
        if (p->second.empty()) continue;
        auto [sep, sibling] = p->second.front();
        p->second.erase(p->second.begin());
        store.Get(p->first)->ApplySplit(sep, sibling);
      } else if (op < 78) {
        // Migration away, leaving a forwarding address.
        if (copy == nullptr) continue;
        store.Remove(id, /*forward_to=*/1);
        pending.erase(id);
      } else if (op < 92) {
        // (Re-)install: over a tombstone, fresh, or in place of a copy.
        install(id);
      } else if (op < 94) {
        store.Reset();  // crash and restart with a root copy
        pending.clear();
        install(root);
        store.SetRootHint(root, kTop);
      }
      for (int q = 0; q < 24; ++q) {
        const Key key = rng.Below(kSpace + 64);
        const int32_t level = static_cast<int32_t>(rng.Below(kTop + 3)) - 1;
        ASSERT_EQ(store.Closest(key, level),
                  BruteForceClosest(store, key, level))
            << "seed " << seed << " step " << step << " key " << key
            << " level " << level;
        if (level >= 0) {
          ASSERT_EQ(store.FirstAtLevel(level, key),
                    BruteForceFirstAtLevel(store, level, key))
              << "seed " << seed << " step " << step;
        }
      }
      for (int32_t level = 0; level <= kTop; ++level) {
        size_t count = 0;
        store.ForEach([&](const Node& n) { count += n.level() == level; });
        ASSERT_EQ(store.CountAtLevel(level), count);
      }
    }
  }
}

}  // namespace
}  // namespace lazytree
