// End-to-end tests of the fixed-copies protocol family (§4.1) driven
// through the public Cluster API on the deterministic simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/inspect.h"
#include "src/protocol/fixed.h"
#include "src/workload/distributions.h"
#include "src/workload/driver.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;
using testing::SimOptions;

TEST(FixedPlacement, MembershipMatchesTheCopyList) {
  // Routing tests membership on the (first, count) placement instead of
  // the copy list it used to build; both must name the same processors.
  for (uint32_t cluster = 1; cluster <= 6; ++cluster) {
    for (uint32_t interior = 0; interior <= cluster; ++interior) {
      for (uint32_t seq = 0; seq < 40; ++seq) {
        const NodeId id = NodeId::Make(seq % cluster, seq);
        for (int32_t level = 0; level <= 1; ++level) {
          const FixedPlacement place =
              PlaceFixed(id, level, cluster, interior, /*leaf=*/2);
          const std::vector<ProcessorId> copies = place.Copies();
          ASSERT_EQ(copies.size(), place.count);
          for (ProcessorId p = 0; p < cluster; ++p) {
            EXPECT_EQ(place.Contains(p),
                      std::find(copies.begin(), copies.end(), p) !=
                          copies.end())
                << "p" << p << " of " << cluster << ", " << id.ToString();
          }
        }
      }
    }
  }
}

TEST(ClusterBasics, EmptyTreeSearchMisses) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 4, 1));
  cluster.Start();
  auto result = cluster.Search(0, 42);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ClusterBasics, InsertThenSearchFromEveryProcessor) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 4, 1));
  cluster.Start();
  ASSERT_TRUE(cluster.Insert(0, 42, 4200).ok());
  for (ProcessorId home = 0; home < 4; ++home) {
    auto result = cluster.Search(home, 42);
    ASSERT_TRUE(result.ok()) << "home " << home;
    EXPECT_EQ(*result, 4200u);
  }
}

TEST(ClusterBasics, DuplicateInsertFails) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 2, 1));
  cluster.Start();
  ASSERT_TRUE(cluster.Insert(0, 7, 70).ok());
  Status dup = cluster.Insert(1, 7, 71);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  auto result = cluster.Search(0, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 70u) << "duplicate must not clobber";
}

TEST(ClusterBasics, UpsertOverwrites) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 2, 1);
  o.tree.upsert = true;
  Cluster cluster(o);
  cluster.Start();
  ASSERT_TRUE(cluster.Insert(0, 7, 70).ok());
  ASSERT_TRUE(cluster.Insert(1, 7, 71).ok());
  auto result = cluster.Search(0, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 71u);
}

TEST(ClusterBasics, SequentialFillSplitsAndStaysCorrect) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 4, 7));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(300, 99)) {
    ASSERT_TRUE(cluster.Insert(k % 4, k, k * 2).ok()) << "key " << k;
    ASSERT_TRUE(oracle.Insert(k, k * 2).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  // 300 keys with fanout 6 must have grown a multi-level tree.
  auto copies = cluster.CollectCopies();
  int32_t max_level = 0;
  for (auto& [key, snap] : copies) max_level = std::max(max_level, snap.level);
  EXPECT_GE(max_level, 2);
}

TEST(ClusterBasics, OperationHopCountsAreReported) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 4, 3));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(100, 5)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
  }
  bool done = false;
  OpResult seen;
  cluster.SearchAsync(2, RandomKeys(100, 5)[50], [&](const OpResult& r) {
    seen = r;
    done = true;
  });
  ASSERT_TRUE(cluster.Settle());
  ASSERT_TRUE(done);
  EXPECT_GE(seen.hops, 2u) << "search must traverse root and leaf";
}

// --- Concurrent (adversarially interleaved) workloads ----------------

struct ProtocolSeedCase {
  ProtocolKind protocol;
  uint64_t seed;
};

class ConcurrentProtocolTest
    : public ::testing::TestWithParam<ProtocolSeedCase> {};

// Submit a batch of inserts from every processor *before* running the
// scheduler, so relays, splits and navigations interleave adversarially.
TEST_P(ConcurrentProtocolTest, BatchInsertsConvergeAndMatchOracle) {
  const auto& param = GetParam();
  ClusterOptions o = SimOptions(param.protocol, 5, param.seed);
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;

  std::vector<Key> keys = RandomKeys(400, param.seed * 31 + 7);
  int completions = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 5), keys[i],
                        keys[i] + 1,
                        [&](const OpResult& r) {
                          EXPECT_TRUE(r.status.ok());
                          ++completions;
                        });
    ASSERT_TRUE(oracle.Insert(keys[i], keys[i] + 1).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  EXPECT_EQ(completions, 400);
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);

  // Every key must be findable from every processor afterwards.
  for (size_t i = 0; i < keys.size(); i += 37) {
    auto result = cluster.Search(static_cast<ProcessorId>(i % 5), keys[i]);
    ASSERT_TRUE(result.ok()) << "key " << keys[i];
    EXPECT_EQ(*result, keys[i] + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndSeeds, ConcurrentProtocolTest,
    ::testing::Values(
        ProtocolSeedCase{ProtocolKind::kSemiSyncSplit, 1},
        ProtocolSeedCase{ProtocolKind::kSemiSyncSplit, 2},
        ProtocolSeedCase{ProtocolKind::kSemiSyncSplit, 3},
        ProtocolSeedCase{ProtocolKind::kSyncSplit, 1},
        ProtocolSeedCase{ProtocolKind::kSyncSplit, 2},
        ProtocolSeedCase{ProtocolKind::kSyncSplit, 3},
        ProtocolSeedCase{ProtocolKind::kVigorous, 1},
        ProtocolSeedCase{ProtocolKind::kVigorous, 2}),
    [](const ::testing::TestParamInfo<ProtocolSeedCase>& pinfo) {
      return std::string(ProtocolKindName(pinfo.param.protocol)) + "_seed" +
             std::to_string(pinfo.param.seed);
    });

// The Fig.-4 strawman must actually lose keys under racing splits —
// otherwise the "lost insert problem" benchmark measures nothing.
TEST(NaiveProtocol, LosesInsertsUnderConcurrency) {
  // Fig. 4 needs client inserts on *replicated* nodes, so replicate the
  // leaves (the general §4.1 fixed-copies model).
  uint64_t total_lost = 0;
  for (uint64_t seed = 1; seed <= 6 && total_lost == 0; ++seed) {
    ClusterOptions o = SimOptions(ProtocolKind::kNaive, 5, seed,
                                  /*fanout=*/4);
    o.tree.leaf_replication = 3;
    // The strawman loses inserts by design; the quiescence hook would
    // (correctly) abort the process before the test could count them.
    o.check_histories = false;
    Cluster cluster(o);
    cluster.Start();
    std::vector<Key> keys = RandomKeys(500, seed);
    for (size_t i = 0; i < keys.size(); ++i) {
      cluster.InsertAsync(static_cast<ProcessorId>(i % 5), keys[i], 1,
                          [](const OpResult&) {});
    }
    ASSERT_TRUE(cluster.Settle());
    const uint64_t leaf_drops = cluster.NetStats().dropped_leaf_relays;
    size_t stored = cluster.DumpLeaves().size();
    EXPECT_EQ(keys.size() - stored, leaf_drops)
        << "every dropped leaf relay is exactly one lost key";
    total_lost += leaf_drops;
  }
  // Seed 1 loses exactly this many (its handlers' own count before the
  // counters moved to the ledger).
  EXPECT_EQ(total_lost, 69u)
      << "no seed exercised the lost-insert race; workload too gentle";
}

// With the same replicated-leaf configuration, the paper's protocols must
// NOT lose anything — the exact contrast Fig. 4 vs Fig. 5 draws.
TEST(NaiveProtocol, SemiSyncSurvivesTheSameWorkload) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 5, seed,
                                  /*fanout=*/4);
    o.tree.leaf_replication = 3;
    Cluster cluster(o);
    cluster.Start();
    Oracle oracle;
    std::vector<Key> keys = RandomKeys(500, seed);
    for (size_t i = 0; i < keys.size(); ++i) {
      cluster.InsertAsync(static_cast<ProcessorId>(i % 5), keys[i], 1,
                          [](const OpResult&) {});
      ASSERT_TRUE(oracle.Insert(keys[i], 1).ok());
    }
    ASSERT_TRUE(cluster.Settle());
    ExpectMatchesOracle(cluster, oracle);
    ExpectCorrect(cluster);
  }
}

// The synchronous protocol must actually block inserts during splits —
// that stall is the cost Fig. 5 contrasts.
TEST(SyncProtocol, DefersInsertsDuringSplits) {
  ClusterOptions o = SimOptions(ProtocolKind::kSyncSplit, 5, 11,
                                /*fanout=*/4);
  Cluster cluster(o);
  cluster.Start();
  std::vector<Key> keys = RandomKeys(600, 17);
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 5), keys[i], 1,
                        [](const OpResult&) {});
  }
  ASSERT_TRUE(cluster.Settle());
  EXPECT_EQ(cluster.NetStats().deferred_inserts, 89u);
  ExpectCorrect(cluster);
}

// Interior replication factor below "everywhere" still works.
TEST(ClusterBasics, PartialInteriorReplication) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 8, 21);
  o.tree.interior_replication = 2;
  Cluster cluster(o);
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(300, 23);
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 8), keys[i],
                        keys[i] * 3, [](const OpResult&) {});
    ASSERT_TRUE(oracle.Insert(keys[i], keys[i] * 3).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

struct SplitCostCase {
  ProtocolKind protocol;
  uint32_t interior_replication;
};

class SplitCostTest : public ::testing::TestWithParam<SplitCostCase> {};

size_t LogicalNodes(Cluster& cluster) {
  size_t nodes = 0;
  for (const auto& [level, stats] : CollectTreeStats(cluster).levels) {
    nodes += stats.nodes;
  }
  return nodes;
}

// A split's separator insert starts at the splitting processor's local
// copy of the path above the node (§1.1, Fig. 2) and descends at most to
// the parent level, so a 20k-key load costs at most height insert
// actions per split. A stale stored parent pointer instead walks right
// along the whole parent level, and the cost grows with the tree.
TEST_P(SplitCostTest, SeparatorInsertsCostAtMostHeightPerSplit) {
  const SplitCostCase& param = GetParam();
  ClusterOptions o = SimOptions(param.protocol, 4, /*seed=*/1,
                                /*fanout=*/8);
  o.tree.track_history = false;
  o.tree.interior_replication = param.interior_replication;
  Cluster cluster(o);
  cluster.Start();
  const size_t nodes_before = LogicalNodes(cluster);
  const uint64_t inserts_before =
      cluster.NetStats().ActionCount(ActionKind::kInsert);

  workload::UniformDist keys(1ull << 40);
  workload::DriveResult load =
      workload::Load(cluster, {.mix = {},
                               .keys = &keys,
                               .ops = 20000,
                               .seed = 1,
                               .home = std::nullopt});
  ASSERT_EQ(load.failed + load.lost, 0u);

  const uint64_t inserts =
      cluster.NetStats().ActionCount(ActionKind::kInsert) - inserts_before;
  const size_t splits = LogicalNodes(cluster) - nodes_before;
  const int32_t height = CollectTreeStats(cluster).height;
  ASSERT_GT(splits, 1000u);
  EXPECT_LE(inserts, static_cast<uint64_t>(height) * splits)
      << static_cast<double>(inserts) / static_cast<double>(splits)
      << " insert actions per split, height " << height;
  EXPECT_TRUE(cluster.CheckTreeStructure().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SplitCostTest,
    ::testing::Values(SplitCostCase{ProtocolKind::kSyncSplit, 0},
                      SplitCostCase{ProtocolKind::kSyncSplit, 2},
                      SplitCostCase{ProtocolKind::kSemiSyncSplit, 0},
                      SplitCostCase{ProtocolKind::kSemiSyncSplit, 2},
                      SplitCostCase{ProtocolKind::kVigorous, 0},
                      SplitCostCase{ProtocolKind::kVigorous, 2},
                      SplitCostCase{ProtocolKind::kMobile, 0},
                      SplitCostCase{ProtocolKind::kMobile, 2},
                      SplitCostCase{ProtocolKind::kVarCopies, 0},
                      SplitCostCase{ProtocolKind::kVarCopies, 2}),
    [](const ::testing::TestParamInfo<SplitCostCase>& pinfo) {
      return std::string(ProtocolKindName(pinfo.param.protocol)) +
             "_replication" +
             std::to_string(pinfo.param.interior_replication);
    });

}  // namespace
}  // namespace lazytree
