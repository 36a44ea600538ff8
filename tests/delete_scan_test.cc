// Deletes (the paper's stated future work, realized with the
// free-at-empty / never-merge policy of [11]) and B-link range scans,
// across every protocol.

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;
using testing::SimOptions;

class DeleteScanTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DeleteScanTest, DeleteBasics) {
  Cluster cluster(SimOptions(GetParam(), 4, 1));
  cluster.Start();
  ASSERT_TRUE(cluster.Insert(0, 10, 100).ok());
  ASSERT_TRUE(cluster.Insert(1, 20, 200).ok());

  EXPECT_TRUE(cluster.Delete(2, 10).ok());
  EXPECT_EQ(cluster.Delete(3, 10).code(), StatusCode::kNotFound)
      << "double delete misses";
  EXPECT_EQ(cluster.Search(0, 10).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster.Search(0, 20).ok()) << "other keys unaffected";
  EXPECT_EQ(cluster.Delete(0, 999).code(), StatusCode::kNotFound);
  ExpectCorrect(cluster);
}

TEST_P(DeleteScanTest, InsertDeleteChurnMatchesOracle) {
  Cluster cluster(SimOptions(GetParam(), 4, 3));
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(300, 7);
  for (Key k : keys) {
    ASSERT_TRUE(cluster.Insert(k % 4, k, k).ok());
    ASSERT_TRUE(oracle.Insert(k, k).ok());
  }
  // Delete every third key (settled keys: no same-key races).
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(cluster.Delete(i % 4, keys[i]).ok()) << keys[i];
    ASSERT_TRUE(oracle.Delete(keys[i]).ok());
  }
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
  // Re-insert a deleted key.
  ASSERT_TRUE(cluster.Insert(0, keys[0], 777).ok());
  auto hit = cluster.Search(1, keys[0]);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 777u);
}

TEST_P(DeleteScanTest, ConcurrentDisjointDeletesConverge) {
  Cluster cluster(SimOptions(GetParam(), 5, 9, /*fanout=*/4));
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(400, 11);
  size_t i = 0;
  for (Key k : keys) {
    cluster.InsertAsync(static_cast<ProcessorId>(i++ % 5), k, 1,
                        [](const OpResult&) {});
    ASSERT_TRUE(oracle.Insert(k, 1).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  // Delete half of them, all in flight at once, from every processor.
  int completions = 0;
  for (size_t j = 0; j < keys.size(); j += 2) {
    cluster.DeleteAsync(static_cast<ProcessorId>(j % 5), keys[j],
                        [&](const OpResult& r) {
                          EXPECT_TRUE(r.status.ok()) << r.key;
                          ++completions;
                        });
    ASSERT_TRUE(oracle.Delete(keys[j]).ok());
  }
  ASSERT_TRUE(cluster.Settle());
  EXPECT_EQ(completions, static_cast<int>((keys.size() + 1) / 2));
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

TEST_P(DeleteScanTest, FreeAtEmptyNodesSurviveTotalDeletion) {
  // Empty every leaf; the structure (never merged) must keep working.
  Cluster cluster(SimOptions(GetParam(), 3, 13));
  cluster.Start();
  std::vector<Key> keys = RandomKeys(150, 17);
  for (Key k : keys) ASSERT_TRUE(cluster.Insert(k % 3, k, k).ok());
  for (Key k : keys) ASSERT_TRUE(cluster.Delete(k % 3, k).ok());
  EXPECT_TRUE(cluster.DumpLeaves().empty());
  auto structure = cluster.CheckTreeStructure();
  EXPECT_TRUE(structure.empty()) << structure.front();
  // Still fully usable.
  ASSERT_TRUE(cluster.Insert(0, keys[5], 5).ok());
  auto hit = cluster.Search(2, keys[5]);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 5u);
  ExpectCorrect(cluster);
}

TEST_P(DeleteScanTest, ScanReturnsSortedRange) {
  Cluster cluster(SimOptions(GetParam(), 4, 19));
  cluster.Start();
  Oracle oracle;
  for (Key k : RandomKeys(250, 23)) {
    ASSERT_TRUE(cluster.Insert(k % 4, k, k * 2).ok());
    ASSERT_TRUE(oracle.Insert(k, k * 2).ok());
  }
  // Scans from assorted starting points and limits, vs the oracle.
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    Key start = rng.Range(0, 1u << 30);
    uint64_t limit = 1 + rng.Below(40);
    auto got = cluster.Scan(trial % 4, start, limit);
    ASSERT_TRUE(got.ok());
    std::vector<Entry> want = oracle.Scan(start, limit);
    ASSERT_EQ(got->size(), want.size())
        << "start=" << start << " limit=" << limit;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].key, want[i].key);
      EXPECT_EQ((*got)[i].payload, want[i].payload);
    }
  }
  // Full-tree scan equals the dump.
  auto all = cluster.Scan(0, 0, 100000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), oracle.size());
}

TEST_P(DeleteScanTest, ScanAcrossEmptiedLeaves) {
  Cluster cluster(SimOptions(GetParam(), 3, 31));
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(200, 37);
  for (Key k : keys) {
    ASSERT_TRUE(cluster.Insert(k % 3, k, 1).ok());
    ASSERT_TRUE(oracle.Insert(k, 1).ok());
  }
  // Carve a hole in the middle of the key space.
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = sorted.size() / 4; i < 3 * sorted.size() / 4; ++i) {
    ASSERT_TRUE(cluster.Delete(0, sorted[i]).ok());
    ASSERT_TRUE(oracle.Delete(sorted[i]).ok());
  }
  // A scan straddling the hole walks the emptied leaves transparently.
  Key start = sorted[sorted.size() / 4 - 2];
  auto got = cluster.Scan(1, start, 30);
  ASSERT_TRUE(got.ok());
  std::vector<Entry> want = oracle.Scan(start, 30);
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i].key, want[i].key);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DeleteScanTest,
    ::testing::Values(ProtocolKind::kSemiSyncSplit, ProtocolKind::kSyncSplit,
                      ProtocolKind::kVigorous, ProtocolKind::kMobile,
                      ProtocolKind::kVarCopies),
    [](const ::testing::TestParamInfo<ProtocolKind>& pinfo) {
      return std::string(ProtocolKindName(pinfo.param));
    });

// Replicated-leaf deletes exercise the relayed-delete paths.
TEST(DeleteReplicated, RelayedDeletesConvergeOnReplicatedLeaves) {
  for (ProtocolKind protocol :
       {ProtocolKind::kSemiSyncSplit, ProtocolKind::kSyncSplit,
        ProtocolKind::kVigorous}) {
    ClusterOptions o = SimOptions(protocol, 5, 41, /*fanout=*/4);
    o.tree.leaf_replication = 3;
    Cluster cluster(o);
    cluster.Start();
    Oracle oracle;
    std::vector<Key> keys = RandomKeys(300, 43);
    size_t i = 0;
    for (Key k : keys) {
      cluster.InsertAsync(static_cast<ProcessorId>(i++ % 5), k, 2,
                          [](const OpResult&) {});
      ASSERT_TRUE(oracle.Insert(k, 2).ok());
    }
    ASSERT_TRUE(cluster.Settle());
    for (size_t j = 0; j < keys.size(); j += 2) {
      cluster.DeleteAsync(static_cast<ProcessorId>(j % 5), keys[j],
                          [](const OpResult&) {});
      ASSERT_TRUE(oracle.Delete(keys[j]).ok());
    }
    ASSERT_TRUE(cluster.Settle());
    ExpectMatchesOracle(cluster, oracle);
    ExpectCorrect(cluster);
  }
}

// Deletes racing splits. Under semisync, out-of-range relayed deletes hit
// the history rewrite, exactly like inserts in Fig. 5: every seed records
// rewritten deletes. Under sync, the split's AAS defers the initial
// updates that reach a copy while it is open; a relayed delete that
// reached the PC after its split would fail the sync PC's check.
TEST(DeleteReplicated, DeletesRacingSplitsRewriteHistory) {
  for (ProtocolKind protocol :
       {ProtocolKind::kSemiSyncSplit, ProtocolKind::kSyncSplit}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << ProtocolKindName(protocol)
                                        << " seed " << seed);
      ClusterOptions o = SimOptions(protocol, 5, seed, /*fanout=*/4);
      o.tree.leaf_replication = 3;
      Cluster cluster(o);
      cluster.Start();
      Oracle oracle;
      std::vector<Key> keys = RandomKeys(250, seed + 5);
      for (Key k : keys) {
        ASSERT_TRUE(cluster.Insert(k % 5, k, 2).ok());
        ASSERT_TRUE(oracle.Insert(k, 2).ok());
      }
      // Interleave: a wave of new inserts (forcing splits) with deletes of
      // existing keys, all racing.
      std::vector<Key> wave = RandomKeys(250, seed + 500);
      for (size_t i = 0; i < wave.size(); ++i) {
        if (oracle.Insert(wave[i], 3).ok()) {
          cluster.InsertAsync(static_cast<ProcessorId>(i % 5), wave[i], 3,
                              [](const OpResult&) {});
        }
        if (i < keys.size() && i % 2 == 0) {
          cluster.DeleteAsync(static_cast<ProcessorId>((i + 1) % 5), keys[i],
                              [](const OpResult&) {});
          ASSERT_TRUE(oracle.Delete(keys[i]).ok());
        }
      }
      ASSERT_TRUE(cluster.Settle());
      ExpectMatchesOracle(cluster, oracle);
      ExpectCorrect(cluster);
      if (protocol == ProtocolKind::kSemiSyncSplit) {
        size_t rewritten_deletes = 0;
        for (const auto& [key, hist] : cluster.history_log().Copies()) {
          for (const history::Record& r : hist.records) {
            rewritten_deletes +=
                r.cls == history::UpdateClass::kDelete && r.rewritten;
          }
        }
        EXPECT_GT(rewritten_deletes, 0u);
      } else {
        EXPECT_GT(cluster.NetStats().deferred_inserts, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace lazytree
