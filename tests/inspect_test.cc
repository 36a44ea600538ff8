// Introspection tests: tree statistics and DOT export.

#include <gtest/gtest.h>

#include "src/core/inspect.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::RandomKeys;
using testing::SimOptions;

TEST(TreeStatsTest, CountsMatchReality) {
  Cluster cluster(SimOptions(ProtocolKind::kSemiSyncSplit, 4, 1));
  cluster.Start();
  std::vector<Key> keys = RandomKeys(300, 5);
  for (Key k : keys) ASSERT_TRUE(cluster.Insert(k % 4, k, k).ok());

  TreeStats stats = CollectTreeStats(cluster);
  EXPECT_EQ(stats.keys, keys.size());
  EXPECT_GE(stats.height, 3);
  ASSERT_TRUE(stats.levels.contains(0));
  EXPECT_DOUBLE_EQ(stats.levels[0].replication(), 1.0)
      << "leaves are single-copy";
  // Interior levels are replicated everywhere in fixed mode.
  EXPECT_DOUBLE_EQ(stats.levels[stats.height - 1].replication(), 4.0);
  size_t leaves = 0;
  for (auto& [host, count] : stats.leaves_per_host) leaves += count;
  EXPECT_EQ(leaves, stats.levels[0].nodes);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(TreeStatsTest, FillFractionReflectsUtilization) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 2, 3,
                                /*fanout=*/8);
  Cluster cluster(o);
  cluster.Start();
  for (Key k : RandomKeys(400, 7)) {
    ASSERT_TRUE(cluster.Insert(k % 2, k, k).ok());
  }
  TreeStats stats = CollectTreeStats(cluster);
  double fill = stats.levels[0].fill(8);
  EXPECT_GT(fill, 0.4);
  EXPECT_LE(fill, 1.0);
}

TEST(DotExport, ContainsEveryNodeAndValidStructure) {
  Cluster cluster(SimOptions(ProtocolKind::kVarCopies, 3, 9));
  cluster.Start();
  for (Key k : RandomKeys(120, 11)) {
    ASSERT_TRUE(cluster.Insert(0, k, k).ok());
  }
  std::string dot = ExportDot(cluster);
  EXPECT_NE(dot.find("digraph lazytree"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  // Every logical node appears.
  for (auto& [key, snap] : cluster.CollectCopies()) {
    std::string quoted(1, '"');
    quoted += key.node.ToString();
    quoted += '"';
    EXPECT_NE(dot.find(quoted), std::string::npos)
        << key.node.ToString();
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

}  // namespace
}  // namespace lazytree
