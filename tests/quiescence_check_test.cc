// The always-on §3.1 quiescence hook (ClusterOptions::check_histories):
// every Settle() that reaches quiescence re-verifies complete/compatible/
// ordered histories and dies on the first violation. These tests pin the
// sides of that contract — correct protocols settle silently, a violating
// protocol dies at the earliest quiescent point (not at test teardown),
// and the hook stays inert without history tracking.

#include <vector>

#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::RandomKeys;
using testing::SimOptions;

void DriveNaiveWorkload(Cluster& cluster, uint64_t seed) {
  std::vector<Key> keys = RandomKeys(500, seed);
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 5), keys[i], 1,
                        [](const OpResult&) {});
  }
  cluster.Settle();
}

TEST(QuiescenceCheckDeathTest, NaiveViolationDiesAtFirstQuiescentPoint) {
  // The Fig.-4 strawman loses inserts under racing splits; with the hook
  // left at its default the process must die inside Settle(), naming the
  // broken requirement — not limp along until someone calls
  // VerifyHistories().
  EXPECT_DEATH(
      {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
          ClusterOptions o = SimOptions(ProtocolKind::kNaive, 5, seed,
                                        /*fanout=*/4);
          o.tree.leaf_replication = 3;
          Cluster cluster(o);
          cluster.Start();
          DriveNaiveWorkload(cluster, seed);
        }
      },
      "3.1 invariant violated at quiescence");
}

TEST(QuiescenceCheck, CorrectProtocolSettlesWithHookOn) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 4, 7);
  ASSERT_TRUE(o.check_histories) << "the hook must default on in tests";
  Cluster cluster(o);
  cluster.Start();
  for (Key k : RandomKeys(200, 7)) {
    cluster.InsertAsync(static_cast<ProcessorId>(k % 4), k, k + 1,
                        [](const OpResult&) {});
  }
  EXPECT_TRUE(cluster.Settle());
  testing::ExpectCorrect(cluster);
}

TEST(QuiescenceCheck, HookIsInertWithoutHistoryTracking) {
  // Without tracking there is no log to verify; the same violating
  // workload must settle instead of dying (benches run this way).
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ClusterOptions o = SimOptions(ProtocolKind::kNaive, 5, seed,
                                  /*fanout=*/4);
    o.tree.leaf_replication = 3;
    o.tree.track_history = false;
    Cluster cluster(o);
    cluster.Start();
    DriveNaiveWorkload(cluster, seed);
  }
}

}  // namespace
}  // namespace lazytree
