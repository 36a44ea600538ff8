// The always-on §3.1 quiescence hook (ClusterOptions::check_histories):
// every Settle() that reaches quiescence re-verifies complete/compatible/
// ordered histories and dies on the first violation. These tests pin the
// three sides of that contract — correct protocols settle silently, a
// violating protocol dies at the earliest quiescent point (not at test
// teardown), and the CheckOptions policy knobs flow through ClusterOptions
// into both the hook and VerifyHistories().

#include <string>
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

TEST(QuiescenceCheck, MaxViolationsFlowsThroughOptions) {
  // The naive strawman produces many completeness violations across the
  // seed sweep; the Options-supplied cap must bound VerifyHistories().
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ClusterOptions o = SimOptions(ProtocolKind::kNaive, 5, seed,
                                  /*fanout=*/4);
    o.tree.leaf_replication = 3;
    o.check_histories = false;  // observe, don't die
    o.history_check.max_violations = 3;
    Cluster cluster(o);
    cluster.Start();
    DriveNaiveWorkload(cluster, seed);
    auto report = cluster.VerifyHistories();
    if (report.ok()) continue;  // gentle seed; try the next
    EXPECT_LE(report.violations.size(), 4u)  // 3 + suppression notice
        << report.ToString();
    return;
  }
  FAIL() << "no seed produced a violation to exercise the cap";
}

/// Duplicate-application violations under message duplication, with the
/// policy supplied through ClusterOptions.
std::vector<std::string> DuplicateViolations(uint64_t seed, bool allow) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 5, seed,
                                /*fanout=*/4);
  o.tree.leaf_replication = 3;
  o.check_histories = false;  // faults are injected deliberately
  o.history_check.allow_duplicate_applications = allow;
  o.history_check.max_violations = 64;
  o.faults.duplicate = 0.05;
  o.faults.seed = seed;
  o.reliable = 0;  // the duplicates must reach the copies
  Cluster cluster(o);
  cluster.Start();
  std::vector<Key> keys = RandomKeys(400, seed + 7);
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 5), keys[i], 1,
                        [](const OpResult&) {});
  }
  cluster.Settle();
  std::vector<std::string> dup;
  for (const std::string& v : cluster.VerifyHistories().violations) {
    if (v.find("applied ") != std::string::npos &&
        v.find("x at") != std::string::npos) {
      dup.push_back(v);
    }
  }
  return dup;
}

TEST(QuiescenceCheck, DuplicatePolicyFlowsThroughOptions) {
  // Same seed → same sim schedule → the only difference between the two
  // runs is the Options-supplied policy.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<std::string> strict = DuplicateViolations(seed, false);
    if (strict.empty()) continue;  // this seed's dups were all benign
    EXPECT_TRUE(DuplicateViolations(seed, true).empty())
        << "allow_duplicate_applications must silence re-apply findings";
    return;
  }
  FAIL() << "no seed produced a duplicate application to exercise policy";
}

}  // namespace
}  // namespace lazytree
