// Assumption validation and ablations.
//
// The paper's protocols assume a reliable, exactly-once, FIFO network
// (§4) and rely on the §4.3 version machinery for joins. These tests
// break each load-bearing piece deliberately and verify that the
// executable correctness theory *detects* the resulting damage — i.e.,
// that the checkers are sharp and the mechanisms are necessary, not
// decorative.

#include <gtest/gtest.h>

#include <set>

#include "src/protocol/varcopies.h"
#include "src/sim/explorer.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::RandomKeys;
using testing::SimOptions;

/// Damage score after running a replicated workload on a faulty network:
/// checker violations + client ops that never completed + keys missing.
struct Damage {
  size_t violations = 0;
  int lost_completions = 0;
  int64_t missing_keys = 0;
  bool any() const {
    return violations > 0 || lost_completions > 0 || missing_keys > 0;
  }
};

Damage RunWithFaults(uint64_t seed, double drop, double dup) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 5, seed,
                                /*fanout=*/4);
  o.tree.leaf_replication = 3;
  // This harness *measures* the damage faults cause; the quiescence hook
  // would abort on the first violation before Damage could be collected.
  o.check_histories = false;
  // Bare lossy links: the reliable layer would undo the damage.
  o.faults.drop = drop;
  o.faults.duplicate = dup;
  o.faults.seed = seed;
  o.reliable = 0;
  Cluster cluster(o);
  cluster.Start();
  std::set<Key> keys;
  Rng rng(seed + 7);
  while (keys.size() < 400) keys.insert(rng.Range(1, 1u << 30));
  int completions = 0;
  size_t i = 0;
  for (Key k : keys) {
    cluster.InsertAsync(static_cast<ProcessorId>(i++ % 5), k, 1,
                        [&](const OpResult&) { ++completions; });
  }
  cluster.Settle();
  Damage damage;
  damage.violations = cluster.VerifyHistories().violations.size();
  damage.lost_completions = static_cast<int>(keys.size()) - completions;
  damage.missing_keys = static_cast<int64_t>(keys.size()) -
                        static_cast<int64_t>(cluster.DumpLeaves().size());
  return damage;
}

TEST(NetworkAssumption, MessageLossBreaksTheProtocolDetectably) {
  // §4: "we assume that the network is reliable". Drop 2% of messages
  // and the checkers / clients must notice across a few seeds.
  bool detected = false;
  for (uint64_t seed = 1; seed <= 4 && !detected; ++seed) {
    detected = RunWithFaults(seed, /*drop=*/0.02, /*dup=*/0).any();
  }
  EXPECT_TRUE(detected)
      << "dropping messages must produce observable damage";
}

TEST(NetworkAssumption, DuplicationBreaksFixedCopiesDetectably) {
  // Exactly-once matters too: duplicated relays double-apply at copies
  // without update tracking... with tracking the checker flags them.
  bool detected = false;
  for (uint64_t seed = 1; seed <= 6 && !detected; ++seed) {
    Damage d = RunWithFaults(seed, /*drop=*/0, /*dup=*/0.05);
    detected = d.violations > 0;
  }
  EXPECT_TRUE(detected)
      << "duplicated messages must be flagged by the history checkers";
}

TEST(NetworkAssumption, CleanNetworkBaselineIsGreen) {
  Damage d = RunWithFaults(1, 0, 0);
  EXPECT_FALSE(d.any()) << "violations=" << d.violations
                        << " lost=" << d.lost_completions
                        << " missing=" << d.missing_keys;
}

// Faulty schedules detected under `kind` scheduling across a fixed seed
// budget (more detections = fewer seeds needed per repro on average).
constexpr uint64_t kSeedBudget = 12;
uint64_t DetectionsUnder(sim::StrategyKind kind, double drop) {
  uint64_t detections = 0;
  for (uint64_t seed = 1; seed <= kSeedBudget; ++seed) {
    sim::EpisodeConfig config;
    config.protocol = ProtocolKind::kSemiSyncSplit;
    config.processors = 4;
    config.seed = seed;
    config.rounds = 4;
    config.ops_per_round = 20;
    config.key_space = 256;
    config.fanout = 4;
    config.drop = drop;
    config.strategy.kind = kind;
    config.strategy.seed = seed;
    if (!sim::RunEpisode(config).ok) ++detections;
  }
  return detections;
}

// Ablation of the *schedule* dimension: sparse link loss must be
// detectable by the checkers under both delivery disciplines within a
// small seed budget. This used to rank PCT above uniform, but that edge
// came from self-send drops — schedule-independent guaranteed
// detections that no real lossy link can produce (a processor cannot
// lose its own in-process work) and that the fault model no longer
// injects. With only genuine link loss left, per-seed detection counts
// of the two strategies differ by noise; PCT's real leverage is
// ordering adversarial schedules, which schedule_explorer_test and the
// starve-victim heuristic of the exhaustive verifier cover.
TEST(NetworkAssumption, SparseLossIsDetectedUnderBothSchedulers) {
  const double drop = 0.008;
  uint64_t pct = DetectionsUnder(sim::StrategyKind::kPct, drop);
  uint64_t uniform = DetectionsUnder(sim::StrategyKind::kUniform, drop);
  EXPECT_GT(pct, 0u) << "PCT must detect 0.8% link loss within "
                     << kSeedBudget << " seeds";
  EXPECT_GT(uniform, 0u) << "uniform must detect 0.8% link loss within "
                         << kSeedBudget << " seeds";
}

// Ablation: without the §4.3 version-gated re-relay, the constructed
// Fig.-6 interleaving leaves the joiner's copy incomplete — and the
// compatible-history checker says so.
TEST(Fig6Ablation, DisablingReRelayYieldsIncompleteCopies) {
  for (bool ablate : {false, true}) {
    ClusterOptions o = SimOptions(ProtocolKind::kVarCopies, 4, 1,
                                  /*fanout=*/4);
    o.piggyback_window = 100000;
    o.tree.ablate_fig6_rerelay = ablate;
    // The ablated protocol is *expected* to violate completeness; the
    // test asserts on the report instead of dying at quiescence.
    o.check_histories = false;
    Cluster cluster(o);
    cluster.Start();
    Rng rng(5);
    std::set<Key> warm;
    while (warm.size() < 60) warm.insert(rng.Range(1000, 1u << 20));
    for (Key k : warm) ASSERT_TRUE(cluster.Insert(0, k, 1).ok());

    // Rightmost leaf to p1 (pruned-membership ancestors).
    NodeId moved = kInvalidNode;
    KeyRange moved_range;
    cluster.processor(0).store().ForEach([&](const Node& n) {
      if (n.is_leaf() &&
          (!moved.valid() || n.range().low > moved_range.low)) {
        moved = n.id();
        moved_range = n.range();
      }
    });
    cluster.MigrateNode(moved, 0, 1);
    ASSERT_TRUE(cluster.Settle());
    for (int i = 0; i < 8; ++i) {
      cluster.InsertAsync(1, moved_range.low + 1 + i, 7,
                          [](const OpResult&) {});
    }
    while (cluster.sim()->Step()) {
    }
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
    ASSERT_TRUE(cluster.Settle());

    auto report = cluster.VerifyHistories();
    if (ablate) {
      EXPECT_FALSE(report.ok())
          << "without re-relays the joiner's history must be incomplete";
    } else {
      EXPECT_TRUE(report.ok()) << report.ToString();
    }
  }
}

}  // namespace
}  // namespace lazytree
