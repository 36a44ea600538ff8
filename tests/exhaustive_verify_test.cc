// Exhaustive bounded verification tests (src/sim/exhaustive.h).
//
// These pin the acceptance surface of lazytree_verify: every battery item
// behaves as the battery demands within tier-1 time (clean items exhaust
// with at least their floor of transitions, so coverage cannot shrink
// silently, and two items with their exact counts, so the state
// fingerprint's partition cannot drift; planted mutations are found), the
// deep-tree items really race separator inserts against splits, the
// commutativity-guided POR + state dedup reduce the explored executions by
// well over the required factor versus the naive DFS, the POR runtime
// cross-check and prefix-replay determinism check stay silent on healthy
// code, and both planted protocol mutations are detected with a minimized
// trace that replays to the same failure under plain ReplayEpisode.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/core/cluster.h"
#include "src/core/inspect.h"
#include "src/protocol/sync_split.h"
#include "src/sim/exhaustive.h"

namespace lazytree {
namespace {

using sim::BatteryItem;
using sim::BoundedConfig;
using sim::EpisodeResult;
using sim::ReplayEpisode;
using sim::VerifyConfig;
using sim::VerifyExhaustive;
using sim::VerifyResult;

// The 4-processor membership-churn configuration whose starved schedules
// give the swap-ordered mutation a qualifying same-kind registration pair
// (two relayed joins/unjoins of different members queued on one channel).
// The battery's own item, so the test and lazytree_verify agree.
VerifyConfig SwapMutationConfig() {
  for (const BatteryItem& item : sim::VerifyBattery()) {
    if (item.label == "selftest-swap-ordered") return item.config;
  }
  ADD_FAILURE() << "battery lost its swap-ordered self-test";
  return VerifyConfig();
}

// Exact counts of two items. The state fingerprint decides which states
// the dedup cache merges, so a fingerprint that starts merging or
// splitting states differently moves these numbers.
struct PinnedCounts {
  const char* label;
  uint64_t executions;
  uint64_t transitions;
  uint64_t states;
};
constexpr PinnedCounts kPinned[] = {
    {"sync", 895, 19278, 1445},
    {"sync-drop1", 937, 17142, 2113},
};

// Every clean battery item (each protocol without drops and under drop
// budgets of one and two, and the deep-tree items) must exhaust with zero
// violations, zero cross-check failures and zero determinism failures,
// and explore at least its floor of transitions: a change that removes
// schedulable events fails here.
TEST(ExhaustiveVerify, BatteryItemsExhaustCleanAboveTransitionFloors) {
  size_t clean = 0;
  size_t pinned = 0;
  for (const BatteryItem& item : sim::VerifyBattery()) {
    if (item.expect_violation) continue;
    SCOPED_TRACE(item.label);
    ++clean;
    VerifyResult result = VerifyExhaustive(item.config);
    for (const PinnedCounts& pin : kPinned) {
      if (item.label != pin.label) continue;
      ++pinned;
      EXPECT_EQ(result.stats.executions, pin.executions);
      EXPECT_EQ(result.stats.transitions, pin.transitions);
      EXPECT_EQ(result.stats.states, pin.states);
    }
    EXPECT_EQ(sim::CheckBatteryItem(item, result), "") << result.Summary();
    EXPECT_GT(item.min_transitions, 0u) << "every clean item needs a floor";
    EXPECT_GE(result.stats.transitions, item.min_transitions);
    EXPECT_TRUE(result.violations.empty());
    EXPECT_GT(result.stats.schedules, 0u);
    EXPECT_GT(result.stats.pruned_sleep, 0u);  // POR actually engaged
    EXPECT_GT(result.stats.cross_checks, 0u);
    EXPECT_EQ(result.stats.cross_check_failures, 0u);
    EXPECT_EQ(result.stats.determinism_failures, 0u);
  }
  EXPECT_EQ(clean, 14u);
  EXPECT_EQ(pinned, std::size(kPinned));
}

// What the deep-tree items are for, checked on random schedules of their
// workloads (the verifier itself explores every schedule): the tree
// reaches three levels, the second round splits two leaves and their
// level-1 parent, a separator insert is applied first at a non-PC copy,
// and the protocol's own race handling runs — sync defers an initial
// insert while a split's AAS is open, semisync rewrites a separator
// insert that reached a stale copy.
TEST(ExhaustiveVerify, DeepItemsRaceSeparatorInsertsAgainstSplits) {
  size_t deep = 0;
  for (const BatteryItem& item : sim::VerifyBattery()) {
    if (!item.label.ends_with("-deep")) continue;
    SCOPED_TRACE(item.label);
    ++deep;
    const sim::EpisodeConfig& episode = item.config.episode;
    ASSERT_EQ(episode.rounds, 2u);
    int both_levels_split = 0;
    int non_pc_separator = 0;
    int race_handled = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      sim::StrategyOptions options;
      options.kind = sim::StrategyKind::kUniform;
      options.seed = seed;
      std::unique_ptr<net::ScheduleStrategy> strategy =
          sim::MakeStrategy(options);
      std::set<UpdateId> first_round;
      sim::EpisodeHooks hooks;
      hooks.on_quiescent = [&](Cluster& cluster, uint32_t round) {
        const auto copies = cluster.history_log().Copies();
        if (round == 0) {
          for (const auto& [key, hist] : copies) {
            for (const history::Record& r : hist.records) {
              first_round.insert(r.update);
            }
          }
          return;
        }
        if (round != 1) return;
        EXPECT_GE(CollectTreeStats(cluster).height, 3);
        std::map<int32_t, std::set<UpdateId>> splits;
        bool non_pc = false;
        bool rewritten = false;
        for (const auto& [key, hist] : copies) {
          const Node* node = nullptr;
          for (ProcessorId p = 0; p < cluster.size() && node == nullptr;
               ++p) {
            node = cluster.processor(p).store().Get(key.node);
          }
          if (node == nullptr) continue;
          for (const history::Record& r : hist.records) {
            if (first_round.contains(r.update)) continue;
            if (r.cls == history::UpdateClass::kSplit && r.initial) {
              splits[node->level()].insert(r.update);
            }
            if (r.cls != history::UpdateClass::kInsert || node->level() < 1) {
              continue;
            }
            non_pc |= r.initial && r.copy != node->pc();
            rewritten |= r.rewritten;
          }
        }
        both_levels_split += splits[0].size() >= 2 && !splits[1].empty();
        non_pc_separator += non_pc;
        if (episode.protocol == ProtocolKind::kSemiSyncSplit) {
          race_handled += rewritten;
        } else {
          for (ProcessorId p = 0; p < cluster.size(); ++p) {
            auto* sync = dynamic_cast<SyncSplitProtocol*>(
                cluster.processor(p).handler());
            if (sync != nullptr && sync->deferred_inserts() > 0) {
              ++race_handled;
              break;
            }
          }
        }
      };
      sim::EpisodeResult result =
          sim::RunEpisodeUnder(episode, strategy.get(), nullptr, hooks);
      EXPECT_TRUE(result.ok) << result.Signature();
    }
    EXPECT_GT(both_levels_split, 0);
    EXPECT_GT(non_pc_separator, 0);
    EXPECT_GT(race_handled, 0);
  }
  EXPECT_EQ(deep, 2u);
}

// The reductions must buy at least the required 5x over naive DFS on the
// semisync config. The naive run is capped at 32x the reduced execution
// count: either it exhausts below the cap (exact ratio, still >= 5x) or it
// hits the cap (ratio >= 32x, proven without running the full space).
TEST(ExhaustiveVerify, ReductionsBeatNaiveDfsByRequiredFactor) {
  VerifyConfig reduced = BoundedConfig(ProtocolKind::kSemiSyncSplit);
  VerifyResult fast = VerifyExhaustive(reduced);
  ASSERT_TRUE(fast.ok && fast.exhausted) << fast.Summary();

  VerifyConfig naive = reduced;
  naive.por = false;
  naive.dedup = false;
  naive.cross_check_samples = 0;
  naive.max_executions = fast.stats.executions * 32;
  VerifyResult slow = VerifyExhaustive(naive);
  EXPECT_TRUE(slow.ok) << slow.Summary();
  EXPECT_GE(slow.stats.executions, fast.stats.executions * 5)
      << "naive: " << slow.Summary() << "\nreduced: " << fast.Summary();
  // Naive exhaustion (when it fits the cap) must agree: no violations.
  if (slow.exhausted) {
    EXPECT_TRUE(slow.violations.empty());
  }
}

// Planted mutation 1: a dropped relayed lazy update must be flagged by the
// S3.1 compatible-histories check, and the minimized trace must replay to
// the same failure through the ordinary replay path.
TEST(ExhaustiveVerify, DetectsDroppedRelayWithReplayableTrace) {
  VerifyConfig config = BoundedConfig(ProtocolKind::kSemiSyncSplit);
  config.episode.mutation = net::ScheduleMutation::kDropRelay;
  VerifyResult result = VerifyExhaustive(config);
  ASSERT_FALSE(result.ok) << "planted mutation not detected";
  EXPECT_GT(result.stats.mutation_fired, 0u);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations[0].find("compatible"), std::string::npos)
      << result.violations[0];

  EpisodeResult replayed = ReplayEpisode(config.episode, result.trace);
  EXPECT_FALSE(replayed.ok) << "minimized trace must replay to failure";
}

// Planted mutation 2: swapping two version-ordered same-kind membership
// registrations past each other on one channel must diverge the receiving
// copy's history (the version gate drops the older registration), and the
// starvation-directed search must find it within budget.
TEST(ExhaustiveVerify, DetectsSwappedMembershipPairWithReplayableTrace) {
  VerifyConfig config = SwapMutationConfig();
  VerifyResult result = VerifyExhaustive(config);
  ASSERT_FALSE(result.ok) << "planted mutation not detected: "
                          << result.Summary();
  EXPECT_GT(result.stats.mutation_fired, 0u);
  ASSERT_FALSE(result.violations.empty());

  EpisodeResult replayed = ReplayEpisode(config.episode, result.trace);
  EXPECT_FALSE(replayed.ok) << "minimized trace must replay to failure";
  EXPECT_EQ(replayed.Signature(), result.violations[0]);
}

// A mutation planted in a config whose schedules never produce a
// qualifying pair must simply not fire — the verifier reports a clean
// exhaustion rather than a false positive (2 processors never relay
// membership, so swap-ordered has nothing to swap).
TEST(ExhaustiveVerify, UnfirableMutationYieldsCleanExhaustion) {
  VerifyConfig config = BoundedConfig(ProtocolKind::kVarCopies);
  config.episode.mutation = net::ScheduleMutation::kSwapOrdered;
  VerifyResult result = VerifyExhaustive(config);
  EXPECT_TRUE(result.ok) << result.Summary();
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.stats.mutation_fired, 0u);
}

}  // namespace
}  // namespace lazytree
