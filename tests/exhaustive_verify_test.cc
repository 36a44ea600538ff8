// Exhaustive bounded verification tests (src/sim/exhaustive.h).
//
// These pin the acceptance surface of lazytree_verify: every battery item
// behaves as the battery demands within tier-1 time (clean items exhaust
// with at least their floor of transitions, so coverage cannot shrink
// silently, and with their exact counts, so neither the state
// fingerprint's partition nor the protocols' messages can drift; planted
// mutations are found), the deep-tree items really race separator inserts
// against splits, the delete items really relay deletes, the
// commutativity-guided POR + state dedup reduce the explored executions by
// well over the required factor versus the naive DFS, the POR runtime
// cross-check and prefix-replay determinism check stay silent on healthy
// code, and both planted protocol mutations are detected with a minimized
// trace that replays to the same failure under plain ReplayEpisode.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/core/cluster.h"
#include "src/core/inspect.h"
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

// Exact counts of every clean item. The state fingerprint decides which
// states the dedup cache merges, and every message a protocol sends is a
// transition, so a fingerprint that merges or splits states differently,
// or a protocol change that moves, adds or drops one action, moves these
// numbers.
struct PinnedCounts {
  const char* label;
  uint64_t executions;
  uint64_t transitions;
  uint64_t states;
};
constexpr PinnedCounts kPinned[] = {
    {"sync", 895, 19278, 1445},
    {"semisync", 7384, 157951, 7764},
    {"mobile", 914, 21932, 769},
    {"varcopies", 218, 3706, 194},
    {"sync-deep", 396, 13843, 919},
    {"semisync-deep", 137, 4458, 173},
    {"sync-delete", 676, 17387, 670},
    {"semisync-delete", 59, 945, 73},
    {"vigorous", 440, 11805, 1229},
    {"vigorous-delete", 1345, 46996, 2060},
    {"varcopies-split", 997, 21583, 804},
    {"sync-drop1", 937, 17142, 2113},
    {"semisync-drop1", 894, 14304, 1645},
    {"mobile-drop1", 298, 4670, 552},
    {"varcopies-drop1", 342, 5753, 585},
    {"sync-drop2", 3066, 60277, 6398},
    {"semisync-drop2", 2674, 46473, 4710},
    {"mobile-drop2", 832, 14326, 1708},
    {"varcopies-drop2", 1068, 19753, 1853},
};

// Every clean battery item (each protocol without drops and under drop
// budgets of one and two, the deep-tree, the delete, the vigorous and
// the varcopies-split items) must exhaust with its pinned counts and zero
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
    const PinnedCounts* pin = std::ranges::find_if(
        kPinned, [&](const PinnedCounts& p) { return item.label == p.label; });
    if (pin != std::end(kPinned)) {
      ++pinned;
      EXPECT_EQ(result.stats.executions, pin->executions);
      EXPECT_EQ(result.stats.transitions, pin->transitions);
      EXPECT_EQ(result.stats.states, pin->states);
    } else {
      ADD_FAILURE() << "clean item without pinned counts";
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
  EXPECT_EQ(clean, 19u);
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
          race_handled += cluster.NetStats().deferred_inserts > 0;
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

// What the lazy delete items are for. Round 0 only inserts, so the second
// round's workload must hold a delete; on random schedules of it every
// run relays a delete to the leaf's second copy, and the protocol's race
// handling runs in some: sync defers an initial update while a split's
// AAS is open, semisync rewrites a relayed delete that a split overtook.
// (The vigorous baseline relays nothing; its items are checked below.)
TEST(ExhaustiveVerify, DeleteItemsRelayDeletesAcrossSplits) {
  size_t items = 0;
  for (const BatteryItem& item : sim::VerifyBattery()) {
    if (!item.label.ends_with("-delete") ||
        item.config.episode.protocol == ProtocolKind::kVigorous) {
      continue;
    }
    SCOPED_TRACE(item.label);
    ++items;
    const sim::EpisodeConfig& episode = item.config.episode;
    ASSERT_EQ(episode.rounds, 2u);
    ASSERT_GE(episode.leaf_replication, 2u);
    const auto rounds = sim::GenerateEpisodeWorkload(episode);
    EXPECT_GE(std::ranges::count(rounds[1], sim::WorkKind::kDelete,
                                 &sim::WorkOp::kind),
              1);
    int race_handled = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      sim::StrategyOptions options;
      options.kind = sim::StrategyKind::kUniform;
      options.seed = seed;
      std::unique_ptr<net::ScheduleStrategy> strategy =
          sim::MakeStrategy(options);
      sim::EpisodeHooks hooks;
      hooks.on_quiescent = [&](Cluster& cluster, uint32_t round) {
        if (round != 1) return;
        const net::StatsSnapshot stats = cluster.NetStats();
        EXPECT_GT(stats.ActionCount(ActionKind::kRelayedDelete), 0u);
        bool rewritten = false;
        for (const auto& [key, hist] : cluster.history_log().Copies()) {
          for (const history::Record& r : hist.records) {
            rewritten |= r.cls == history::UpdateClass::kDelete && r.rewritten;
          }
        }
        if (episode.protocol == ProtocolKind::kSemiSyncSplit) {
          race_handled += rewritten;
        } else {
          race_handled += stats.deferred_inserts > 0;
        }
      };
      sim::EpisodeResult result =
          sim::RunEpisodeUnder(episode, strategy.get(), nullptr, hooks);
      EXPECT_TRUE(result.ok) << result.Signature();
    }
    EXPECT_GT(race_handled, 0);
  }
  EXPECT_EQ(items, 2u);
}

// What the vigorous items are for: on random schedules of their workloads
// the PC's rounds reach the leaf's second copy as applies, every run of
// each item applies a split there, and every run of vigorous-delete
// applies a delete there too.
TEST(ExhaustiveVerify, VigorousItemsApplySplitsAndDeletesAtCopies) {
  size_t items = 0;
  for (const BatteryItem& item : sim::VerifyBattery()) {
    if (item.config.episode.protocol != ProtocolKind::kVigorous) continue;
    SCOPED_TRACE(item.label);
    ++items;
    const sim::EpisodeConfig& episode = item.config.episode;
    ASSERT_GE(episode.leaf_replication, 2u);
    const bool deletes = item.label.ends_with("-delete");
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      sim::StrategyOptions options;
      options.kind = sim::StrategyKind::kUniform;
      options.seed = seed;
      std::unique_ptr<net::ScheduleStrategy> strategy =
          sim::MakeStrategy(options);
      sim::EpisodeHooks hooks;
      hooks.on_quiescent = [&](Cluster& cluster, uint32_t round) {
        if (round + 1 != episode.rounds) return;
        const net::StatsSnapshot stats = cluster.NetStats();
        EXPECT_GT(stats.ActionCount(ActionKind::kVigorousApplySplit), 0u);
        if (deletes) {
          EXPECT_GT(stats.ActionCount(ActionKind::kVigorousApplyDelete), 0u);
        }
      };
      sim::EpisodeResult result =
          sim::RunEpisodeUnder(episode, strategy.get(), nullptr, hooks);
      EXPECT_TRUE(result.ok) << result.Signature();
    }
  }
  EXPECT_EQ(items, 2u);
}

// What the varcopies-split item is for, checked on random schedules of
// its workload: the root, held by both processors, splits at its PC and
// the PC relays the split to the other copy. Varcopies leaves have one
// copy here, so every relayed split is an interior node's.
TEST(ExhaustiveVerify, VarcopiesSplitItemRelaysAnInteriorSplit) {
  size_t items = 0;
  for (const BatteryItem& item : sim::VerifyBattery()) {
    if (item.label != "varcopies-split") continue;
    ++items;
    const sim::EpisodeConfig& episode = item.config.episode;
    ASSERT_EQ(episode.leaf_replication, 1u);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      sim::StrategyOptions options;
      options.kind = sim::StrategyKind::kUniform;
      options.seed = seed;
      std::unique_ptr<net::ScheduleStrategy> strategy =
          sim::MakeStrategy(options);
      sim::EpisodeHooks hooks;
      hooks.on_quiescent = [&](Cluster& cluster, uint32_t) {
        EXPECT_GT(cluster.NetStats().ActionCount(ActionKind::kRelayedSplit),
                  0u)
            << "seed " << seed;
      };
      sim::EpisodeResult result =
          sim::RunEpisodeUnder(episode, strategy.get(), nullptr, hooks);
      EXPECT_TRUE(result.ok) << result.Signature();
    }
  }
  EXPECT_EQ(items, 1u);
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
