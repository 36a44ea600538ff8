// Schedule-exploration harness tests (src/sim/).
//
// The adversarial strategies must preserve correctness on every shipped
// protocol: a PCT or starvation schedule is still a legal asynchronous
// execution, so CheckAll, the structural walk, and exact oracle
// equivalence must hold for every (protocol, strategy, seed) episode.
// On top of that, the trace machinery itself is pinned down: a
// checked-in trace replays byte-for-byte, and the delta-debugging
// minimizer shrinks a genuinely failing (fault-injected) schedule to a
// smaller one that reproduces the identical violation deterministically.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/sim/explorer.h"
#include "src/sim/minimize.h"

namespace lazytree {
namespace {

using sim::EpisodeConfig;
using sim::EpisodeResult;
using sim::MinimizeResult;
using sim::ScheduleTrace;
using sim::StrategyKind;

EpisodeConfig BaseConfig(ProtocolKind protocol, StrategyKind strategy,
                         uint64_t seed) {
  EpisodeConfig config;
  config.protocol = protocol;
  config.processors = 4;
  config.seed = seed;
  config.rounds = 4;
  config.ops_per_round = 20;
  config.key_space = 256;
  config.fanout = 6;
  config.strategy.kind = strategy;
  config.strategy.seed = seed;
  config.strategy.pct_depth = 3;
  config.strategy.pct_expected_events = 2048;
  config.strategy.starve_victim = static_cast<ProcessorId>(seed % 4);
  return config;
}

constexpr ProtocolKind kShipped[] = {
    ProtocolKind::kSyncSplit, ProtocolKind::kSemiSyncSplit,
    ProtocolKind::kVigorous, ProtocolKind::kMobile,
    ProtocolKind::kVarCopies};

// Every clean episode must pass the whole battery: CheckAll, structure,
// per-key fate, all ops completed, and oracle-exact return codes and
// final dictionary (EpisodeResult.ok is the conjunction).
TEST(ScheduleExplorer, PctSchedulesPreserveCorrectnessOnAllProtocols) {
  for (ProtocolKind protocol : kShipped) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      EpisodeConfig config =
          BaseConfig(protocol, StrategyKind::kPct, seed);
      EpisodeResult result = sim::RunEpisode(config);
      EXPECT_TRUE(result.ok)
          << ProtocolKindName(protocol) << "/pct seed=" << seed << ": "
          << result.Signature();
      EXPECT_EQ(result.ops_completed, result.ops_submitted);
    }
  }
}

TEST(ScheduleExplorer, StarvationSchedulesPreserveCorrectnessOnAllProtocols) {
  for (ProtocolKind protocol : kShipped) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      EpisodeConfig config =
          BaseConfig(protocol, StrategyKind::kStarve, seed);
      EpisodeResult result = sim::RunEpisode(config);
      EXPECT_TRUE(result.ok)
          << ProtocolKindName(protocol) << "/starve seed=" << seed << ": "
          << result.Signature();
      EXPECT_EQ(result.ops_completed, result.ops_submitted);
    }
  }
}

// PCT must actually exercise its machinery: with depth d it owes d-1
// priority-change points over the episode.
TEST(ScheduleExplorer, PctHitsItsChangePoints) {
  sim::PctStrategy pct(/*seed=*/11, /*depth=*/4, /*expected_events=*/500);
  std::vector<net::ChannelView> channels = {
      {0, 1, 1}, {1, 0, 1}, {2, 3, 1}};
  for (int i = 0; i < 600; ++i) {
    size_t pick = pct.PickChannel(channels);
    ASSERT_LT(pick, channels.size());
  }
  EXPECT_EQ(pct.change_points_hit(), 3u);
}

// Starvation must hold the victim's channels back while others have work
// (modulo the fairness cap) yet still pick them when nothing else runs.
TEST(ScheduleExplorer, StarvationStrategyStarvesTheVictim) {
  sim::StarvationStrategy starve(/*seed=*/5, /*victim=*/2,
                                 /*max_starve=*/64);
  std::vector<net::ChannelView> channels = {
      {0, 1, 1}, {0, 2, 1}, {1, 2, 1}};
  int victim_picks = 0;
  for (int i = 0; i < 60; ++i) {
    size_t pick = starve.PickChannel(channels);
    if (channels[pick].to == 2) ++victim_picks;
  }
  EXPECT_EQ(victim_picks, 0) << "victim served while others had work";
  std::vector<net::ChannelView> only_victim = {{0, 2, 1}, {1, 2, 1}};
  size_t pick = starve.PickChannel(only_victim);
  EXPECT_EQ(only_victim[pick].to, 2u);
}

ScheduleTrace LoadCheckedInTrace(std::string* path_out) {
  std::string path =
      std::string(LAZYTREE_TEST_DATA_DIR) + "/semisync_pct_s7.trace";
  *path_out = path;
  StatusOr<ScheduleTrace> loaded = ScheduleTrace::LoadFile(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? *loaded : ScheduleTrace{};
}

uint64_t MetaInt(const ScheduleTrace& trace, const std::string& key) {
  auto it = trace.meta.find(key);
  return it == trace.meta.end() ? 0 : std::stoull(it->second);
}

/// Rebuilds the episode config a recorded trace documents in its header.
EpisodeConfig ConfigFromMeta(const ScheduleTrace& trace) {
  EpisodeConfig config;
  ProtocolKind protocol;
  EXPECT_TRUE(
      sim::ParseProtocolKind(trace.meta.at("protocol"), &protocol));
  StrategyKind strategy;
  EXPECT_TRUE(sim::ParseStrategyKind(trace.meta.at("strategy"), &strategy));
  config.protocol = protocol;
  config.processors = static_cast<uint32_t>(MetaInt(trace, "processors"));
  config.seed = MetaInt(trace, "seed");
  config.rounds = static_cast<uint32_t>(MetaInt(trace, "rounds"));
  config.ops_per_round =
      static_cast<uint32_t>(MetaInt(trace, "ops_per_round"));
  config.key_space = MetaInt(trace, "key_space");
  config.fanout = static_cast<size_t>(MetaInt(trace, "fanout"));
  config.leaf_replication =
      static_cast<uint32_t>(MetaInt(trace, "leaf_replication"));
  config.interior_replication =
      static_cast<uint32_t>(MetaInt(trace, "interior_replication"));
  config.strategy.kind = strategy;
  config.strategy.seed = MetaInt(trace, "strategy_seed");
  config.strategy.pct_depth =
      static_cast<uint32_t>(MetaInt(trace, "pct_depth"));
  config.strategy.pct_expected_events = MetaInt(trace, "pct_expected_events");
  config.strategy.starve_victim =
      static_cast<ProcessorId>(MetaInt(trace, "starve_victim"));
  config.strategy.starve_cap =
      static_cast<uint32_t>(MetaInt(trace, "starve_cap"));
  sim::ApplyTraceMeta(trace, &config);
  return config;
}

// Regression: the checked-in trace replays cleanly with zero divergence,
// and re-recording the same episode reproduces it byte-for-byte. Any
// change to scheduling, rng consumption, workload generation, or the
// trace format shows up here before it silently invalidates old repros.
TEST(ScheduleExplorer, CheckedInTraceReplaysByteForByte) {
  std::string path;
  ScheduleTrace trace = LoadCheckedInTrace(&path);
  ASSERT_FALSE(trace.events.empty()) << path;
  EpisodeConfig config = ConfigFromMeta(trace);

  EpisodeResult replayed = sim::ReplayEpisode(config, trace);
  EXPECT_TRUE(replayed.ok) << replayed.Signature();
  EXPECT_EQ(replayed.replay_diverged, 0u)
      << "replay wandered off the recorded schedule";

  EpisodeResult recorded = sim::RunEpisode(config);
  EXPECT_TRUE(recorded.ok) << recorded.Signature();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string want;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) want.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(recorded.trace.Serialize(), want)
      << "re-recorded schedule differs from the checked-in trace";
}

TEST(ScheduleExplorer, TraceSerializationRoundTrips) {
  std::string path;
  ScheduleTrace trace = LoadCheckedInTrace(&path);
  StatusOr<ScheduleTrace> reparsed = ScheduleTrace::Parse(trace.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->meta, trace.meta);
  EXPECT_TRUE(reparsed->events == trace.events);
}

// A fault-injected episode that fails must minimize to a trace with no
// more fault events that reproduces the identical first violation on
// back-to-back replays — the repro artifact the CLI hands out.
TEST(ScheduleExplorer, MinimizerShrinksAFailingTraceDeterministically) {
  EpisodeResult failing;
  EpisodeConfig failing_config;
  bool found = false;
  for (uint64_t seed = 1; seed <= 6 && !found; ++seed) {
    EpisodeConfig config =
        BaseConfig(ProtocolKind::kSemiSyncSplit, StrategyKind::kUniform,
                   seed);
    config.drop = 0.02;  // violate the §4 reliable-network assumption
    EpisodeResult result = sim::RunEpisode(config);
    if (!result.ok) {
      failing = std::move(result);
      failing_config = config;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "2% message loss must be detectable within 6 seeds";

  StatusOr<MinimizeResult> minimized =
      sim::MinimizeTrace(failing_config, failing.trace);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  EXPECT_EQ(minimized->signature, failing.Signature());
  EXPECT_LE(minimized->final_faults, minimized->initial_faults);
  EXPECT_GT(minimized->final_faults, 0u)
      << "a failing schedule cannot minimize to zero injected faults";
  EXPECT_TRUE(minimized->deterministic)
      << "minimized trace must reproduce the same violation twice";

  // And it really is a (config, trace) repro: an independent replay fails
  // with the recorded signature.
  EpisodeResult repro =
      sim::ReplayEpisode(failing_config, minimized->trace);
  EXPECT_FALSE(repro.ok);
  EXPECT_EQ(repro.Signature(), minimized->signature);
}

// A faulted trace carries its fault plan: rebuilt from the header alone,
// the replay config is as unreliable and faulted as the recording's, so
// the replay skips the strict oracle exactly as the recording did and
// reports the identical violation list — not merely the same first entry.
TEST(ScheduleExplorer, FaultedTraceReplaysItsViolationListFromMeta) {
  EpisodeResult failing;
  bool found = false;
  for (uint64_t seed = 1; seed <= 6 && !found; ++seed) {
    EpisodeConfig config =
        BaseConfig(ProtocolKind::kSemiSyncSplit, StrategyKind::kUniform,
                   seed);
    config.drop = 0.02;
    config.dup = 0.01;
    failing = sim::RunEpisode(config);
    found = !failing.ok;
  }
  ASSERT_TRUE(found) << "2% message loss must be detectable within 6 seeds";
  EXPECT_EQ(failing.trace.meta.at("drop"), "0.02");
  EXPECT_EQ(failing.trace.meta.at("dup"), "0.01");
  EXPECT_EQ(failing.trace.meta.count("reliable"), 0u);

  StatusOr<ScheduleTrace> reparsed =
      ScheduleTrace::Parse(failing.trace.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EpisodeConfig rebuilt = ConfigFromMeta(*reparsed);
  EXPECT_EQ(rebuilt.drop, 0.02);
  EXPECT_EQ(rebuilt.dup, 0.01);
  EXPECT_FALSE(rebuilt.clean());
  EpisodeResult replayed = sim::ReplayEpisode(rebuilt, *reparsed);
  EXPECT_EQ(replayed.replay_diverged, 0u);
  EXPECT_EQ(replayed.violations, failing.violations);
}

// Replaying a clean trace against a deliberately faulted replay config
// must not re-inject faults: replay pins every outcome.
TEST(ScheduleExplorer, ReplayPinsOutcomesRegardlessOfFaultConfig) {
  std::string path;
  ScheduleTrace trace = LoadCheckedInTrace(&path);
  EpisodeConfig config = ConfigFromMeta(trace);
  config.drop = 0.5;  // would destroy the run if it applied
  EpisodeResult result = sim::ReplayEpisode(config, trace);
  EXPECT_TRUE(result.ok) << result.Signature();
  EXPECT_EQ(result.replay_diverged, 0u);
}

}  // namespace
}  // namespace lazytree
