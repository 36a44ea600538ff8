// Schedule-exploration harness tests (src/sim/).
//
// The adversarial strategies must preserve correctness on every shipped
// protocol: a PCT or starvation schedule is still a legal asynchronous
// execution, so CheckAll, the structural walk, and exact oracle
// equivalence must hold for every (protocol, strategy, seed) episode.
// On top of that, the trace machinery itself is pinned down: a
// checked-in trace replays byte-for-byte from its header alone, the
// header round-trips every EpisodeConfig field, a replay that leaves the
// recorded schedule fails, and the delta-debugging minimizer shrinks a
// genuinely failing (fault-injected) schedule to a smaller one that
// reproduces the identical violation deterministically.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/sim/exhaustive.h"
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

EpisodeConfig ConfigOf(const ScheduleTrace& trace) {
  StatusOr<EpisodeConfig> config = sim::ParseEpisodeHeader(trace);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return config.ok() ? *config : EpisodeConfig{};
}

// Regression: the checked-in trace replays cleanly with zero divergence,
// and re-recording the same episode reproduces it byte-for-byte. Any
// change to scheduling, rng consumption, workload generation, or the
// trace format shows up here before it silently invalidates old repros.
TEST(ScheduleExplorer, CheckedInTraceReplaysByteForByte) {
  std::string path;
  ScheduleTrace trace = LoadCheckedInTrace(&path);
  ASSERT_FALSE(trace.events.empty()) << path;
  EpisodeConfig config = ConfigOf(trace);

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
  EpisodeConfig rebuilt = ConfigOf(*reparsed);
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
  EpisodeConfig config = ConfigOf(trace);
  config.drop = 0.5;  // would destroy the run if it applied
  EpisodeResult result = sim::ReplayEpisode(config, trace);
  EXPECT_TRUE(result.ok) << result.Signature();
  EXPECT_EQ(result.replay_diverged, 0u);
}

// Every field of the table survives EpisodeHeader -> trace text ->
// ParseEpisodeHeader, including shortest-form probabilities and each
// mutation.
TEST(EpisodeHeader, RoundTripsEveryField) {
  for (net::ScheduleMutation mutation :
       {net::ScheduleMutation::kDropRelay,
        net::ScheduleMutation::kSwapOrdered}) {
    EpisodeConfig config;
    config.protocol = ProtocolKind::kVarCopies;
    config.processors = 5;
    config.seed = 1234567890123ull;
    config.strategy.kind = StrategyKind::kStarve;
    config.strategy.seed = 99;
    config.strategy.pct_depth = 7;
    config.strategy.pct_expected_events = 12345;
    config.strategy.starve_victim = 3;
    config.strategy.starve_cap = 17;
    config.rounds = 9;
    config.ops_per_round = 11;
    config.key_space = 4096;
    config.fanout = 5;
    config.leaf_replication = 2;
    config.interior_replication = 3;
    config.shed_threshold = 4;
    config.mutation = mutation;
    config.drop = 0.1;
    config.dup = 1e-3;
    config.reliable = true;
    config.step_budget = 4321;
    ScheduleTrace trace;
    trace.meta = sim::EpisodeHeader(config);
    EXPECT_EQ(trace.meta.at("dup"), "0.001");
    StatusOr<ScheduleTrace> text = ScheduleTrace::Parse(trace.Serialize());
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    StatusOr<EpisodeConfig> parsed = sim::ParseEpisodeHeader(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(*parsed == config) << trace.Serialize();
  }
  // Defaults of the optional fields are not written at all.
  for (const char* key :
       {"reliable", "drop", "dup", "shed_threshold", "mutation",
        "step_budget"}) {
    EXPECT_EQ(sim::EpisodeHeader(EpisodeConfig{}).count(key), 0u) << key;
  }
}

TEST(EpisodeHeader, RejectsUnknownMissingAndMalformedKeys) {
  ScheduleTrace trace;
  trace.meta = sim::EpisodeHeader(EpisodeConfig{});
  trace.meta["result"] = "fail";
  trace.meta["failure"] = "history: x";
  trace.meta["minimized"] = "1";
  EXPECT_TRUE(sim::ParseEpisodeHeader(trace).ok());

  ScheduleTrace unknown = trace;
  unknown.meta["fan_out"] = "6";
  StatusOr<EpisodeConfig> r = sim::ParseEpisodeHeader(unknown);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "trace header key fan_out: unknown");

  ScheduleTrace missing = trace;
  missing.meta.erase("fanout");
  r = sim::ParseEpisodeHeader(missing);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "trace header key fanout: missing");

  ScheduleTrace bad_strategy = trace;
  bad_strategy.meta["strategy"] = "random";
  r = sim::ParseEpisodeHeader(bad_strategy);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "trace header key strategy: 'random' is not a known strategy");
}

// The shared episode-flag parser rejects every malformed value with a
// one-line message instead of running a different episode.
TEST(EpisodeFlags, RejectMalformedValues) {
  for (const char* arg :
       {"--fanout=abc", "--fanout=0", "--processors=0",
        "--processors=99999999999", "--keyspace=0", "--ops=abc",
        "--rounds=6x", "--rounds= 6", "--seed=-1", "--mutation=swap-orderd",
        "--mutation=", "--drop=0.o2", "--drop=1.5", "--dup=nan",
        "--protocol=bogus"}) {
    EpisodeConfig config;
    StatusOr<std::string> key = sim::SetEpisodeFlag(arg, &config);
    ASSERT_FALSE(key.ok()) << arg;
    EXPECT_EQ(key.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_EQ(key.status().message().find('\n'), std::string::npos);
    EXPECT_EQ(key.status().message().rfind(std::string(arg) + ": ", 0), 0u)
        << key.status().message();
    EXPECT_TRUE(config == EpisodeConfig{}) << arg << " changed the config";
  }
  EpisodeConfig config;
  EXPECT_TRUE(sim::SetEpisodeFlag("--fanout-x=3", &config).status().IsNotFound());
  EXPECT_TRUE(sim::SetEpisodeFlag("--reliable=1", &config).status().IsNotFound());

  // The tool-only counts (--seeds, --crashes, ...) use the same parser.
  uint64_t seeds = 10;
  EXPECT_FALSE(sim::ParseInteger<uint64_t>("x", 1, &seeds).ok());
  EXPECT_FALSE(sim::ParseInteger<uint64_t>("0", 1, &seeds).ok());
  int victim = -1;
  EXPECT_FALSE(sim::ParseInteger<int>("-1", 0, &victim).ok());
  EXPECT_EQ(seeds, 10u);
  EXPECT_EQ(victim, -1);

  for (const char* arg : {"--fanout=3", "--ops=6", "--keyspace=32",
                          "--leaf-replication=1", "--shed=1", "--reliable",
                          "--mutation=swap-ordered", "--drop=0.02",
                          "--protocol=varcopies"}) {
    EXPECT_TRUE(sim::SetEpisodeFlag(arg, &config).ok()) << arg;
  }
  EXPECT_EQ(config.fanout, 3u);
  EXPECT_EQ(config.ops_per_round, 6u);
  EXPECT_EQ(config.key_space, 32u);
  EXPECT_EQ(config.shed_threshold, 1u);
  EXPECT_TRUE(config.reliable);
  EXPECT_EQ(config.mutation, net::ScheduleMutation::kSwapOrdered);
  EXPECT_EQ(config.drop, 0.02);
  EXPECT_EQ(config.protocol, ProtocolKind::kVarCopies);
}

// A replay takes its episode from the header: flags that agree with it
// are accepted (old printed repro commands), flags that differ are errors.
TEST(EpisodeFlags, ContradictingTheTraceHeaderIsAnError) {
  std::string path;
  ScheduleTrace trace = LoadCheckedInTrace(&path);
  EXPECT_TRUE(sim::ParseEpisodeHeader(
                  trace, {"--protocol=semisync", "--seed=7", "--processors=4",
                          "--rounds=6", "--ops=24", "--keyspace=512",
                          "--fanout=6", "--leaf-replication=1"})
                  .ok());
  struct Case {
    const char* flag;
    const char* message;
  };
  for (const Case& c :
       {Case{"--fanout=3", "--fanout=3 contradicts the trace header (fanout 6)"},
        Case{"--protocol=sync",
             "--protocol=sync contradicts the trace header (protocol "
             "semisync)"},
        Case{"--reliable",
             "--reliable contradicts the trace header (reliable unset)"}}) {
    StatusOr<EpisodeConfig> r = sim::ParseEpisodeHeader(trace, {c.flag});
    ASSERT_FALSE(r.ok()) << c.flag;
    EXPECT_EQ(r.status().message(), c.message);
  }
  EXPECT_FALSE(sim::ParseEpisodeHeader(trace, {"--fanout=abc"}).ok());
}

// A replay whose recorded deliveries stop matching the system did not
// re-run the recording: it fails, however healthy the run it drifted into.
// Only the minimizer's output (header `minimized 1`) may drift.
TEST(ScheduleExplorer, DivergingReplayFailsUnlessMinimized) {
  std::string path;
  ScheduleTrace trace = LoadCheckedInTrace(&path);
  ASSERT_GT(trace.events.size(), 100u);
  EpisodeConfig config = ConfigOf(trace);
  sim::TraceEvent& edited = trace.events[100];
  ASSERT_EQ(edited.kind, sim::TraceEvent::Kind::kDeliver);
  edited.to = (edited.to + 1) % config.processors;

  EpisodeResult replayed = sim::ReplayEpisode(config, trace);
  EXPECT_FALSE(replayed.ok);
  EXPECT_GT(replayed.replay_diverged, 0u);
  EXPECT_EQ(replayed.Signature(),
            "replay diverged: " + std::to_string(replayed.replay_diverged) +
                " recorded events matched no pending message");

  trace.meta["minimized"] = "1";
  EpisodeResult tolerated = sim::ReplayEpisode(config, trace);
  EXPECT_TRUE(tolerated.ok) << tolerated.Signature();
  EXPECT_EQ(tolerated.replay_diverged, replayed.replay_diverged);
}

// A verifier-found violation replays from its trace alone: the header
// carries the verifier's bounded episode (fanout 3, step budget 100000,
// shedding, the planted mutation), so the explorer's defaults never leak
// in and turn the repro into a pass.
TEST(ScheduleExplorer, VerifierTraceReplaysFromItsHeaderAlone) {
  sim::VerifyConfig verify = sim::BoundedConfig(ProtocolKind::kVarCopies);
  verify.episode.processors = 4;
  verify.episode.rounds = 2;
  verify.episode.ops_per_round = 6;
  verify.episode.key_space = 32;
  verify.episode.mutation = net::ScheduleMutation::kSwapOrdered;
  verify.starve_victim = 1;
  verify.max_executions = 20000;
  sim::VerifyResult found = sim::VerifyExhaustive(verify);
  ASSERT_FALSE(found.ok);
  ASSERT_FALSE(found.violations.empty());

  StatusOr<ScheduleTrace> text =
      ScheduleTrace::Parse(found.trace.Serialize());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_TRUE(ConfigOf(*text) == verify.episode);
  EpisodeResult replayed = sim::ReplayEpisode(ConfigOf(*text), *text);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.replay_diverged, 0u);
  EXPECT_EQ(replayed.Signature(), found.violations.front());
}

}  // namespace
}  // namespace lazytree
