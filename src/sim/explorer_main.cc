// lazytree_explore: schedule-exploration driver.
//
// Explore mode (default) sweeps strategies x protocols x seeds, running a
// fully-verified episode per combination:
//
//   lazytree_explore --strategy=pct --protocol=all --seeds=50
//
// On failure it saves the recorded trace, runs the delta-debugging
// minimizer, and prints the replay command. Fault injection
// demonstrates the pipeline end-to-end (the lazy protocols assume a
// reliable network, so drops produce real checker violations):
//
//   lazytree_explore --strategy=uniform --protocol=semisync --seeds=5 --drop=0.02
//
// Replay mode re-executes a saved trace. Its header is the episode config,
// so no other flag is needed; an episode flag that contradicts the header
// is an error, and a replay that diverges from an unminimized trace fails:
//
//   lazytree_explore --replay=failure.trace
//
// Exit status: 0 when every episode passed, 1 otherwise, 2 on a bad flag.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/sim/explorer.h"
#include "src/sim/minimize.h"

namespace lazytree::sim {
namespace {

/// The "shipped five" (naive is the deliberately broken Fig. 4 strawman;
/// it is selectable by name but not part of `all`).
const std::vector<ProtocolKind> kAllProtocols = {
    ProtocolKind::kSyncSplit, ProtocolKind::kSemiSyncSplit,
    ProtocolKind::kVigorous, ProtocolKind::kMobile, ProtocolKind::kVarCopies};
const std::vector<StrategyKind> kAllStrategies = {
    StrategyKind::kUniform, StrategyKind::kPct, StrategyKind::kStarve};

struct CliOptions {
  EpisodeConfig base;  // episode flags, applied in order
  std::vector<std::string> episode_flags;  // checked against a replay
  std::vector<ProtocolKind> protocols = kAllProtocols;
  std::vector<StrategyKind> strategies = {StrategyKind::kPct};
  uint64_t seeds = 10;       // explore seeds 1..N
  bool single_seed = false;  // --seed=N explores that seed alone
  uint32_t crashes = 0;
  std::string trace_out = "traces";  // directory for failure artifacts
  std::string replay_path;          // switches to replay mode
  std::string record_path;          // save first episode's trace here
  bool minimize = true;
  bool verbose = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: lazytree_explore [--strategy=uniform|pct|starve|all]\n"
               "    [--protocol=<name>|all] [--seeds=N] [--seed=N]\n"
               "    [--processors=N] [--rounds=N] [--ops=N] [--keyspace=N]\n"
               "    [--fanout=N] [--pct-depth=N] [--leaf-replication=N]\n"
               "    [--shed=N] [--mutation=drop-relay|swap-ordered]\n"
               "    [--drop=P] [--dup=P] [--reliable] [--crashes=N]\n"
               "    [--trace-out=DIR] [--replay=TRACE] [--record=TRACE]\n"
               "    [--no-minimize] [--verbose]\n");
}

/// NotFound for an unknown flag or --help (print usage), InvalidArgument
/// for a bad value.
Status ParseCli(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    Status s;
    StrategyKind strategy = StrategyKind::kPct;
    if (arg == "--protocol=all") cli->protocols = kAllProtocols;
    else if (arg == "--strategy=all") cli->strategies = kAllStrategies;
    else if (FlagValue(arg, "strategy", &v) && ParseStrategyKind(v, &strategy)) cli->strategies = {strategy};
    else if (FlagValue(arg, "strategy", &v)) s = Status::InvalidArgument("'" + v + "' is not a known strategy");
    else if (FlagValue(arg, "seeds", &v)) s = ParseInteger<uint64_t>(v, 1, &cli->seeds);
    else if (FlagValue(arg, "pct-depth", &v)) s = ParseInteger<uint32_t>(v, 1, &cli->base.strategy.pct_depth);
    else if (FlagValue(arg, "crashes", &v)) s = ParseInteger<uint32_t>(v, 0, &cli->crashes);
    else if (FlagValue(arg, "trace-out", &v)) cli->trace_out = v;
    else if (FlagValue(arg, "replay", &v)) cli->replay_path = v;
    else if (FlagValue(arg, "record", &v)) cli->record_path = v;
    else if (arg == "--no-minimize") cli->minimize = false;
    else if (arg == "--verbose") cli->verbose = true;
    else if (arg == "--help" || arg == "-h") return Status::NotFound("");
    else {
      StatusOr<std::string> key = SetEpisodeFlag(arg, &cli->base);
      if (!key.ok()) return key.status();
      if (*key == "protocol") cli->protocols = {cli->base.protocol};
      if (*key == "seed") cli->single_seed = true;
      cli->episode_flags.push_back(arg);
    }
    if (!s.ok()) return Status::InvalidArgument(arg + ": " + s.message());
  }
  return Status::OK();
}

/// Fixed-copies protocols survive crash/restart generically (replicated
/// copies + deterministic placement re-routing). Mobile and varcopies
/// host single-copy leaves, so a generic crash destroys data by design;
/// their crash coverage is the hand-built scenarios in
/// tests/crash_restart_test.cc.
bool SupportsGenericCrashes(ProtocolKind protocol) {
  return protocol == ProtocolKind::kSyncSplit ||
         protocol == ProtocolKind::kSemiSyncSplit ||
         protocol == ProtocolKind::kVigorous;
}

EpisodeConfig BuildConfig(const CliOptions& cli, ProtocolKind protocol,
                          StrategyKind strategy, uint64_t seed) {
  EpisodeConfig config = cli.base;
  config.protocol = protocol;
  config.seed = seed;
  config.strategy.kind = strategy;
  config.strategy.seed = seed;
  config.strategy.pct_expected_events =
      static_cast<uint64_t>(config.rounds) * config.ops_per_round * 32;
  config.strategy.starve_victim =
      static_cast<ProcessorId>(seed % config.processors);
  if (cli.crashes > 0 && SupportsGenericCrashes(protocol)) {
    // Crashes need surviving replicas to be non-destructive.
    if (config.leaf_replication < 2) config.leaf_replication = 3;
    for (uint32_t i = 0; i < cli.crashes; ++i) {
      CrashEvent crash;
      crash.round = config.rounds > 2 ? 1 + (i % (config.rounds - 2)) : 0;
      crash.after_steps = 40 + 17 * i + seed % 23;
      crash.processor =
          static_cast<ProcessorId>((seed + i) % config.processors);
      config.crashes.push_back(crash);
      CrashEvent restart = crash;
      restart.restart = true;
      restart.round = crash.round + 1;
      restart.after_steps = 20 + seed % 11;
      config.crashes.push_back(restart);
    }
  }
  return config;
}

/// Minimizes a failing trace into `path`.min and reports it; returns the
/// saved path, empty when minimization or the save failed.
std::string SaveMinimized(const EpisodeConfig& config,
                          const ScheduleTrace& trace, const std::string& path,
                          const char* indent) {
  StatusOr<MinimizeResult> minimized = MinimizeTrace(config, trace);
  if (!minimized.ok()) {
    std::printf("%sminimize: %s\n", indent,
                minimized.status().ToString().c_str());
    return "";
  }
  const std::string min_path = path + ".min";
  Status save = minimized->trace.SaveFile(min_path);
  std::printf(
      "%sminimized: %zu -> %zu fault events (%zu replays, "
      "deterministic=%s) -> %s\n",
      indent, minimized->initial_faults, minimized->final_faults,
      minimized->replays, minimized->deterministic ? "yes" : "no",
      save.ok() ? min_path.c_str() : save.ToString().c_str());
  return save.ok() ? min_path : "";
}

/// Writes the §3.1 violation report that rides alongside a failure trace:
/// the episode's header, the classified violation list and the replay
/// command, so a failure can be triaged without re-running the episode.
void WriteFailureReport(const std::string& report_path,
                        const EpisodeConfig& config,
                        const EpisodeResult& result,
                        const std::string& trace_path,
                        const std::string& repro) {
  std::ofstream out(report_path);
  if (!out) {
    std::printf("  report save failed: %s\n", report_path.c_str());
    return;
  }
  out << "lazytree schedule-explorer failure report\nepisode:";
  for (const auto& [key, value] : EpisodeHeader(config)) {
    out << ' ' << key << '=' << value;
  }
  out << "\nsignature: " << result.Signature() << "\n"
      << "ops: " << result.ops_completed << "/" << result.ops_submitted
      << " completed, " << result.delivered << " deliveries\n\n";

  std::vector<std::string> history, structure, client;
  for (const std::string& v : result.violations) {
    if (v.rfind("history: ", 0) == 0) {
      history.push_back(v.substr(9));
    } else if (v.rfind("structure: ", 0) == 0) {
      structure.push_back(v.substr(11));
    } else {
      client.push_back(v);
    }
  }
  auto section = [&](const char* title, const std::vector<std::string>& vs) {
    out << title << " (" << vs.size() << "):\n";
    for (const std::string& v : vs) out << "  " << v << "\n";
    out << "\n";
  };
  section("S3.1 history violations (complete/compatible/ordered)", history);
  section("tree-structure violations", structure);
  section("client-visible violations", client);

  out << "trace: " << trace_path << "\n";
  out << "repro: " << repro << "\n";
}

int RunReplay(const CliOptions& cli) {
  StatusOr<ScheduleTrace> loaded = ScheduleTrace::LoadFile(cli.replay_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load trace: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  StatusOr<EpisodeConfig> config =
      ParseEpisodeHeader(*loaded, cli.episode_flags);
  if (!config.ok()) {
    std::fprintf(stderr, "%s: %s\n", cli.replay_path.c_str(),
                 config.status().message().c_str());
    return 2;
  }
  EpisodeResult result = ReplayEpisode(*config, *loaded);
  std::printf("replay %s: %s (%llu deliveries, %llu diverged)\n",
              cli.replay_path.c_str(), result.ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(result.delivered),
              static_cast<unsigned long long>(result.replay_diverged));
  for (const std::string& v : result.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
  // A minimized trace is already the end product: minimizing it again
  // would only write X.trace.min.min.
  if (!result.ok && cli.minimize && !loaded->minimized()) {
    SaveMinimized(*config, *loaded, cli.replay_path, "");
  }
  return result.ok ? 0 : 1;
}

int RunExplore(const CliOptions& cli) {
  const uint64_t first_seed = cli.single_seed ? cli.base.seed : 1;
  const uint64_t last_seed = cli.single_seed ? cli.base.seed : cli.seeds;

  size_t episodes = 0;
  size_t failures = 0;
  for (ProtocolKind protocol : cli.protocols) {
    for (StrategyKind strategy : cli.strategies) {
      for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
        EpisodeConfig config = BuildConfig(cli, protocol, strategy, seed);
        EpisodeResult result = RunEpisode(config);
        ++episodes;
        if (!cli.record_path.empty() && episodes == 1) {
          Status save = result.trace.SaveFile(cli.record_path);
          std::printf("recorded %s: %s\n", cli.record_path.c_str(),
                      save.ok() ? "ok" : save.ToString().c_str());
        }
        if (cli.verbose || !result.ok) {
          std::printf("[%s/%s seed=%llu] %s: %zu/%zu ops, %llu deliveries\n",
                      ProtocolKindName(protocol), StrategyKindName(strategy),
                      static_cast<unsigned long long>(seed),
                      result.ok ? "pass" : "FAIL", result.ops_completed,
                      result.ops_submitted,
                      static_cast<unsigned long long>(result.delivered));
        }
        if (result.ok) continue;
        ++failures;
        for (const std::string& v : result.violations) {
          std::printf("  violation: %s\n", v.c_str());
        }
        std::error_code mkdir_ec;
        std::filesystem::create_directories(cli.trace_out, mkdir_ec);
        if (mkdir_ec) {
          std::printf("  trace dir %s: %s\n", cli.trace_out.c_str(),
                      mkdir_ec.message().c_str());
        }
        std::string path = cli.trace_out + "/failure-" +
                           ProtocolKindName(protocol) + "-" +
                           StrategyKindName(strategy) + "-s" +
                           std::to_string(seed) + ".trace";
        Status save = result.trace.SaveFile(path);
        if (!save.ok()) {
          std::printf("  trace save failed: %s\n",
                      save.ToString().c_str());
          continue;
        }
        std::printf("  trace: %s\n", path.c_str());
        const std::string min_path =
            cli.minimize ? SaveMinimized(config, result.trace, path, "  ")
                         : "";
        const std::string repro =
            "lazytree_explore --replay=" + (min_path.empty() ? path : min_path);
        std::printf("  repro: %s\n", repro.c_str());
        const std::string report_path = path + ".report";
        WriteFailureReport(report_path, config, result, path, repro);
        std::printf("  report: %s\n", report_path.c_str());
      }
    }
  }
  std::printf("%zu episodes, %zu failed\n", episodes, failures);
  return failures > 0 ? 1 : 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  const Status parsed = ParseCli(argc, argv, &cli);
  if (!parsed.ok()) {
    if (!parsed.message().empty()) {
      std::fprintf(stderr, "%s\n", parsed.message().c_str());
    }
    if (parsed.IsNotFound()) Usage();
    return 2;
  }
  if (!cli.replay_path.empty()) return RunReplay(cli);
  return RunExplore(cli);
}

}  // namespace
}  // namespace lazytree::sim

int main(int argc, char** argv) { return lazytree::sim::Main(argc, argv); }
