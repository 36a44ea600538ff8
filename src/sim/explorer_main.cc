// lazytree_explore: schedule-exploration driver.
//
// Explore mode (default) sweeps strategies x protocols x seeds, running a
// fully-verified episode per combination:
//
//   lazytree_explore --strategy=pct --protocol=all --seeds=50
//
// On failure it saves the recorded trace, runs the delta-debugging
// minimizer, and prints the exact replay command. Fault injection
// demonstrates the pipeline end-to-end (the lazy protocols assume a
// reliable network, so drops produce real checker violations):
//
//   lazytree_explore --strategy=uniform --protocol=semisync --seeds=5 --drop=0.02
//
// Replay mode re-executes a saved trace (config flags must match the
// trace's episode — they are recorded in its header):
//
//   lazytree_explore --replay=failure.trace --protocol=semisync --seed=3
//
// Exit status: 0 when every episode passed, 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/sim/explorer.h"
#include "src/sim/minimize.h"

namespace lazytree::sim {
namespace {

struct CliOptions {
  std::string strategy = "pct";     // uniform | pct | starve | all
  std::string protocol = "all";     // protocol name | all
  uint64_t seeds = 10;              // explore seeds 1..N
  uint64_t seed = 0;                // replay / single-seed override
  uint32_t processors = 4;
  uint32_t rounds = 6;
  uint32_t ops_per_round = 24;
  uint64_t key_space = 512;
  size_t fanout = 6;
  uint32_t pct_depth = 3;
  uint32_t leaf_replication = 0;    // 0 = protocol default (1)
  uint32_t shed_threshold = 0;      // mobile/varcopies leaf shedding
  std::string mutation;             // planted mutation (verifier self-test)
  double drop = 0;
  double dup = 0;
  bool reliable = false;  // recover drop/dup via the reliable layer
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

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* out) {
  std::string prefix = "--" + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

bool ParseCli(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "strategy", &v)) cli->strategy = v;
    else if (ParseFlag(arg, "protocol", &v)) cli->protocol = v;
    else if (ParseFlag(arg, "seeds", &v)) cli->seeds = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "seed", &v)) cli->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "processors", &v)) cli->processors = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "rounds", &v)) cli->rounds = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "ops", &v)) cli->ops_per_round = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "keyspace", &v)) cli->key_space = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "fanout", &v)) cli->fanout = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "pct-depth", &v)) cli->pct_depth = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "leaf-replication", &v)) cli->leaf_replication = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "shed", &v)) cli->shed_threshold = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "mutation", &v)) cli->mutation = v;
    else if (ParseFlag(arg, "drop", &v)) cli->drop = std::strtod(v.c_str(), nullptr);
    else if (ParseFlag(arg, "dup", &v)) cli->dup = std::strtod(v.c_str(), nullptr);
    else if (ParseFlag(arg, "crashes", &v)) cli->crashes = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "trace-out", &v)) cli->trace_out = v;
    else if (ParseFlag(arg, "replay", &v)) cli->replay_path = v;
    else if (ParseFlag(arg, "record", &v)) cli->record_path = v;
    else if (arg == "--reliable") cli->reliable = true;
    else if (arg == "--no-minimize") cli->minimize = false;
    else if (arg == "--minimize") cli->minimize = true;
    else if (arg == "--verbose") cli->verbose = true;
    else if (arg == "--help" || arg == "-h") { Usage(); return false; }
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

/// The "shipped five" (naive is the deliberately broken Fig. 4 strawman;
/// it is selectable by name but not part of `all`).
std::vector<ProtocolKind> ProtocolSet(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "all") {
    return {ProtocolKind::kSyncSplit, ProtocolKind::kSemiSyncSplit,
            ProtocolKind::kVigorous, ProtocolKind::kMobile,
            ProtocolKind::kVarCopies};
  }
  ProtocolKind kind;
  if (!ParseProtocolKind(name, &kind)) {
    *ok = false;
    return {};
  }
  return {kind};
}

std::vector<StrategyKind> StrategySet(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "all") {
    return {StrategyKind::kUniform, StrategyKind::kPct, StrategyKind::kStarve};
  }
  StrategyKind kind;
  if (!ParseStrategyKind(name, &kind)) {
    *ok = false;
    return {};
  }
  return {kind};
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
  EpisodeConfig config;
  config.protocol = protocol;
  config.processors = cli.processors;
  config.seed = seed;
  config.rounds = cli.rounds;
  config.ops_per_round = cli.ops_per_round;
  config.key_space = cli.key_space;
  config.fanout = cli.fanout;
  config.leaf_replication =
      cli.leaf_replication > 0 ? cli.leaf_replication : 1;
  config.shed_threshold = cli.shed_threshold;
  config.mutation = net::ParseScheduleMutation(cli.mutation);
  config.drop = cli.drop;
  config.dup = cli.dup;
  config.reliable = cli.reliable;
  config.strategy.kind = strategy;
  config.strategy.seed = seed;
  config.strategy.pct_depth = cli.pct_depth;
  config.strategy.pct_expected_events =
      static_cast<uint64_t>(cli.rounds) * cli.ops_per_round * 32;
  config.strategy.starve_victim =
      static_cast<ProcessorId>(seed % cli.processors);
  if (cli.crashes > 0 && SupportsGenericCrashes(protocol)) {
    // Crashes need surviving replicas to be non-destructive.
    if (config.leaf_replication < 2) config.leaf_replication = 3;
    for (uint32_t i = 0; i < cli.crashes; ++i) {
      CrashEvent crash;
      crash.round = cli.rounds > 2 ? 1 + (i % (cli.rounds - 2)) : 0;
      crash.after_steps = 40 + 17 * i + seed % 23;
      crash.processor =
          static_cast<ProcessorId>((seed + i) % cli.processors);
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

std::string ReproCommand(const CliOptions& cli, const EpisodeConfig& config,
                         const std::string& trace_path) {
  std::string cmd = "lazytree_explore --replay=" + trace_path;
  cmd += " --protocol=" + std::string(ProtocolKindName(config.protocol));
  cmd += " --seed=" + std::to_string(config.seed);
  cmd += " --processors=" + std::to_string(config.processors);
  cmd += " --rounds=" + std::to_string(config.rounds);
  cmd += " --ops=" + std::to_string(config.ops_per_round);
  cmd += " --keyspace=" + std::to_string(config.key_space);
  cmd += " --fanout=" + std::to_string(config.fanout);
  cmd += " --leaf-replication=" + std::to_string(config.leaf_replication);
  if (config.reliable) cmd += " --reliable";
  (void)cli;
  return cmd;
}

/// Writes the §3.1 violation report that rides alongside a failure trace:
/// the classified violation list plus the exact replay command, so a
/// failure can be triaged without re-running the episode.
void WriteFailureReport(const std::string& report_path,
                        const EpisodeConfig& config,
                        const EpisodeResult& result,
                        const std::string& trace_path,
                        const std::string& min_path,
                        const std::string& repro) {
  std::ofstream out(report_path);
  if (!out) {
    std::printf("  report save failed: %s\n", report_path.c_str());
    return;
  }
  out << "lazytree schedule-explorer failure report\n"
      << "episode: protocol=" << ProtocolKindName(config.protocol)
      << " seed=" << config.seed << " processors=" << config.processors
      << " rounds=" << config.rounds << " ops_per_round="
      << config.ops_per_round << " key_space=" << config.key_space
      << " fanout=" << config.fanout << " leaf_replication="
      << config.leaf_replication << " drop=" << config.drop
      << " dup=" << config.dup << "\n"
      << "signature: " << result.Signature() << "\n"
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
  if (!min_path.empty()) out << "minimized trace: " << min_path << "\n";
  out << "repro: " << repro << "\n";
}

int RunReplay(const CliOptions& cli) {
  StatusOr<ScheduleTrace> loaded = ScheduleTrace::LoadFile(cli.replay_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load trace: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  bool proto_ok = true;
  std::vector<ProtocolKind> protocols = ProtocolSet(cli.protocol, &proto_ok);
  if (!proto_ok || protocols.size() != 1) {
    std::fprintf(stderr,
                 "--replay needs a single --protocol matching the trace\n");
    return 1;
  }
  EpisodeConfig config = BuildConfig(
      cli, protocols[0], StrategyKind::kUniform, cli.seed ? cli.seed : 1);
  config.crashes.clear();  // the trace carries crash/restart events
  // Episode knobs recorded in the trace header win over CLI defaults, so
  // verifier-recorded repros (shed/mutation configs) and faulted traces
  // replay verbatim.
  ApplyTraceMeta(*loaded, &config);
  EpisodeResult result = ReplayEpisode(config, *loaded);
  std::printf("replay %s: %s (%llu deliveries, %llu diverged)\n",
              cli.replay_path.c_str(), result.ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(result.delivered),
              static_cast<unsigned long long>(result.replay_diverged));
  for (const std::string& v : result.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
  if (!result.ok && cli.minimize) {
    StatusOr<MinimizeResult> minimized = MinimizeTrace(config, *loaded);
    if (minimized.ok()) {
      std::string path = cli.replay_path + ".min";
      Status save = minimized->trace.SaveFile(path);
      std::printf(
          "minimized: %zu -> %zu fault events (%zu replays, "
          "deterministic=%s) -> %s\n",
          minimized->initial_faults, minimized->final_faults,
          minimized->replays, minimized->deterministic ? "yes" : "no",
          save.ok() ? path.c_str() : save.ToString().c_str());
    } else {
      std::printf("minimize: %s\n", minimized.status().ToString().c_str());
    }
  }
  return result.ok ? 0 : 1;
}

int RunExplore(const CliOptions& cli) {
  bool proto_ok = true;
  bool strat_ok = true;
  std::vector<ProtocolKind> protocols = ProtocolSet(cli.protocol, &proto_ok);
  std::vector<StrategyKind> strategies = StrategySet(cli.strategy, &strat_ok);
  if (!proto_ok) {
    std::fprintf(stderr, "unknown protocol: %s\n", cli.protocol.c_str());
    return 1;
  }
  if (!strat_ok) {
    std::fprintf(stderr, "unknown strategy: %s\n", cli.strategy.c_str());
    return 1;
  }
  const uint64_t first_seed = cli.seed ? cli.seed : 1;
  const uint64_t last_seed = cli.seed ? cli.seed : cli.seeds;

  size_t episodes = 0;
  size_t failures = 0;
  for (ProtocolKind protocol : protocols) {
    for (StrategyKind strategy : strategies) {
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
        std::string min_path;
        if (cli.minimize) {
          StatusOr<MinimizeResult> minimized =
              MinimizeTrace(config, result.trace);
          if (minimized.ok()) {
            std::string candidate = path + ".min";
            Status min_save = minimized->trace.SaveFile(candidate);
            std::printf(
                "  minimized: %zu -> %zu fault events (%zu replays, "
                "deterministic=%s) -> %s\n",
                minimized->initial_faults, minimized->final_faults,
                minimized->replays,
                minimized->deterministic ? "yes" : "no",
                min_save.ok() ? candidate.c_str()
                              : min_save.ToString().c_str());
            if (min_save.ok()) {
              min_path = std::move(candidate);
              std::printf("  repro: %s\n",
                          ReproCommand(cli, config, min_path).c_str());
            }
          } else {
            std::printf("  minimize: %s\n",
                        minimized.status().ToString().c_str());
          }
        }
        const std::string repro = ReproCommand(
            cli, config, min_path.empty() ? path : min_path);
        std::printf("  repro: %s\n", ReproCommand(cli, config, path).c_str());
        const std::string report_path = path + ".report";
        WriteFailureReport(report_path, config, result, path, min_path,
                           repro);
        std::printf("  report: %s\n", report_path.c_str());
      }
    }
  }
  std::printf("%zu episodes, %zu failed\n", episodes, failures);
  return failures > 0 ? 1 : 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseCli(argc, argv, &cli)) return 2;
  if (!cli.replay_path.empty()) return RunReplay(cli);
  return RunExplore(cli);
}

}  // namespace
}  // namespace lazytree::sim

int main(int argc, char** argv) { return lazytree::sim::Main(argc, argv); }
