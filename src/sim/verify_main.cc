// lazytree_verify: exhaustive bounded protocol verification driver.
//
// Battery mode (default, what CI runs) exhausts one bounded configuration
// per protocol — every delivery schedule, §3.1 checks at every quiescent
// point — and then proves the checker can actually detect violations by
// planting each ScheduleMutation and requiring a violating schedule plus a
// replayable minimized trace:
//
//   lazytree_verify
//
// Single-config mode exhausts one configuration described by flags and
// prints its statistics; --compare-naive re-runs the same configuration
// with POR and dedup disabled (capped at ratio x the reduced run) to
// measure the reduction factor:
//
//   lazytree_verify --protocol=semisync --processors=2 --ops=4 --compare-naive
//
// Exit status: 0 when every run behaved as expected, 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/sim/exhaustive.h"

namespace lazytree::sim {
namespace {

struct CliOptions {
  std::string protocol;  // empty = battery mode
  uint32_t processors = 2;
  uint32_t rounds = 1;
  uint32_t ops_per_round = 4;
  uint64_t key_space = 16;
  size_t fanout = 3;
  uint32_t leaf_replication = 2;
  uint32_t shed_threshold = 0;
  uint64_t seed = 1;
  std::string mutation;
  uint32_t drop_budget = 0;  // bounded scripted loss (forces reliable on)
  bool reliable = false;     // reliable-delivery layer under the episode
  bool por = true;
  bool dedup = true;
  uint64_t max_executions = 1000000;
  uint32_t cross_checks = 8;
  bool compare_naive = false;
  int starve_victim = -1;
  std::string trace_out;  // save a failing trace here
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: lazytree_verify [--protocol=<name>] [--processors=N]\n"
      "    [--rounds=N] [--ops=N] [--keyspace=N] [--fanout=N]\n"
      "    [--leaf-replication=N] [--shed=N] [--seed=N]\n"
      "    [--mutation=drop-relay|swap-ordered] [--no-por] [--no-dedup]\n"
      "    [--drop-budget=N] [--reliable] [--max-executions=N]\n"
      "    [--cross-checks=N] [--compare-naive] [--starve-victim=P]\n"
      "    [--trace-out=FILE]\n"
      "with no --protocol: run the bounded verification battery\n");
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
    if (ParseFlag(arg, "protocol", &v)) cli->protocol = v;
    else if (ParseFlag(arg, "processors", &v)) cli->processors = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "rounds", &v)) cli->rounds = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "ops", &v)) cli->ops_per_round = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "keyspace", &v)) cli->key_space = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "fanout", &v)) cli->fanout = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "leaf-replication", &v)) cli->leaf_replication = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "shed", &v)) cli->shed_threshold = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "seed", &v)) cli->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "mutation", &v)) cli->mutation = v;
    else if (ParseFlag(arg, "max-executions", &v)) cli->max_executions = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "cross-checks", &v)) cli->cross_checks = std::strtoul(v.c_str(), nullptr, 10);
    else if (ParseFlag(arg, "starve-victim", &v)) cli->starve_victim = std::atoi(v.c_str());
    else if (ParseFlag(arg, "trace-out", &v)) cli->trace_out = v;
    else if (ParseFlag(arg, "drop-budget", &v)) cli->drop_budget = std::strtoul(v.c_str(), nullptr, 10);
    else if (arg == "--reliable") cli->reliable = true;
    else if (arg == "--no-por") cli->por = false;
    else if (arg == "--no-dedup") cli->dedup = false;
    else if (arg == "--compare-naive") cli->compare_naive = true;
    else if (arg == "--help" || arg == "-h") { Usage(); return false; }
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

void PrintResult(const char* label, const VerifyResult& result) {
  std::printf("[%s] %s\n", label, result.Summary().c_str());
  for (const std::string& v : result.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
}

/// Runs the battery (VerifyBattery): clean items must exhaust above their
/// transition floors, planted mutations must be detected with a minimized
/// trace that re-fails under plain ReplayEpisode.
int RunBattery() {
  std::vector<BatteryItem> items = VerifyBattery();
  int failures = 0;
  for (const BatteryItem& item : items) {
    const char* label = item.label.c_str();
    VerifyResult result = VerifyExhaustive(item.config);
    PrintResult(label, result);
    const std::string failure = CheckBatteryItem(item, result);
    if (!failure.empty()) {
      std::printf("[%s] FAILED: %s\n", label, failure.c_str());
      ++failures;
    } else if (item.expect_violation) {
      std::printf("[%s] minimized trace replays to: %s\n", label,
                  ReplayEpisode(item.config.episode, result.trace)
                      .Signature()
                      .c_str());
    }
  }
  std::printf("battery: %zu items, %d failed\n", items.size(), failures);
  return failures > 0 ? 1 : 0;
}

int RunSingle(const CliOptions& cli) {
  ProtocolKind protocol;
  if (!ParseProtocolKind(cli.protocol, &protocol)) {
    std::fprintf(stderr, "unknown protocol: %s\n", cli.protocol.c_str());
    return 1;
  }
  VerifyConfig config;
  config.episode.protocol = protocol;
  config.episode.processors = cli.processors;
  config.episode.seed = cli.seed;
  config.episode.rounds = cli.rounds;
  config.episode.ops_per_round = cli.ops_per_round;
  config.episode.key_space = cli.key_space;
  config.episode.fanout = cli.fanout;
  config.episode.leaf_replication = cli.leaf_replication;
  config.episode.shed_threshold = cli.shed_threshold;
  config.episode.mutation = net::ParseScheduleMutation(cli.mutation);
  config.episode.step_budget = 100000;
  config.episode.reliable = cli.reliable || cli.drop_budget > 0;
  config.drop_budget = cli.drop_budget;
  config.por = cli.por;
  config.dedup = cli.dedup;
  config.cross_check_samples = cli.cross_checks;
  config.max_executions = cli.max_executions;
  config.starve_victim = cli.starve_victim;

  VerifyResult result = VerifyExhaustive(config);
  PrintResult("verify", result);
  if (!result.ok && !cli.trace_out.empty()) {
    Status save = result.trace.SaveFile(cli.trace_out);
    std::printf("trace: %s\n",
                save.ok() ? cli.trace_out.c_str() : save.ToString().c_str());
  }

  if (cli.compare_naive && result.ok && result.exhausted) {
    VerifyConfig naive = config;
    naive.por = false;
    naive.dedup = false;
    naive.cross_check_samples = 0;
    // Cap the naive run: proving >= 32x reduction is enough to stop.
    naive.max_executions = result.stats.executions * 32;
    VerifyResult base = VerifyExhaustive(naive);
    PrintResult("naive", base);
    double ratio = result.stats.executions > 0
                       ? static_cast<double>(base.stats.executions) /
                             static_cast<double>(result.stats.executions)
                       : 0.0;
    std::printf("reduction: %llu naive%s vs %llu reduced executions "
                "(%.1fx%s)\n",
                static_cast<unsigned long long>(base.stats.executions),
                base.exhausted ? "" : " (capped)",
                static_cast<unsigned long long>(result.stats.executions),
                ratio, base.exhausted ? "" : "+");
    if (ratio < 5.0) {
      std::printf("FAILED: POR+dedup reduction below the required 5x\n");
      return 1;
    }
  }
  if (config.episode.mutation == net::ScheduleMutation::kNone) {
    return result.ok && result.exhausted ? 0 : 1;
  }
  return result.ok ? 1 : 0;  // a planted mutation must be detected
}

int Main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseCli(argc, argv, &cli)) return 2;
  if (cli.protocol.empty()) return RunBattery();
  return RunSingle(cli);
}

}  // namespace
}  // namespace lazytree::sim

int main(int argc, char** argv) { return lazytree::sim::Main(argc, argv); }
