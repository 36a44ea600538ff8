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
// Single-config mode exhausts BoundedConfig(--protocol) with the other
// episode flags applied (the same flags lazytree_explore parses) and
// prints its statistics; --compare-naive re-runs the same configuration
// with POR and dedup disabled (capped at ratio x the reduced run) to
// measure the reduction factor:
//
//   lazytree_verify --protocol=semisync --processors=2 --ops=4 --compare-naive
//
// Exit status: 0 when every run behaved as expected, 1 otherwise, 2 on a
// bad flag.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/exhaustive.h"

namespace lazytree::sim {
namespace {

struct CliOptions {
  std::optional<ProtocolKind> protocol;  // unset = battery mode
  std::vector<std::string> episode_flags;
  VerifyConfig verify;  // the search flags; the episode is set in RunSingle
  bool compare_naive = false;
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

/// NotFound for an unknown flag or --help (print usage), InvalidArgument
/// for a bad value. Episode flags are checked and kept here; RunSingle
/// applies them over BoundedConfig(--protocol).
Status ParseCli(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    Status s;
    if (FlagValue(arg, "max-executions", &v)) s = ParseInteger<uint64_t>(v, 1, &cli->verify.max_executions);
    else if (FlagValue(arg, "cross-checks", &v)) s = ParseInteger<uint32_t>(v, 0, &cli->verify.cross_check_samples);
    else if (FlagValue(arg, "starve-victim", &v)) s = ParseInteger<int>(v, 0, &cli->verify.starve_victim);
    else if (FlagValue(arg, "trace-out", &v)) cli->trace_out = v;
    else if (FlagValue(arg, "drop-budget", &v)) s = ParseInteger<uint32_t>(v, 0, &cli->verify.drop_budget);
    else if (arg == "--no-por") cli->verify.por = false;
    else if (arg == "--no-dedup") cli->verify.dedup = false;
    else if (arg == "--compare-naive") cli->compare_naive = true;
    else if (arg == "--help" || arg == "-h") return Status::NotFound("");
    else {
      EpisodeConfig probe;
      StatusOr<std::string> key = SetEpisodeFlag(arg, &probe);
      if (!key.ok()) return key.status();
      if (*key == "protocol") cli->protocol = probe.protocol;
      cli->episode_flags.push_back(arg);
    }
    if (!s.ok()) return Status::InvalidArgument(arg + ": " + s.message());
  }
  return Status::OK();
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
  VerifyConfig config = cli.verify;
  config.episode = BoundedConfig(*cli.protocol).episode;
  for (const std::string& flag : cli.episode_flags) {
    (void)SetEpisodeFlag(flag, &config.episode);
  }
  if (config.episode.drop > 0 || config.episode.dup > 0) {
    std::fprintf(stderr, "--drop/--dup: bounded loss is --drop-budget=N\n");
    return 2;
  }
  config.episode.reliable |= config.drop_budget > 0;

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
  const Status parsed = ParseCli(argc, argv, &cli);
  if (!parsed.ok()) {
    if (!parsed.message().empty()) {
      std::fprintf(stderr, "%s\n", parsed.message().c_str());
    }
    if (parsed.IsNotFound()) Usage();
    return 2;
  }
  if (cli.protocol) return RunSingle(cli);
  if (cli.episode_flags.empty()) return RunBattery();
  std::fprintf(stderr, "episode flags need --protocol\n");
  return 2;
}

}  // namespace
}  // namespace lazytree::sim

int main(int argc, char** argv) { return lazytree::sim::Main(argc, argv); }
