// Episode runner for schedule exploration.
//
// An *episode* is one complete, self-checking run of a cluster under an
// adversarial schedule: a workload derived purely from the config (so it
// is identical across record and replay), executed in quiescence-separated
// rounds while a ScheduleStrategy picks every delivery and an optional
// crash plan kills/restarts processors between deliveries. At the end the
// episode runs the full verification battery:
//
//   * the three §3 history checkers (CheckAll),
//   * the structural tree walk (ranges chain, links resolve),
//   * per-key fate: a key whose insert completed must be present, a key
//     whose delete completed must be absent, nothing appears that was
//     never inserted — sound even when crashes leave operations with
//     unknown outcomes,
//   * for clean episodes (no faults, no crashes): every operation
//     completed with exactly the oracle's return code, and the leaf
//     dictionary equals the oracle dump.
//
// RunEpisode records the schedule into a ScheduleTrace whose header is
// the serialized EpisodeConfig; ReplayEpisode re-executes a trace
// deterministically. A trace alone is therefore the repro unit the
// minimizer (minimize.h) and the `lazytree_explore` CLI shuffle around.

#ifndef LAZYTREE_SIM_EXPLORER_H_
#define LAZYTREE_SIM_EXPLORER_H_

#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/server/op_tracker.h"
#include "src/sim/strategy.h"
#include "src/sim/trace.h"

namespace lazytree {
class Cluster;
namespace net {
class SimNetwork;
}  // namespace net
}  // namespace lazytree

namespace lazytree::sim {

/// One crash-plan entry, applied between deliveries during `round` once
/// `after_steps` deliveries of that round have run (or at the round's
/// quiescence if the round is shorter). Replay ignores the plan — the
/// recorded trace carries the crash/restart positions exactly.
struct CrashEvent {
  uint32_t round = 0;
  uint64_t after_steps = 0;
  ProcessorId processor = 0;
  bool restart = false;  ///< false = crash, true = restart
  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// One generated client operation. Exposed (with the generator below) so
/// the exhaustive verifier submits the byte-identical workload an episode
/// would, keeping its recorded schedules replayable by ReplayEpisode.
enum class WorkKind : uint8_t { kInsert, kDelete, kSearch };

struct WorkOp {
  WorkKind kind = WorkKind::kInsert;
  Key key = 0;
  ProcessorId home = 0;
};

/// Every insert of key k writes the same value, so presence checks never
/// need to know which insert won.
Value WorkValueOf(Key k);

struct EpisodeConfig {
  ProtocolKind protocol = ProtocolKind::kSemiSyncSplit;
  uint32_t processors = 4;
  /// Seeds the cluster (protocol rngs) and the workload generator. The
  /// strategy has its own seed in `strategy`.
  uint64_t seed = 1;
  StrategyOptions strategy;
  uint32_t rounds = 6;
  uint32_t ops_per_round = 24;
  uint64_t key_space = 512;
  size_t fanout = 6;
  uint32_t leaf_replication = 1;
  uint32_t interior_replication = 0;
  /// Mobile/varcopies leaf shedding (TreeConfig::shed_threshold): >0 makes
  /// splits migrate fresh siblings, generating the join/unjoin membership
  /// traffic the exhaustive verifier's varcopies configs need.
  uint32_t shed_threshold = 0;
  /// Planted one-shot protocol mutation (verifier self-test). Applied
  /// deterministically at the first qualifying delivery, so a recorded
  /// trace replayed against the same config reproduces it exactly.
  net::ScheduleMutation mutation = net::ScheduleMutation::kNone;
  /// Network fault probabilities: the episode's FaultPlan, seeded from
  /// `seed` (record mode only; replay pins outcomes). Recorded in the
  /// trace header when nonzero.
  double drop = 0;
  double dup = 0;
  /// Reliable-delivery layer (net/reliable.h) under the episode. With it
  /// on, drop/dup faults are *recovered*: retransmissions and acks run as
  /// deterministic virtual-timer events pumped at the schedule's
  /// quiescent points, so fault-bearing traces still replay byte-for-byte
  /// and the episode is held to the clean-run oracle standard.
  bool reliable = false;
  std::vector<CrashEvent> crashes;
  /// Total delivery budget; exhausting it is reported as livelock.
  uint64_t step_budget = 2000000;

  /// True when every operation must complete and the oracle must match
  /// exactly (no injected faults, no crash plan, no planted mutation).
  /// Drop/dup faults under the reliable layer count as clean: recovery is
  /// the whole point, so the oracle must still match exactly.
  bool clean() const {
    return (reliable || (drop == 0 && dup == 0)) && crashes.empty() &&
           mutation == net::ScheduleMutation::kNone;
  }
  friend bool operator==(const EpisodeConfig&, const EpisodeConfig&) =
      default;
};

/// The trace-header text of `config`: one entry per field but `crashes`
/// (C/R events carry those); reliable, drop, dup, shed_threshold, mutation
/// and step_budget only when they are not at their defaults.
std::map<std::string, std::string> EpisodeHeader(const EpisodeConfig& config);

/// Reads back EpisodeHeader, rejecting missing and unknown keys (the
/// provenance keys result, failure and minimized are allowed). An episode
/// flag in `flags` that differs from the header is an error.
StatusOr<EpisodeConfig> ParseEpisodeHeader(
    const ScheduleTrace& trace, const std::vector<std::string>& flags = {});

/// Sets the field one episode flag names (`--fanout=6`, bare `--reliable`;
/// the table is in explorer.cc) and returns its header key. NotFound for
/// any other argument, InvalidArgument for a bad value.
StatusOr<std::string> SetEpisodeFlag(const std::string& arg,
                                     EpisodeConfig* config);

/// True when `arg` is `--name=...`; stores the text after '=' in `value`.
bool FlagValue(const std::string& arg, const char* name, std::string* value);

/// Parses all of `text`, with no sign, blank or trailing character, as an
/// integer in [min, T's maximum].
template <typename T>
Status ParseInteger(const std::string& text, T min, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min) {
    return Status::InvalidArgument(
        "'" + text + "' is not an integer in [" + std::to_string(min) +
        ", " + std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  *out = value;
  return Status::OK();
}

struct EpisodeResult {
  bool ok = false;
  /// Checker/oracle violations, worst first; empty iff ok.
  std::vector<std::string> violations;
  uint64_t steps = 0;
  uint64_t delivered = 0;
  size_t ops_submitted = 0;
  size_t ops_completed = 0;
  /// Recorded schedule (record mode); copy of the input trace on replay.
  ScheduleTrace trace;
  /// Replay only: delivery events that no longer matched a live channel.
  uint64_t replay_diverged = 0;

  /// Stable one-line failure identity (first violation, newlines folded).
  /// The minimizer reduces a trace while preserving this.
  std::string Signature() const;
};

/// The workload is a pure function of the config: all rounds are generated
/// up front, independent of operation outcomes, so record and replay (and
/// every minimized variant) submit the identical operation sequence.
std::vector<std::vector<WorkOp>> GenerateEpisodeWorkload(
    const EpisodeConfig& config);

/// Live view of one submitted operation (see EpisodeHooks::on_start).
struct EpisodeOp {
  WorkOp op;
  bool done = false;
  OpResult result;
};

/// Callbacks exposing a running episode to an external driver (the
/// exhaustive verifier): the live Cluster/SimNetwork before the first
/// delivery — plus the episode's operation records, stable in memory for
/// the episode's lifetime — and each round's quiescent point (round ==
/// config.rounds for the final drain).
struct EpisodeHooks {
  std::function<void(Cluster&, net::SimNetwork&,
                     const std::vector<EpisodeOp>&)>
      on_start;
  std::function<void(Cluster&, uint32_t round)> on_quiescent;
};

/// Runs one episode under config.strategy, recording the schedule.
EpisodeResult RunEpisode(const EpisodeConfig& config);

/// Runs one episode under an externally-owned strategy, reporting progress
/// through `hooks`. The recorder (optional) captures the schedule exactly
/// as RunEpisode would; result.trace carries the same replayable metadata.
EpisodeResult RunEpisodeUnder(const EpisodeConfig& config,
                              net::ScheduleStrategy* strategy,
                              TraceRecorder* recorder,
                              const EpisodeHooks& hooks);

/// Re-executes a recorded schedule. `config` must describe the episode
/// the trace came from (ParseEpisodeHeader reads it from the header);
/// crash/restart events come from the trace, not config.crashes. A
/// replay in which recorded deliveries match no pending message did not
/// re-run the recording, so it fails — unless the header says
/// `minimized 1`: the minimizer's edits shift later deliveries by design.
EpisodeResult ReplayEpisode(const EpisodeConfig& config,
                            const ScheduleTrace& trace);

}  // namespace lazytree::sim

#endif  // LAZYTREE_SIM_EXPLORER_H_
