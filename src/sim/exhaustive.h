// Exhaustive bounded model checking over delivery schedules.
//
// VerifyExhaustive enumerates EVERY delivery schedule of a small episode
// (2-3 processors, a handful of operations, optionally one crash/restart)
// and runs the full §3.1 verification battery — complete, compatible,
// ordered — at every quiescent point of every schedule. Where the random
// strategies in strategy.h *sample* the schedule space, this is a proof by
// exhaustion for the bounded configuration.
//
// Mechanically it is a stateless-re-execution DFS (CHESS-style): the
// episode machinery (explorer.h) cannot checkpoint a cluster mid-flight,
// so the checker replays the decision prefix from scratch on every
// execution, extends it by fresh choices until the episode completes, and
// backtracks by advancing the deepest frame with an unexplored candidate.
// ExhaustiveStrategy is the ScheduleStrategy that carries the persistent
// frame stack across executions.
//
// Two reductions keep the space tractable:
//
//   * Commutativity-guided partial-order reduction (sleep sets). When the
//     head messages of two pending channels are independent — different
//     destination processors AND every cross pair of their actions either
//     commutes per ActionsCommute (§3.1) or targets different nodes —
//     delivering them in either order reaches the same state, so only one
//     order is explored. Implemented as classic sleep sets: after a
//     branch t is fully explored, t is put to sleep in the siblings that
//     are independent of the transition actually taken, and sleeping
//     transitions are pruned from candidate sets. Sound for properties
//     evaluated at quiescent points, which every complete schedule
//     reaches. A sampled runtime cross-check re-executes pruned pairs in
//     both orders and compares state fingerprints, guarding the
//     independence relation itself against drift.
//
//   * State-fingerprint deduplication. A canonical FNV-1a fingerprint of
//     the entire configuration (node stores, protocol handler state,
//     in-flight messages, op tracker, history log, crash flags) names each
//     reached state; when a state already fully explored under an empty
//     sleep set is reached again by a different prefix, the execution is
//     cut and drained deterministically instead of re-expanding the
//     subtree. Fingerprints are recorded only for empty-sleep frames,
//     which sidesteps the classic sleep-set/state-caching unsoundness
//     (a cached state reached with a *smaller* sleep set must not be
//     skipped).
//
// Near a planned crash/restart the fence kicks in: sleep filtering is
// disabled for decisions within two deliveries of a crash-plan event,
// because reordering across the crash boundary changes which messages die.
//
// Self-test support: planting a ScheduleMutation (net/schedule_hook.h) in
// the episode config makes the protocol genuinely misbehave once —
// dropping a relayed lazy update, or swapping a version-ordered membership
// pair past each other — and the checker must find a violating schedule
// and emit a minimized trace replayable by `lazytree_explore --replay`.

#ifndef LAZYTREE_SIM_EXHAUSTIVE_H_
#define LAZYTREE_SIM_EXHAUSTIVE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/explorer.h"

namespace lazytree::sim {

struct VerifyConfig {
  /// The bounded episode to exhaust. Keep it SMALL: the schedule space is
  /// exponential in pending-message count. drop/dup must be 0 (fault
  /// randomness would make re-execution nondeterministic); a crash plan is
  /// allowed and explored against every schedule.
  EpisodeConfig episode;
  /// Bounded message loss: at most this many drops per schedule, explored
  /// as explicit DFS decisions (every enabled channel forks a "deliver the
  /// head" and a "drop the head" branch while budget remains). Unlike the
  /// probabilistic episode.drop, scripted drops are deterministic, so the
  /// prefix re-execution machinery is unaffected. Requires
  /// episode.reliable: the reliable layer retransmits the dropped frame at
  /// the next timer pump, and the §3.1 battery plus the oracle must stay
  /// green on every schedule — the loss is recovered, not absorbed. Drop
  /// decisions never enter sleep sets (dropping is not independent of
  /// anything — it consumes retransmit budget), so POR stays sound.
  uint32_t drop_budget = 0;
  /// Commutativity-guided sleep-set pruning. Off = plain exhaustive DFS.
  bool por = true;
  /// State-fingerprint deduplication of revisited states.
  bool dedup = true;
  /// Max POR independence decisions to cross-check by re-executing both
  /// orders of a pruned pair (0 disables the cross-check).
  uint32_t cross_check_samples = 8;
  /// Execution budget; hitting it stops with exhausted = false.
  uint64_t max_executions = 1000000;
  /// Directed-search heuristic: when >= 0, candidate transitions delivering
  /// to this processor sort LAST at every frame, so the leftmost DFS
  /// schedule is the extreme starvation of the victim (the §4.3 adversary
  /// family). Violations that need messages queued up behind each other on
  /// a victim-bound channel — FIFO-dependent orderings, version-gated
  /// membership races — surface within the first few executions instead of
  /// deep in the tree. Search order only: exhaustiveness and sleep-set
  /// soundness are unaffected. -1 = neutral (to, from) order.
  int starve_victim = -1;
};

struct VerifyStats {
  uint64_t executions = 0;        ///< episodes run (schedule prefixes tried)
  uint64_t schedules = 0;         ///< complete schedules (not dedup-cut)
  uint64_t transitions = 0;       ///< total delivery decisions made
  uint64_t states = 0;            ///< distinct state fingerprints recorded
  uint64_t pruned_sleep = 0;      ///< candidate transitions pruned by POR
  uint64_t pruned_visited = 0;    ///< executions cut at a revisited state
  uint64_t cross_checks = 0;      ///< independent pairs re-executed both ways
  uint64_t cross_check_failures = 0;  ///< ... that did not converge
  uint64_t determinism_failures = 0;  ///< prefix replay fingerprint drift
  uint64_t mutation_fired = 0;    ///< executions where a planted mutation hit
  uint64_t drops_injected = 0;    ///< scripted drop transitions taken
  size_t max_frontier = 0;        ///< deepest DFS stack reached
};

struct VerifyResult {
  /// No violation in any explored schedule (and no internal failure).
  bool ok = true;
  /// The schedule space was fully explored within the execution budget.
  bool exhausted = false;
  /// Violations of the first failing schedule (worst first), plus any
  /// verifier-internal failures (determinism / cross-check).
  std::vector<std::string> violations;
  VerifyStats stats;
  /// Failing schedule, minimized, replayable via
  /// ReplayEpisode / `lazytree_explore --replay`; its header is the
  /// episode config. Empty when ok.
  ScheduleTrace trace;
  /// First round whose quiescent point failed the §3.1 checkers
  /// (UINT32_MAX when none did).
  uint32_t first_violation_round = 0xFFFFFFFF;

  std::string Summary() const;
};

/// Exhausts the bounded schedule space of config.episode. Returns on the
/// first violating schedule or when the space (or budget) is exhausted.
VerifyResult VerifyExhaustive(const VerifyConfig& config);

/// The small per-protocol configuration: 2 processors, one round of 4
/// ops, fanout 3 (so a leaf splits) and replicated leaves relaying lazy
/// updates — or, for mobile/varcopies, single-copy leaves shed on every
/// split so link changes and membership traffic are in flight. The
/// planted-mutation self-tests and the POR reduction gate run on it.
VerifyConfig BoundedConfig(ProtocolKind protocol);

/// One entry of the verification battery (`lazytree_verify` with no
/// flags; tests/exhaustive_verify_test.cc runs the same list).
struct BatteryItem {
  std::string label;
  VerifyConfig config;
  /// Planted-mutation self-test: a violating schedule must be found.
  bool expect_violation = false;
  /// Clean items: the fewest delivery decisions the exhaustive search
  /// must make. A change that takes schedulable events away (work done
  /// inline instead of as a message) shrinks the space the verifier
  /// covers; the floor turns that into a failure instead of a silent
  /// loss of coverage.
  uint64_t min_transitions = 0;
};

/// Every protocol exhausted clean, the same protocols exhausted under a
/// one-drop budget with the reliable layer on, and the two planted
/// mutations detected.
std::vector<BatteryItem> VerifyBattery();

/// Runs one battery item and checks its expected outcome: clean items
/// must exhaust with no violation and at least `min_transitions`;
/// self-tests must find a violation whose minimized trace replays to a
/// failure. Returns the failure reason, empty on success.
std::string CheckBatteryItem(const BatteryItem& item,
                             const VerifyResult& result);

}  // namespace lazytree::sim

#endif  // LAZYTREE_SIM_EXHAUSTIVE_H_
