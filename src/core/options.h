// Public configuration for a lazytree cluster.

#ifndef LAZYTREE_CORE_OPTIONS_H_
#define LAZYTREE_CORE_OPTIONS_H_

#include <cstdint>

#include "src/net/faults.h"
#include "src/net/reliable.h"
#include "src/server/processor.h"

namespace lazytree {

/// Which replica-maintenance algorithm runs the tree (§4).
enum class ProtocolKind {
  kSyncSplit,      ///< §4.1.1 — AAS-ordered splits, blocks initial inserts
  kSemiSyncSplit,  ///< §4.1.2 — history rewriting, never blocks (default)
  kNaive,          ///< Fig. 4 strawman — loses inserts (tests/bench only)
  kVigorous,       ///< available-copies baseline — locks every update
  kMobile,         ///< §4.2 — single-copy nodes that migrate
  kVarCopies,      ///< §4.3 — join/unjoin replication, mobile leaves
};

const char* ProtocolKindName(ProtocolKind kind);

/// How the simulated processors exchange messages.
enum class TransportKind {
  kSim,      ///< deterministic seeded scheduler (tests; replayable)
  kThreads,  ///< one worker thread per processor (benches; parallel)
};

struct ClusterOptions {
  uint32_t processors = 4;
  ProtocolKind protocol = ProtocolKind::kSemiSyncSplit;
  TransportKind transport = TransportKind::kSim;
  /// Seed for the sim scheduler and all protocol-internal randomness.
  uint64_t seed = 1;
  /// Sim transport only: when > 0, run the simulator in timestamped mode
  /// with this base one-way remote latency (µs) plus `sim_jitter_us` of
  /// uniform jitter; operations then have measurable latency in
  /// simulated time (SimNetwork::NowUs).
  uint64_t sim_latency_us = 0;
  uint64_t sim_jitter_us = 0;
  /// Piggybacking (§1.1): relayed updates a processor's outbox may hold
  /// per destination, waiting for direct traffic to ride on, before they
  /// leave as one message of their own. 0 disables the deferral (the
  /// outbox still combines each delivery's actions per destination).
  size_t piggyback_window = 0;
  /// Run the §3.1 history checks (complete/compatible/ordered) at every
  /// quiescent point Settle() reaches, aborting on the first violation so
  /// the failing schedule is caught at the earliest moment it is
  /// observable — not only when a test remembers to call
  /// VerifyHistories(). Requires tree.track_history (the hook is a no-op
  /// without it) and is skipped while a processor is crashed (§3.1 is a
  /// quiescence property of the recovered system). Turn off for
  /// deliberately broken configurations — the kNaive strawman, fault
  /// injection, schedule exploration — that want to *observe* violations
  /// instead of dying on them.
  bool check_histories = true;
  /// Link-fault injection (net/faults.h): when the plan is active, the
  /// base transport drops/duplicates/partitions remote messages under the
  /// plan's own seed — at send time on threads, at delivery on the sim.
  net::FaultPlan faults;
  /// Reliable-delivery layer (net/reliable.h), independent of `faults`:
  /// a fault plan without it runs the raw lossy links. With it on,
  /// exactly-once FIFO delivery — and therefore §3.1 — holds even over
  /// lossy links; channels that exhaust their retransmit budget are
  /// declared down and their processors' pending ops fail with a
  /// retriable kUnavailable status instead of hanging Settle().
  bool reliable = false;
  /// Tuning for the reliable layer (timers, budgets, initial sequence
  /// number). Its timers are real on threads and virtual on the sim.
  net::ReliabilityOptions reliability;
  /// Node capacity, history tracking, replication factor, upserts.
  TreeConfig tree;
};

}  // namespace lazytree

#endif  // LAZYTREE_CORE_OPTIONS_H_
