// Unreliable-link fault injection.
//
// The paper assumes reliable exactly-once FIFO channels (§4). A FaultPlan,
// installed through ClusterOptions, deliberately breaks that assumption
// so the reliable-delivery layer (net/reliable.h) can be shown to restore
// it — or, without that layer, so the checkers can be shown to notice.
//
// One FaultInjector serves both transports; each consults it at its one
// natural point. ThreadNetwork asks at send time: a dropped message is
// never counted or put in flight, a duplicate is enqueued twice.
// SimNetwork asks when it pops a message for delivery, so a fault is a
// scheduler decision the trace recorder sees (and a strategy can force),
// and a dropped message was still counted as sent.
//
// Determinism: every decision is a pure function of (plan.seed, from, to,
// per-link message index) — no global RNG, no clock. Channels are FIFO,
// so the k-th delivery pop on a sim link is that link's k-th send: one
// plan faults the same per-link indices on both transports, and replaying
// the same send sequence reproduces the exact same faults.

#ifndef LAZYTREE_NET_FAULTS_H_
#define LAZYTREE_NET_FAULTS_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/msg/key.h"
#include "src/net/schedule_hook.h"

namespace lazytree::net {

/// Declarative description of how links misbehave. Probabilities are per
/// message on a remote link; self-sends are never faulted.
struct FaultPlan {
  double drop = 0.0;       ///< message vanishes
  double duplicate = 0.0;  ///< message delivered twice
  uint64_t seed = 1;       ///< fault decision stream seed

  /// A partition blackholes every message between `a` and `b` (both
  /// directions) whose per-link index falls in [start, start+length).
  /// Message-count windows instead of wall-clock windows keep the plan
  /// deterministic across transports; the window heals naturally as
  /// retransmissions burn through indices.
  struct Partition {
    ProcessorId a = 0;
    ProcessorId b = 0;
    uint64_t start = 0;
    uint64_t length = 0;
  };
  std::vector<Partition> partitions;

  bool active() const {
    return drop > 0 || duplicate > 0 || !partitions.empty();
  }
};

/// Applies a FaultPlan, one decision per message. Thread-safe: concurrent
/// senders only share the link's atomic index.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, ProcessorId processors);

  /// Advances link (from, to)'s message index and returns that message's
  /// fate: kDeliver, kDrop or kDuplicate. Self-links are never faulted
  /// and keep no index.
  DeliveryOutcome Next(ProcessorId from, ProcessorId to);

  // What the injector actually did (the reliable layer's recovery
  // counters live in the ledger, net/stats.h). Partitioned messages
  // count as dropped.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  uint64_t partitioned() const {
    return partitioned_.load(std::memory_order_relaxed);
  }

 private:
  bool Partitioned(ProcessorId from, ProcessorId to, uint64_t index) const;

  const FaultPlan plan_;
  const ProcessorId processors_;
  std::unique_ptr<std::atomic<uint64_t>[]> link_index_;  // [from * n + to]
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> partitioned_{0};
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_FAULTS_H_
