// Schedule-exploration hooks for SimNetwork.
//
// SimNetwork's default policy picks a uniformly random non-empty channel
// per Step. That rarely reaches the adversarial interleavings the §3/§4
// proofs defend against (a split's link-change racing a relayed insert, a
// join racing a migration). These interfaces let an external driver take
// over the two nondeterministic choices the simulator makes per delivery —
// *which* channel goes next and *what happens* to the popped message — and
// observe every decision so a failing schedule can be recorded, replayed,
// and minimized (src/sim/).

#ifndef LAZYTREE_NET_SCHEDULE_HOOK_H_
#define LAZYTREE_NET_SCHEDULE_HOOK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/msg/message.h"

namespace lazytree::net {

/// One non-empty (from, to) channel offered to the strategy.
struct ChannelView {
  ProcessorId from = kInvalidProcessor;
  ProcessorId to = kInvalidProcessor;
  size_t queued = 0;  ///< messages waiting on this channel
};

/// Planted protocol mutation (exhaustive-verifier self-test): a deliberate
/// one-shot violation of a delivery assumption, applied deterministically at
/// the first qualifying opportunity so that a recorded schedule replays the
/// mutation at the same point.
enum class ScheduleMutation : uint8_t {
  kNone = 0,
  /// Strips the first relayed lazy update (relayed insert/delete) from a
  /// delivered message: one copy silently misses an update, which the
  /// §3.1 compatible-histories check must flag.
  kDropRelay = 1,
  /// Swaps the first two messages of a channel when they carry two
  /// same-kind membership registrations of the same node with different
  /// versions (two joins or two unjoins, necessarily of different
  /// members): breaks per-channel FIFO exactly where the version-gated
  /// registration order matters — the gate drops the older registration,
  /// permanently diverging the receiving copy's membership. Link-change
  /// reorderings (gated per link) and mixed join/unjoin pairs of one
  /// member (which net out) are absorbed by design, so they do not
  /// qualify.
  kSwapOrdered = 2,
};

const char* ScheduleMutationName(ScheduleMutation m);

/// Parses "none" / "drop-relay" / "swap-ordered"; returns false on
/// unknown names.
bool ParseScheduleMutation(const std::string& name, ScheduleMutation* out);

/// What became of one scheduled message.
enum class DeliveryOutcome : uint8_t {
  kDeliver = 0,    ///< delivered exactly once (the §4 assumption)
  kDrop = 1,       ///< injected fault: the message vanished
  kDuplicate = 2,  ///< injected fault: delivered twice
  kCrashDrop = 3,  ///< destination processor was crashed
};

/// Pluggable delivery policy. SimNetwork::Step calls PickChannel with the
/// current non-empty channels (sorted by (from, to), so indices are
/// deterministic), pops the chosen channel's head, then calls ForceOutcome
/// once for that same message. Strategies must be deterministic functions
/// of their seed and the observed call sequence — trace replay depends on
/// it.
class ScheduleStrategy {
 public:
  virtual ~ScheduleStrategy() = default;

  virtual const char* name() const = 0;

  /// Returns an index into `channels` (never empty).
  virtual size_t PickChannel(const std::vector<ChannelView>& channels) = 0;

  /// Optional fault override for the message just picked. nullopt lets the
  /// network apply the fault plan (net/faults.h); a value forces the
  /// outcome (trace replay uses this to pin faults). A crashed destination
  /// still wins over any forced value.
  virtual std::optional<DeliveryOutcome> ForceOutcome() {
    return std::nullopt;
  }
};

/// Observes every scheduling decision in execution order. Implemented by
/// the trace recorder (src/sim/trace.h).
class DeliveryObserver {
 public:
  virtual ~DeliveryObserver() = default;

  /// Message `m` left channel (m.from, m.to) with the given outcome. The
  /// reference is valid only for the duration of the call.
  virtual void OnDelivery(const Message& m, DeliveryOutcome outcome) = 0;

  /// Processor `p` crashed (inbound messages drop until restart).
  virtual void OnCrash(ProcessorId p) = 0;

  /// Processor `p` restarted.
  virtual void OnRestart(ProcessorId p) = 0;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_SCHEDULE_HOOK_H_
