// The counter ledger: every count the system keeps (messages, sends by
// action kind, reliable-layer and protocol events) is one `Counter`,
// kept in one shard per processor. A count goes to the shard
// of the processor whose code did the work: a send to `m.from`, a
// reliable-layer event to the owner of that channel half, a queue-manager
// or protocol event to its own processor. Cluster::Settle's flush of held
// relays writes senders' shards from a foreign thread (workers idle),
// hence adds are relaxed fetch_adds rather than plain stores.

#ifndef LAZYTREE_NET_STATS_H_
#define LAZYTREE_NET_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/msg/message.h"

namespace lazytree::net {

// Every counter, once: X(enumerator, snapshot field and printed name).
#define LAZYTREE_COUNTERS(X)                                              \
  /* transport, under the sender */                                       \
  X(kRemoteMessages, remote_messages) /* crossed processors */            \
  X(kLocalMessages, local_messages)   /* self-sends, not traffic */       \
  X(kRemoteBytes, remote_bytes)       /* never counted: reads 0 */        \
  /* queue manager */                                                     \
  X(kPiggybackedActions, piggybacked_actions) /* relays held over */     \
  X(kCombinedActions, combined_actions) /* fused into one message */      \
  X(kFastpathReads, fastpath_reads)     /* local hops run inline */       \
  /* reliable layer, under the channel half's owner */                    \
  X(kRetransmits, retransmits)                                            \
  X(kDuplicatesDropped, duplicates_dropped)                               \
  X(kAcksPiggybacked, acks_piggybacked) /* acks on data frames */         \
  X(kLinkDown, link_down)               /* retransmit budget spent */     \
  X(kPureAcks, pure_acks)               /* ack-only frames */             \
  /* processor and protocols */                                           \
  X(kActionsHandled, actions_handled)                                     \
  X(kMigrationsCompleted, migrations_completed) /* mobile */              \
  X(kRecoveryRoutes, recovery_routes)           /* mobile */              \
  X(kForwardHits, forward_hits)                 /* mobile */              \
  X(kDroppedLeafRelays, dropped_leaf_relays)    /* naive: lost keys */    \
  /* sync: initial updates UpdateBlocked deferred, deletes too (the */    \
  /* printed name says inserts: fig5 and the tests print it) */           \
  X(kDeferredInserts, deferred_inserts)                                   \
  X(kJoinsGranted, joins_granted)               /* varcopies */           \
  X(kUnjoinsProcessed, unjoins_processed)       /* varcopies */           \
  X(kLateJoinerRerelays, late_joiner_rerelays)  /* varcopies, Fig. 6 */

enum class Counter : uint8_t {
#define LAZYTREE_COUNTER_ENUMERATOR(e, f) e,
  LAZYTREE_COUNTERS(LAZYTREE_COUNTER_ENUMERATOR)
#undef LAZYTREE_COUNTER_ENUMERATOR
  kCount,
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);
inline constexpr size_t kNumKinds = static_cast<size_t>(ActionKind::kMaxKind);

/// Point-in-time copy of the ledger — one processor's shard or all of
/// them summed (cheap to subtract for intervals).
struct StatsSnapshot {
#define LAZYTREE_COUNTER_FIELD(e, f) uint64_t f = 0;
  LAZYTREE_COUNTERS(LAZYTREE_COUNTER_FIELD)
#undef LAZYTREE_COUNTER_FIELD
  /// Actions sent, by kind.
  std::array<uint64_t, kNumKinds> actions_by_kind{};

  uint64_t& operator[](Counter c);
  StatsSnapshot operator-(const StatsSnapshot& rhs) const;
  uint64_t ActionCount(ActionKind kind) const {
    return actions_by_kind[static_cast<size_t>(kind)];
  }
  /// Every nonzero counter and action kind, as `name=value`.
  std::string ToString() const;
};

/// The name table: Counter i -> its printed name and snapshot field.
struct CounterField {
  const char* name;
  uint64_t StatsSnapshot::*field;
};
inline constexpr CounterField kCounterFields[] = {
#define LAZYTREE_COUNTER_ROW(e, f) {#f, &StatsSnapshot::f},
    LAZYTREE_COUNTERS(LAZYTREE_COUNTER_ROW)
#undef LAZYTREE_COUNTER_ROW
};
static_assert(std::size(kCounterFields) == kNumCounters,
              "one name-table row per Counter");

inline uint64_t& StatsSnapshot::operator[](Counter c) {
  return this->*kCounterFields[static_cast<size_t>(c)].field;
}

/// The ledger: one cache-line-aligned shard per registered processor.
class NetworkStats {
 public:
  /// Gives processors [0, id] a shard. Networks call it from Register,
  /// before anything is counted under `id`.
  void Register(ProcessorId id);

  /// Adds `n` to `writer`'s `counter`: one relaxed fetch_add on the
  /// writer's own shard.
  void Add(ProcessorId writer, Counter counter, uint64_t n = 1) {
    shards_[writer]->counts[static_cast<size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Counts message `m` under `m.from`: one remote or local message and
  /// its actions by kind.
  void AddSend(const Message& m);

  /// All shards summed.
  StatsSnapshot Snapshot() const;
  /// Processor `p`'s shard alone.
  StatsSnapshot Snapshot(ProcessorId p) const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumCounters> counts{};
    std::array<std::atomic<uint64_t>, kNumKinds> sent_by_kind{};
  };

  static void AddShard(const Shard& shard, StatsSnapshot* s);

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_STATS_H_
