// Network accounting: every bench in this repo ultimately reports numbers
// that come from here (messages, bytes, per-action-kind counts).

#ifndef LAZYTREE_NET_STATS_H_
#define LAZYTREE_NET_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/msg/message.h"

namespace lazytree::net {

/// Point-in-time copy of the counters (cheap to subtract for intervals).
struct StatsSnapshot {
  uint64_t remote_messages = 0;  ///< messages that crossed processors
  uint64_t local_messages = 0;   ///< self-sends (not network traffic)
  uint64_t remote_bytes = 0;
  uint64_t piggybacked_actions = 0;  ///< relays held past a delivery
  uint64_t combined_actions = 0;     ///< actions fused into one message
  uint64_t fastpath_reads = 0;  ///< local hops short-circuited by inline descent
  uint64_t retransmits = 0;         ///< messages resent by the reliable layer
  uint64_t duplicates_dropped = 0;  ///< stale/duplicate frames deduped away
  uint64_t acks_piggybacked = 0;    ///< cumulative acks that rode data frames
  uint64_t link_down = 0;  ///< channels declared dead (retransmit budget spent)
  uint64_t pure_acks = 0;  ///< ack-only frames sent when no data rode back
  std::array<uint64_t, static_cast<size_t>(ActionKind::kMaxKind)>
      actions_by_kind{};

  StatsSnapshot operator-(const StatsSnapshot& rhs) const;
  uint64_t ActionCount(ActionKind kind) const {
    return actions_by_kind[static_cast<size_t>(kind)];
  }
  std::string ToString() const;
};

/// Thread-safe counters owned by a Network.
class NetworkStats {
 public:
  void OnSend(const Message& m, size_t encoded_bytes);
  /// `action_count` relays were held in an outbox past the end of a
  /// delivery, to ride on a later message (§1.1 piggybacking).
  void OnPiggyback(size_t action_count);
  /// `action_count` actions left the queue manager fused into an
  /// already-pending message instead of as their own sends.
  void OnCombined(size_t action_count);
  /// A navigation hop (or whole descent) was resolved against local
  /// replicas without a queue-manager round trip.
  void OnFastpathRead(size_t hops);
  /// Reliable-delivery accounting (net/reliable.h): the layer is a
  /// decorator, so it writes into the base transport's stats sink.
  void OnRetransmit(size_t messages);
  void OnDuplicateDropped();
  void OnAckPiggybacked();
  void OnLinkDown();
  void OnPureAck();
  StatsSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> remote_messages_{0};
  std::atomic<uint64_t> local_messages_{0};
  std::atomic<uint64_t> remote_bytes_{0};
  std::atomic<uint64_t> piggybacked_actions_{0};
  std::atomic<uint64_t> combined_actions_{0};
  std::atomic<uint64_t> fastpath_reads_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> duplicates_dropped_{0};
  std::atomic<uint64_t> acks_piggybacked_{0};
  std::atomic<uint64_t> link_down_{0};
  std::atomic<uint64_t> pure_acks_{0};
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(ActionKind::kMaxKind)>
      actions_by_kind_{};
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_STATS_H_
