#include "src/net/stats.h"

#include <sstream>

namespace lazytree::net {

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& rhs) const {
  StatsSnapshot d;
  d.remote_messages = remote_messages - rhs.remote_messages;
  d.local_messages = local_messages - rhs.local_messages;
  d.remote_bytes = remote_bytes - rhs.remote_bytes;
  d.piggybacked_actions = piggybacked_actions - rhs.piggybacked_actions;
  d.combined_actions = combined_actions - rhs.combined_actions;
  d.fastpath_reads = fastpath_reads - rhs.fastpath_reads;
  d.retransmits = retransmits - rhs.retransmits;
  d.duplicates_dropped = duplicates_dropped - rhs.duplicates_dropped;
  d.acks_piggybacked = acks_piggybacked - rhs.acks_piggybacked;
  d.link_down = link_down - rhs.link_down;
  d.pure_acks = pure_acks - rhs.pure_acks;
  for (size_t i = 0; i < actions_by_kind.size(); ++i) {
    d.actions_by_kind[i] = actions_by_kind[i] - rhs.actions_by_kind[i];
  }
  return d;
}

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "remote_msgs=" << remote_messages << " local_msgs=" << local_messages
     << " remote_bytes=" << remote_bytes
     << " piggybacked=" << piggybacked_actions
     << " combined=" << combined_actions
     << " fastpath_reads=" << fastpath_reads;
  if (retransmits || duplicates_dropped || acks_piggybacked || link_down ||
      pure_acks) {
    os << " retransmits=" << retransmits
       << " dups_dropped=" << duplicates_dropped
       << " acks_piggybacked=" << acks_piggybacked
       << " pure_acks=" << pure_acks << " link_down=" << link_down;
  }
  for (size_t i = 1; i < actions_by_kind.size(); ++i) {
    if (actions_by_kind[i] == 0) continue;
    os << " " << ActionKindName(static_cast<ActionKind>(i)) << "="
       << actions_by_kind[i];
  }
  return os.str();
}

void NetworkStats::OnSend(const Message& m, size_t encoded_bytes) {
  if (m.from == m.to) {
    local_messages_.fetch_add(1, std::memory_order_relaxed);
  } else {
    remote_messages_.fetch_add(1, std::memory_order_relaxed);
    remote_bytes_.fetch_add(encoded_bytes, std::memory_order_relaxed);
  }
  // Coalesced messages repeat kinds, so aggregate locally and issue one
  // atomic RMW per distinct kind instead of one per action.
  uint32_t counts[static_cast<size_t>(ActionKind::kMaxKind)] = {};
  for (const Action& a : m.actions) ++counts[static_cast<size_t>(a.kind)];
  for (size_t k = 0; k < static_cast<size_t>(ActionKind::kMaxKind); ++k) {
    if (counts[k] != 0) {
      actions_by_kind_[k].fetch_add(counts[k], std::memory_order_relaxed);
    }
  }
}

void NetworkStats::OnPiggyback(size_t action_count) {
  piggybacked_actions_.fetch_add(action_count, std::memory_order_relaxed);
}

void NetworkStats::OnCombined(size_t action_count) {
  combined_actions_.fetch_add(action_count, std::memory_order_relaxed);
}

void NetworkStats::OnFastpathRead(size_t hops) {
  fastpath_reads_.fetch_add(hops, std::memory_order_relaxed);
}

void NetworkStats::OnRetransmit(size_t messages) {
  retransmits_.fetch_add(messages, std::memory_order_relaxed);
}

void NetworkStats::OnDuplicateDropped() {
  duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
}

void NetworkStats::OnAckPiggybacked() {
  acks_piggybacked_.fetch_add(1, std::memory_order_relaxed);
}

void NetworkStats::OnLinkDown() {
  link_down_.fetch_add(1, std::memory_order_relaxed);
}

void NetworkStats::OnPureAck() {
  pure_acks_.fetch_add(1, std::memory_order_relaxed);
}

StatsSnapshot NetworkStats::Snapshot() const {
  StatsSnapshot s;
  s.remote_messages = remote_messages_.load(std::memory_order_relaxed);
  s.local_messages = local_messages_.load(std::memory_order_relaxed);
  s.remote_bytes = remote_bytes_.load(std::memory_order_relaxed);
  s.piggybacked_actions =
      piggybacked_actions_.load(std::memory_order_relaxed);
  s.combined_actions = combined_actions_.load(std::memory_order_relaxed);
  s.fastpath_reads = fastpath_reads_.load(std::memory_order_relaxed);
  s.retransmits = retransmits_.load(std::memory_order_relaxed);
  s.duplicates_dropped = duplicates_dropped_.load(std::memory_order_relaxed);
  s.acks_piggybacked = acks_piggybacked_.load(std::memory_order_relaxed);
  s.link_down = link_down_.load(std::memory_order_relaxed);
  s.pure_acks = pure_acks_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < s.actions_by_kind.size(); ++i) {
    s.actions_by_kind[i] =
        actions_by_kind_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void NetworkStats::Reset() {
  // Pure counters with no ordering obligations: relaxed, like the
  // increments. A Reset racing in-flight sends is inherently approximate.
  remote_messages_.store(0, std::memory_order_relaxed);
  local_messages_.store(0, std::memory_order_relaxed);
  remote_bytes_.store(0, std::memory_order_relaxed);
  piggybacked_actions_.store(0, std::memory_order_relaxed);
  combined_actions_.store(0, std::memory_order_relaxed);
  fastpath_reads_.store(0, std::memory_order_relaxed);
  retransmits_.store(0, std::memory_order_relaxed);
  duplicates_dropped_.store(0, std::memory_order_relaxed);
  acks_piggybacked_.store(0, std::memory_order_relaxed);
  link_down_.store(0, std::memory_order_relaxed);
  pure_acks_.store(0, std::memory_order_relaxed);
  for (auto& c : actions_by_kind_) c.store(0, std::memory_order_relaxed);
}

}  // namespace lazytree::net
