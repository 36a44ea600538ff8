#include "src/net/stats.h"

namespace lazytree::net {

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& rhs) const {
  StatsSnapshot d;
  for (const CounterField& f : kCounterFields) {
    d.*f.field = this->*f.field - rhs.*f.field;
  }
  for (size_t k = 0; k < kNumKinds; ++k) {
    d.actions_by_kind[k] = actions_by_kind[k] - rhs.actions_by_kind[k];
  }
  return d;
}

std::string StatsSnapshot::ToString() const {
  std::string s;
  const auto put = [&s](const char* name, uint64_t value) {
    if (value == 0) return;
    if (!s.empty()) s += ' ';
    (s += name) += '=';
    s += std::to_string(value);
  };
  for (const CounterField& f : kCounterFields) put(f.name, this->*f.field);
  for (size_t k = 1; k < kNumKinds; ++k) {
    put(ActionKindName(static_cast<ActionKind>(k)), actions_by_kind[k]);
  }
  return s;
}

void NetworkStats::Register(ProcessorId id) {
  while (shards_.size() <= id) shards_.push_back(std::make_unique<Shard>());
}

void NetworkStats::AddSend(const Message& m) {
  Shard& shard = *shards_[m.from];
  const Counter kind =
      m.from == m.to ? Counter::kLocalMessages : Counter::kRemoteMessages;
  shard.counts[static_cast<size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  // Coalesced messages repeat kinds, so aggregate locally and issue one
  // atomic RMW per distinct kind instead of one per action.
  uint32_t kinds[kNumKinds] = {};
  for (const Action& a : m.actions) ++kinds[static_cast<size_t>(a.kind)];
  for (size_t k = 0; k < kNumKinds; ++k) {
    if (kinds[k] != 0) {
      shard.sent_by_kind[k].fetch_add(kinds[k], std::memory_order_relaxed);
    }
  }
}

void NetworkStats::AddShard(const Shard& shard, StatsSnapshot* s) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    (*s)[static_cast<Counter>(i)] +=
        shard.counts[i].load(std::memory_order_relaxed);
  }
  for (size_t k = 0; k < kNumKinds; ++k) {
    s->actions_by_kind[k] +=
        shard.sent_by_kind[k].load(std::memory_order_relaxed);
  }
}

StatsSnapshot NetworkStats::Snapshot() const {
  StatsSnapshot s;
  for (const auto& shard : shards_) AddShard(*shard, &s);
  return s;
}

StatsSnapshot NetworkStats::Snapshot(ProcessorId p) const {
  StatsSnapshot s;
  if (p < shards_.size()) AddShard(*shards_[p], &s);
  return s;
}

}  // namespace lazytree::net
