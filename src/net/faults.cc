#include "src/net/faults.h"

#include <utility>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace lazytree::net {
namespace {

/// One uniform double in [0, 1) for fault decision `stream` of message
/// `index` on link (from, to). Pure function — this is what makes the
/// whole fault layer replayable.
double FaultUniform(uint64_t seed, ProcessorId from, ProcessorId to,
                    uint64_t index, uint64_t stream) {
  uint64_t state = seed;
  state ^= 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(from) + 1);
  state ^= 0xC2B2AE3D27D4EB4Full * (static_cast<uint64_t>(to) + 1);
  state ^= 0x165667B19E3779F9ull * (index + 1);
  state ^= 0x27D4EB2F165667C5ull * (stream + 1);
  uint64_t z = SplitMix64(state);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

constexpr uint64_t kDropStream = 0;
constexpr uint64_t kDupStream = 1;

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, ProcessorId processors)
    : plan_(std::move(plan)),
      processors_(processors),
      link_index_(std::make_unique<std::atomic<uint64_t>[]>(
          static_cast<size_t>(processors) * processors)) {}

bool FaultInjector::Partitioned(ProcessorId from, ProcessorId to,
                                uint64_t index) const {
  for (const FaultPlan::Partition& p : plan_.partitions) {
    const bool on_link = (p.a == from && p.b == to) ||
                         (p.a == to && p.b == from);
    if (on_link && index >= p.start && index < p.start + p.length) {
      return true;
    }
  }
  return false;
}

DeliveryOutcome FaultInjector::Next(ProcessorId from, ProcessorId to) {
  // Self-sends model in-process work, not network traffic, and bypass any
  // reliable layer above; dropping one would wedge the processor's own
  // pipeline, which no real lossy link can do.
  if (from == to) return DeliveryOutcome::kDeliver;
  LAZYTREE_CHECK(from < processors_ && to < processors_)
      << "fault link p" << from << "->p" << to << " out of range";
  const uint64_t index =
      link_index_[static_cast<size_t>(from) * processors_ + to].fetch_add(
          1, std::memory_order_relaxed);
  if (Partitioned(from, to, index)) {
    partitioned_.fetch_add(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return DeliveryOutcome::kDrop;
  }
  if (plan_.drop > 0 &&
      FaultUniform(plan_.seed, from, to, index, kDropStream) < plan_.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return DeliveryOutcome::kDrop;
  }
  if (plan_.duplicate > 0 &&
      FaultUniform(plan_.seed, from, to, index, kDupStream) <
          plan_.duplicate) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    return DeliveryOutcome::kDuplicate;
  }
  return DeliveryOutcome::kDeliver;
}

}  // namespace lazytree::net
