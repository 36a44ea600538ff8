#include "src/protocol/fixed.h"

#include <algorithm>

#include "src/util/logging.h"

namespace lazytree {

FixedPlacement PlaceFixed(NodeId id, int32_t level, uint32_t cluster_size,
                          uint32_t interior_replication,
                          uint32_t leaf_replication) {
  FixedPlacement place;
  place.cluster_size = cluster_size;
  uint64_t h = id.v;
  h = SplitMix64(h);  // scatter node ids across processors
  place.first = static_cast<ProcessorId>(h % cluster_size);
  if (level == 0) {
    place.count = std::min(std::max(leaf_replication, 1u), cluster_size);
  } else {
    place.count = interior_replication == 0
                      ? cluster_size
                      : std::min(interior_replication, cluster_size);
  }
  return place;
}

std::vector<ProcessorId> FixedPlacement::Copies() const {
  std::vector<ProcessorId> copies;
  copies.reserve(count);
  for (uint32_t i = 0; i < count; ++i) copies.push_back(at(i));
  return copies;
}

ProcessorId FixedCopiesProtocol::ResolveDest(NodeId id, int32_t level) {
  LAZYTREE_CHECK(level >= 0) << "fixed routing needs the level for "
                             << id.ToString();
  const FixedPlacement place = Placement(id, level);
  if (place.Contains(p_.id())) return p_.id();
  // Spread load across the replicas.
  return place.at(rng_.Below(place.count));
}

void FixedCopiesProtocol::HandleMissing(Action a) {
  constexpr uint32_t kReRouteHopCap = 64;
  const bool client_path =
      a.kind == ActionKind::kSearch || a.kind == ActionKind::kInsertOp ||
      a.kind == ActionKind::kDeleteOp || a.kind == ActionKind::kScanOp ||
      a.kind == ActionKind::kInsert || a.kind == ActionKind::kDelete;
  if (p_.crash_epoch() > 0 && client_path && a.level >= 0 &&
      a.hops < kReRouteHopCap) {
    std::vector<ProcessorId> copies = PlaceNewNode(a.target, a.level);
    for (size_t i = 0; i < copies.size(); ++i) {
      if (copies[i] != p_.id()) continue;
      // Deterministic rotation to the next replica in the fixed set.
      ProcessorId next = copies[(i + 1) % copies.size()];
      if (next == p_.id()) break;  // single copy: nobody else to ask
      ++a.hops;
      p_.out().SendAction(next, std::move(a));
      return;
    }
  }
  BaseProtocol::HandleMissing(std::move(a));
}

void FixedCopiesProtocol::HandleInitialUpdate(Action a) {
  Node* n = LocalOrRoute(a);
  if (n == nullptr) return;
  ++a.hops;
  if (a.key >= n->right_low()) {
    // The node split before the update arrived: chase the right link,
    // still as an *initial* update (§4.1 insert step 1).
    ChaseRight(*n, std::move(a));
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "initial update left of node: " << a.ToString();
  if (n->level() > a.level) {
    // A separator insert that started at a local copy above its parent
    // level (partial interior replication): descend by key.
    Descend(*n, std::move(a));
    return;
  }
  if (UpdateBlocked(*n)) {
    p_.aas().Defer(n->id(), std::move(a));  // re-enqueued at split_end
    return;
  }
  const Action::Rc rc = ApplyKeyUpdate(*n, a, /*initial=*/true);
  RelayToCopies(*n, a);
  Reply(a, rc, 0);
  if (SplitDue(*n, a) && n->pc() == p_.id()) InitiateSplit(*n);
}

void FixedCopiesProtocol::HandleRelayedUpdate(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    // Relays are addressed directly to copy holders; if ours is not
    // installed yet the kCreateNode is in flight — park until it lands.
    HandleMissing(std::move(a));
    return;
  }
  if (n->Contains(a.key)) {
    ApplyKeyUpdate(*n, a, /*initial=*/false);
    if (SplitDue(*n, a) && n->pc() == p_.id()) InitiateSplit(*n);
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "relayed update left of node: " << a.ToString();
  if (n->pc() == p_.id()) {
    OnPcOutOfRangeRelay(*n, std::move(a));
  } else {
    // A split this copy already applied moved the key out (§4.1: "the
    // action is discarded").
    RecordRewritten(*n, a);
  }
}

}  // namespace lazytree
