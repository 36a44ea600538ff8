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

void FixedCopiesProtocol::HandleInitialInsert(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    ProcessorId dest = ResolveDest(a.target, a.level);
    if (dest == p_.id()) {
      HandleMissing(std::move(a));
    } else {
      p_.out().SendAction(dest, std::move(a));
    }
    return;
  }
  ++a.hops;
  if (a.key >= n->right_low()) {
    // The node split before the insert arrived: chase the right link,
    // still as an *initial* insert (§4.1 insert step 1).
    ChaseRight(*n, std::move(a));
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "initial insert left of node: " << a.ToString();
  if (n->level() > a.level) {
    // A separator insert that started at a local copy above its parent
    // level (partial interior replication): descend by key.
    Descend(*n, std::move(a));
    return;
  }
  if (InsertBlocked(*n)) {
    p_.aas().Defer(n->id(), std::move(a));  // re-enqueued at split_end
    return;
  }
  PerformInitialInsert(*n, std::move(a));
}

void FixedCopiesProtocol::PerformInitialInsert(Node& n, Action a) {
  if (a.update == kNoUpdate) {
    // A client insert reaching its leaf: this is the issue point.
    a.update = NewRegisteredUpdate(history::UpdateClass::kInsert, n.id(),
                                   a.key, a.value);
  }
  const uint64_t payload = n.is_leaf() ? a.value : a.new_node.v;
  const bool inserted = n.Insert(a.key, payload, p_.config().upsert);
  RecordUpdate(n, history::UpdateClass::kInsert, a.update,
               /*initial=*/true, /*rewritten=*/false, a.key, payload,
               a.new_node, 0, n.version());

  // Relay to the other copies (the lazy update). Relays carry no client
  // context; the client is answered by this initial execution alone.
  if (n.copies().size() > 1) {
    Action relay = a;
    relay.kind = ActionKind::kRelayedInsert;
    relay.op = kNoOp;
    relay.origin = p_.id();
    relay.version = n.version();
    p_.out().Broadcast(n.copies(), relay);
  }

  Reply(a, inserted || p_.config().upsert ? Action::Rc::kOk
                                          : Action::Rc::kExists,
        0);

  if (n.Overflowing(p_.config().max_entries) && n.pc() == p_.id()) {
    InitiateSplit(n);
  }
}

void FixedCopiesProtocol::HandleInitialDelete(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    ProcessorId dest = ResolveDest(a.target, a.level);
    if (dest == p_.id()) {
      HandleMissing(std::move(a));
    } else {
      p_.out().SendAction(dest, std::move(a));
    }
    return;
  }
  ++a.hops;
  if (a.key >= n->right_low()) {
    RouteToNode(n->right(), n->level(), std::move(a));
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "initial delete left of node: " << a.ToString();
  if (InsertBlocked(*n)) {
    // Deletes conflict with splits exactly like inserts do.
    p_.aas().Defer(n->id(), std::move(a));
    return;
  }
  PerformInitialDelete(*n, std::move(a));
}

void FixedCopiesProtocol::PerformInitialDelete(Node& n, Action a) {
  if (a.update == kNoUpdate) {
    a.update = NewRegisteredUpdate(history::UpdateClass::kDelete, n.id(),
                                   a.key, 0);
  }
  const bool removed = n.Remove(a.key);
  RecordUpdate(n, history::UpdateClass::kDelete, a.update,
               /*initial=*/true, /*rewritten=*/false, a.key, 0,
               kInvalidNode, 0, n.version());
  if (n.copies().size() > 1) {
    Action relay = a;
    relay.kind = ActionKind::kRelayedDelete;
    relay.op = kNoOp;
    relay.origin = p_.id();
    relay.version = n.version();
    p_.out().Broadcast(n.copies(), relay);
  }
  Reply(a, removed ? Action::Rc::kOk : Action::Rc::kNotFound, 0);
  // Free-at-empty: an emptied node stays in the structure ([11]).
}

void FixedCopiesProtocol::HandleRelayedDelete(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    HandleMissing(std::move(a));
    return;
  }
  if (n->Contains(a.key)) {
    n->Remove(a.key);
    RecordUpdate(*n, history::UpdateClass::kDelete, a.update,
                 /*initial=*/false, /*rewritten=*/false, a.key, 0,
                 kInvalidNode, 0, n->version());
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "relayed delete left of node: " << a.ToString();
  if (n->pc() == p_.id()) {
    OnPcOutOfRangeRelay(*n, std::move(a));
  } else {
    RecordUpdate(*n, history::UpdateClass::kDelete, a.update,
                 /*initial=*/false, /*rewritten=*/true, a.key, 0,
                 kInvalidNode, 0, n->version());
  }
}

void FixedCopiesProtocol::HandleRelayedInsert(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    // Relays are addressed directly to copy holders; if ours is not
    // installed yet the kCreateNode is in flight — park until it lands.
    HandleMissing(std::move(a));
    return;
  }
  const uint64_t payload = n->is_leaf() ? a.value : a.new_node.v;
  if (n->Contains(a.key)) {
    n->Insert(a.key, payload, p_.config().upsert);
    RecordUpdate(*n, history::UpdateClass::kInsert, a.update,
                 /*initial=*/false, /*rewritten=*/false, a.key, payload,
                 a.new_node, 0, n->version());
    if (n->Overflowing(p_.config().max_entries) && n->pc() == p_.id()) {
      InitiateSplit(*n);
    }
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "relayed insert left of node: " << a.ToString();
  if (n->pc() == p_.id()) {
    OnPcOutOfRangeRelay(*n, std::move(a));
  } else {
    // A split this copy already applied moved the key out; the update is
    // logically reordered before that split and has no local effect
    // (§4.1: "the action is discarded") — but it stays in the history.
    RecordUpdate(*n, history::UpdateClass::kInsert, a.update,
                 /*initial=*/false, /*rewritten=*/true, a.key, payload,
                 a.new_node, 0, n->version());
  }
}

void FixedCopiesProtocol::ApplyRelayedSplit(Node& n, const Action& a) {
  n.ApplySplit(a.sep, a.new_node);
  if (a.version > n.version()) n.set_version(a.version);
  RecordUpdate(n, history::UpdateClass::kSplit, a.update,
               /*initial=*/false, /*rewritten=*/false, 0, 0, a.new_node,
               a.sep, a.version);
}

}  // namespace lazytree
