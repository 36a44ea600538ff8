#include "src/protocol/mobile.h"

#include <utility>

#include "src/util/logging.h"

namespace lazytree {

void MobileProtocol::NoteAddr(NodeId id, ProcessorId host, Version version) {
  AddrEntry& entry = addr_[id];
  if (version >= entry.version) {
    entry.host = host;
    entry.version = version;
  }
}

ProcessorId MobileProtocol::ResolveDest(NodeId id, int32_t level) {
  (void)level;
  auto it = addr_.find(id);
  if (it != addr_.end() && it->second.host != p_.id()) {
    return it->second.host;
  }
  if (id.creator() != p_.id()) return id.creator();
  return p_.id();  // caller falls through to HandleMissing
}

void MobileProtocol::HandleMissing(Action a) {
  // §4.2 recovery chain: forwarding address -> closest local node ->
  // the root. Forwarding addresses are an optimization only; dropping
  // them (GC) leaves the closest-node path, which is the same mechanism
  // that recovers misnavigated operations in the B-link protocol.
  ProcessorId forward = p_.store().Forwarding(a.target);
  if (forward != kInvalidProcessor && forward != p_.id()) {
    p_.Count(net::Counter::kForwardHits);
    p_.out().SendAction(forward, std::move(a));
    return;
  }
  switch (a.kind) {
    case ActionKind::kSearch:
    case ActionKind::kInsertOp:
    case ActionKind::kDeleteOp:
    case ActionKind::kScanOp:
    case ActionKind::kInsert:
    case ActionKind::kDelete:
    case ActionKind::kLinkChange:
      break;  // key-routable: closest-node recovery below applies
    default: {
      // Id-bound actions (joins, relays, grants) must never be
      // re-targeted at a different node; chase the creator a few times,
      // then give up.
      if (a.target.creator() != p_.id() && a.hops < 3) {
        ++a.hops;
        p_.out().SendAction(a.target.creator(), std::move(a));
      } else {
        LAZYTREE_WARN << "p" << p_.id() << " dropping unroutable "
                      << a.ToString();
      }
      return;
    }
  }
  // Re-descend from the closest local node — but only while the hop
  // budget lasts: when nothing local (not even the parent) knows the
  // node's new address, re-descending loops parent -> missing child
  // forever. Past the cap, fall through to the random hand-off.
  constexpr uint32_t kRecoveryHopCap = 32;
  Node* close = a.hops < kRecoveryHopCap
                    ? p_.store().Closest(a.key, std::max(a.level, 0))
                    : nullptr;
  if (close != nullptr) {
    p_.Count(net::Counter::kRecoveryRoutes);
    a.target = close->id();
    p_.out().SendLocal(std::move(a));
    return;
  }
  // Deterministically bouncing to a fixed processor (the root's host,
  // the creator) can livelock: its knowledge may be exactly what is
  // stale, while the node's true host is named only by its geometric
  // neighbors' (fresh) links. A uniformly random hand-off reaches some
  // processor holding usable knowledge with probability 1.
  if (p_.cluster_size() > 1) {
    p_.Count(net::Counter::kRecoveryRoutes);
    ProcessorId dest = static_cast<ProcessorId>(
        rng_.Below(p_.cluster_size() - 1));
    if (dest >= p_.id()) ++dest;  // anyone but self
    p_.out().SendAction(dest, std::move(a));
    return;
  }
  LAZYTREE_ERROR << "p" << p_.id() << " cannot route " << a.ToString();
  Reply(a, Action::Rc::kNotFound, 0);
}

void MobileProtocol::HandleInitialUpdate(Action a) {
  Node* n = LocalOrRoute(a);
  if (n == nullptr) return;
  ++a.hops;
  const int32_t want = std::max(a.level, 0);
  if (a.key >= n->right_low()) {
    ChaseRight(*n, std::move(a));
    return;
  }
  if (n->level() > want) {
    // Recovery landed us above the destination level: descend by key.
    Descend(*n, std::move(a));
    return;
  }
  LAZYTREE_CHECK(n->level() == want)
      << "update below destination level: " << a.ToString();
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "initial update left of node: " << a.ToString();
  const Action::Rc rc = ApplyKeyUpdate(*n, a, /*initial=*/true);
  Reply(a, rc, 0);
  if (SplitDue(*n, a)) SplitNode(*n);
}

void MobileProtocol::SplitNode(Node& n) {
  PcSplit s = SplitAtPc(n);
  // Only §4.3's replicated interior nodes have other copies to tell.
  RelaySplit(n, s, ActionKind::kRelayedSplit);

  // §4.2: "a link-change action is sent to the right neighbor" — its left
  // link must now point at the new sibling (§4.3 split step 1).
  const NodeSnapshot& sibling = s.split.sibling;
  if (sibling.right.valid()) {
    SendLinkChange(sibling.right, LinkKind::kLeft, sibling.id,
                   sibling.version, sibling.right_low, n.level());
  }

  const bool is_leaf = n.is_leaf();
  FinishSplit(n, s.split);

  // Online data balancing ([14]): shed the fresh sibling when this
  // processor is over its leaf budget.
  const uint32_t threshold = p_.config().shed_threshold;
  if (threshold != 0 && is_leaf && p_.cluster_size() > 1 &&
      p_.store().CountAtLevel(0) > threshold) {
    ProcessorId dest = static_cast<ProcessorId>(
        rng_.Below(p_.cluster_size() - 1));
    if (dest >= p_.id()) ++dest;  // anyone but self
    Action cmd;
    cmd.kind = ActionKind::kMigrateNode;
    cmd.target = sibling.id;
    cmd.members = {dest};
    p_.out().SendLocal(std::move(cmd));
  }
}

void MobileProtocol::SendLinkChange(NodeId target_node, LinkKind link,
                                    NodeId new_node, Version version,
                                    Key route_key, int32_t level) {
  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kLinkChange,
                                   target_node, route_key, 0);
  Action lc;
  lc.kind = ActionKind::kLinkChange;
  lc.update = u;
  lc.link = link;
  lc.new_node = new_node;
  lc.version = version;
  lc.key = route_key;
  lc.origin = p_.id();
  RouteToNode(target_node, level, std::move(lc));
}

void MobileProtocol::HandleLinkChange(Action a) {
  // Every link-change doubles as an address advertisement.
  NoteAddr(a.new_node, a.origin, a.version);
  if (a.link == LinkKind::kParent) return;  // cache refresh only

  Node* m = LocalOrRoute(a);
  if (m == nullptr) return;
  if (a.key >= m->right_low()) {
    // The neighbor split: the geometric neighbor is further right.
    ChaseRight(*m, std::move(a));
    return;
  }
  if (m->level() > a.level) {
    Descend(*m, std::move(a));
    return;
  }
  ApplyGatedLinkChange(*m, a, /*initial=*/true);
}

void MobileProtocol::ApplyGatedLinkChange(Node& m, const Action& a,
                                          bool initial) {
  if (m.HasApplied(a.update)) return;  // already folded into this copy
  const uint8_t idx = static_cast<uint8_t>(a.link);
  if (a.version > m.link_version(a.link)) {
    if (a.link == LinkKind::kLeft) {
      m.set_left(a.new_node);
    } else {
      m.set_right(a.new_node, m.right_low());
    }
    m.set_link_version(a.link, a.version);
    RecordUpdate(m, history::UpdateClass::kLinkChange, a.update, initial,
                 /*rewritten=*/false, a.key, 0, a.new_node, 0, a.version,
                 idx);
  } else {
    // Stale: rewritten into its proper place in the past (Theorem 3).
    RecordUpdate(m, history::UpdateClass::kLinkChange, a.update, initial,
                 /*rewritten=*/true, a.key, 0, a.new_node, 0, a.version,
                 idx);
  }
}

void MobileProtocol::HandleMigrateNode(Action a) {
  if (a.snapshot.valid()) {
    // Destination side: install, advertise, acknowledge.
    Node* n = InstallFromSnapshot(*a.snapshot);
    NoteAddr(n->id(), p_.id(), n->version());
    RecordUpdate(*n, history::UpdateClass::kMigrate, a.update,
                 /*initial=*/true, /*rewritten=*/false, 0, 0,
                 kInvalidNode, 0, n->version());
    AnnounceMigration(*n, n->version());
    OnMigratedNodeInstalled(*n);
    Action ack;
    ack.kind = ActionKind::kMigrateAck;
    ack.target = n->id();
    ack.origin = p_.id();
    p_.out().SendAction(a.origin, std::move(ack));
    return;
  }

  // Command side: pack the node off to members[0].
  Node* n = Local(a.target);
  if (n == nullptr) {
    // Chase the node through its forwarding address only — a command must
    // never be re-targeted at a different node by closest-node recovery.
    ProcessorId forward = p_.store().Forwarding(a.target);
    if (forward != kInvalidProcessor && forward != p_.id()) {
      p_.out().SendAction(forward, std::move(a));
    } else {
      LAZYTREE_WARN << "p" << p_.id()
                    << " migrate command for absent node "
                    << a.target.ToString();
    }
    return;
  }
  if (a.members.empty() || a.members[0] == p_.id() ||
      a.members[0] >= p_.cluster_size()) {
    LAZYTREE_DEBUG << "migrate command with self/bad destination: no-op";
    return;
  }
  const ProcessorId dest = a.members[0];
  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kMigrate, n->id(),
                                   0, 0);
  n->bump_version();
  Action install;
  install.kind = ActionKind::kMigrateNode;
  install.target = n->id();
  install.update = u;
  install.version = n->version();
  install.snapshot = n->ToSnapshot();
  install.origin = p_.id();
  const NodeId id = n->id();
  const Version version = n->version();
  const SnapshotRef departed = install.snapshot;
  p_.RemoveNode(id, /*forward_to=*/dest);  // leaves a forwarding address
  NoteAddr(id, dest, version);
  p_.out().SendAction(dest, std::move(install));
  OnNodeMigratedAway(*departed);
}

void MobileProtocol::AnnounceMigration(Node& n, Version version) {
  // Ordered link-changes to the sibling neighbors...
  if (n.left().valid()) {
    const Key route = n.range().low == 0 ? 0 : n.range().low - 1;
    SendLinkChange(n.left(), LinkKind::kRight, n.id(), version, route,
                   n.level());
  }
  if (n.right().valid()) {
    SendLinkChange(n.right(), LinkKind::kLeft, n.id(), version,
                   n.right_low(), n.level());
  }
  // ...and unordered address refreshes to the parent and the children.
  Action refresh;
  refresh.kind = ActionKind::kLinkChange;
  refresh.link = LinkKind::kParent;
  refresh.new_node = n.id();
  refresh.version = version;
  refresh.origin = p_.id();
  if (n.parent().valid()) {
    Action to_parent = refresh;
    to_parent.key = n.range().low;
    RouteToNode(n.parent(), n.level() + 1, std::move(to_parent));
  }
  if (!n.is_leaf()) {
    for (const Entry& e : n.entries()) {
      Action to_child = refresh;
      to_child.key = e.key;
      RouteToNode(NodeId{e.payload}, n.level() - 1, std::move(to_child));
    }
  }
}

void MobileProtocol::HandleMigrateAck(Action a) {
  (void)a;
  p_.Count(net::Counter::kMigrationsCompleted);
}

}  // namespace lazytree
