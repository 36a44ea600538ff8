#include "src/protocol/varcopies.h"

#include <algorithm>

#include "src/util/logging.h"

namespace lazytree {

std::vector<ProcessorId> VarCopiesProtocol::PlaceNewNode(NodeId id,
                                                         int32_t level) {
  (void)id;
  if (level == 0) return {p_.id()};  // leaves are single-copy and mobile
  // Interior nodes created outside a split are new roots: replicated
  // everywhere (Fig. 2), with the creator as PC.
  std::vector<ProcessorId> copies;
  copies.push_back(p_.id());
  for (ProcessorId other = 0; other < p_.cluster_size(); ++other) {
    if (other != p_.id()) copies.push_back(other);
  }
  return copies;
}

std::vector<ProcessorId> VarCopiesProtocol::PlaceSibling(
    const Node& splitting, NodeId sibling_id) {
  (void)sibling_id;
  if (splitting.is_leaf()) return {p_.id()};
  // The interior sibling inherits the split node's membership; this PC
  // (which performs the split) becomes the sibling's PC.
  std::vector<ProcessorId> copies;
  copies.push_back(p_.id());
  for (ProcessorId member : splitting.copies()) {
    if (member != p_.id()) copies.push_back(member);
  }
  return copies;
}

void VarCopiesProtocol::HandleInitialUpdate(Action a) {
  Node* n = LocalOrRoute(a);
  if (n == nullptr) return;
  ++a.hops;
  const int32_t want = std::max(a.level, 0);
  if (a.key >= n->right_low()) {
    ChaseRight(*n, std::move(a));
    return;
  }
  if (n->level() > want) {
    Descend(*n, std::move(a));
    return;
  }
  LAZYTREE_CHECK(n->level() == want && a.key >= n->range().low)
      << "misrouted initial update: " << a.ToString();
  const Action::Rc rc = ApplyKeyUpdate(*n, a, /*initial=*/true);
  // §4.3 insert step 1: relay to every copy we are aware of, with this
  // copy's version number attached.
  RelayToCopies(*n, a);
  Reply(a, rc, 0);
  // A single-copy mobile leaf (§4.2) splits here, a replicated interior
  // node at its PC (§4.1.2). A non-PC interior copy overflows into its
  // bucket; the PC splits when the relay reaches it.
  if (SplitDue(*n, a) && (n->is_leaf() || n->pc() == p_.id())) {
    SplitNode(*n);
  }
}

void VarCopiesProtocol::ParkOrDiscardRelay(Action a) {
  // §4.3: unjoined processors discard relays. Otherwise a kCreateNode or
  // join grant for this node is (or may be) in flight; the relay belongs
  // after that seed. Park until it lands.
  if (!unjoined_.contains(a.target) || pending_joins_.contains(a.target)) {
    BaseProtocol::HandleMissing(std::move(a));
  }
}

void VarCopiesProtocol::ReRelayToLateJoiners(const Node& n,
                                             const Action& a) {
  auto it = join_versions_.find(n.id());
  if (it == join_versions_.end() || p_.config().ablate_fig6_rerelay) return;
  for (const auto& [member, joined_at] : it->second) {
    if (joined_at > a.version && member != a.origin && member != p_.id()) {
      p_.Count(net::Counter::kLateJoinerRerelays);
      p_.out().SendAction(member, a);
    }
  }
}

void VarCopiesProtocol::HandleRelayedUpdate(Action a) {
  // Leaves are single-copy, so only separator inserts into replicated
  // interior nodes are relayed; deletes never are.
  Node* n = Local(a.target);
  if (n == nullptr) {
    ParkOrDiscardRelay(std::move(a));
    return;
  }
  if (n->HasApplied(a.update)) {
    // Already folded into this copy (a stale direct relay from an origin
    // whose member list predates our unjoin/rejoin, or a relay whose
    // update rode in on our seed snapshot). Dropping keeps application
    // exactly-once; with update tracking off, the re-apply below is
    // value-idempotent anyway.
    return;
  }
  if (n->Contains(a.key)) {
    ApplyKeyUpdate(*n, a, /*initial=*/false);
    if (n->pc() == p_.id()) {
      ReRelayToLateJoiners(*n, a);
      if (SplitDue(*n, a) && !n->is_leaf()) SplitNode(*n);
    }
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "relayed update left of node: " << a.ToString();
  RecordRewritten(*n, a);
  if (n->pc() == p_.id()) {
    // §4.3 insert step 3b (the §4.1.2 history rewrite): forward to the
    // node that owns the key now. Late joiners still need the relay.
    ReRelayToLateJoiners(*n, a);
    ForwardRewritten(*n, std::move(a));
  }
}

void VarCopiesProtocol::HandleRelayedSplit(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    ParkOrDiscardRelay(std::move(a));
    return;
  }
  if (a.version <= n->version()) {
    // PC events (splits, joins, unjoins) reach a copy in version order —
    // through relays or its seed snapshot — so an event at or below the
    // copy's version is already reflected. (Happens after rejoin races.)
    return;
  }
  ApplyRelayedSplit(*n, a);
  // The split may have moved every local child under the sibling: this
  // copy might no longer be on any local leaf's path.
  MaybeUnjoinAncestors(n->id());
}

void VarCopiesProtocol::HandleCreateNode(Action a) {
  const NodeId id = a.snapshot->id;
  const int32_t level = a.snapshot->level;
  unjoined_.erase(id);
  BaseProtocol::HandleCreateNode(std::move(a));
  // Interior siblings arrive with inherited membership; keep the copy
  // only if some local leaf actually lives under it (Fig. 2 policy).
  if (level > 0) MaybeUnjoinAncestors(id);
}

void VarCopiesProtocol::HandleLinkChange(Action a) {
  NoteAddr(a.new_node, a.origin, a.version);
  if (a.link == LinkKind::kParent) return;  // cache refresh only

  if (a.kind == ActionKind::kRelayedLinkChange) {
    if (Node* m = Local(a.target)) {
      ApplyGatedLinkChange(*m, a, /*initial=*/false);
    } else {
      ParkOrDiscardRelay(std::move(a));
    }
    return;
  }
  Node* m = LocalOrRoute(a);
  if (m == nullptr) return;
  // Initial link-change: geometry corrections first, as in §4.2.
  if (a.key >= m->right_low()) {
    ChaseRight(*m, std::move(a));
    return;
  }
  if (m->level() > a.level) {
    Descend(*m, std::move(a));
    return;
  }
  if (m->copies().size() > 1) {
    // Replicated neighbor: the change registers at its PC and relays to
    // every copy, so copy histories stay uniform.
    if (m->pc() != p_.id()) {
      p_.out().SendAction(m->pc(), std::move(a));
      return;
    }
    Action relay = a;
    relay.kind = ActionKind::kRelayedLinkChange;
    // Keep the original `origin`: it advertises new_node's host.
    p_.out().Broadcast(m->copies(), relay);
  }
  ApplyGatedLinkChange(*m, a, /*initial=*/true);
}

void VarCopiesProtocol::HandleJoin(Action a) {
  Node* n = LocalOrRoute(a);  // id-bound: HandleMissing chases the creator
  if (n == nullptr) return;
  if (n->pc() != p_.id()) {
    p_.out().SendAction(n->pc(), std::move(a));  // the PC registers joins
    return;
  }
  if (n->HasCopy(a.origin)) return;  // duplicate request

  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kMembership,
                                   n->id(), /*key=*/a.origin, /*value=*/1);
  n->bump_version();
  n->AddCopy(a.origin);
  join_versions_[n->id()][a.origin] = n->version();
  RecordUpdate(*n, history::UpdateClass::kMembership, u, /*initial=*/true,
               /*rewritten=*/false, a.origin, 1, kInvalidNode, 0,
               n->version());
  p_.Count(net::Counter::kJoinsGranted);

  // Grant: the snapshot *after* the registration, so the new copy's
  // backwards extension contains exactly the updates it will not be sent.
  Action grant;
  grant.kind = ActionKind::kJoinGrant;
  grant.target = n->id();
  grant.update = u;
  grant.version = n->version();
  grant.snapshot = n->ToSnapshot();
  grant.origin = p_.id();
  p_.out().SendAction(a.origin, std::move(grant));

  // Tell the existing members about the new one.
  Action relayed;
  relayed.kind = ActionKind::kRelayedJoin;
  relayed.target = n->id();
  relayed.update = u;
  relayed.version = n->version();
  relayed.members = {a.origin};
  relayed.origin = p_.id();
  for (ProcessorId member : n->copies()) {
    if (member != p_.id() && member != a.origin) {
      p_.out().SendAction(member, relayed);
    }
  }
}

void VarCopiesProtocol::HandleJoinGrant(Action a) {
  pending_joins_.erase(a.target);
  std::vector<Key> resume;
  if (auto it = pending_join_keys_.find(a.target);
      it != pending_join_keys_.end()) {
    resume = std::move(it->second);
    pending_join_keys_.erase(it);
  }
  if (Local(a.target) == nullptr) {
    unjoined_.erase(a.target);
    Node* n = InstallFromSnapshot(*a.snapshot);
    NoteAddr(n->id(), p_.id(), n->version());
  }
  // Resume every suspended path descent through the fresh copy.
  for (Key low : resume) JoinPath(low);
}

void VarCopiesProtocol::HandleRelayedJoin(Action a) {
  Node* m = Local(a.target);
  if (m == nullptr) {
    ParkOrDiscardRelay(std::move(a));
    return;
  }
  LAZYTREE_CHECK(!a.members.empty()) << "relayed join without member";
  if (a.version <= m->version()) return;  // already reflected (see split)
  m->AddCopy(a.members[0]);
  m->set_version(a.version);
  RecordUpdate(*m, history::UpdateClass::kMembership, a.update,
               /*initial=*/false, /*rewritten=*/false, a.members[0], 1,
               kInvalidNode, 0, a.version);
}

void VarCopiesProtocol::HandleUnjoin(Action a) {
  Node* n = LocalOrRoute(a);
  if (n == nullptr) return;
  if (n->pc() != p_.id()) {
    p_.out().SendAction(n->pc(), std::move(a));
    return;
  }
  if (!n->HasCopy(a.origin)) return;  // duplicate request

  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kMembership,
                                   n->id(), /*key=*/a.origin, /*value=*/0);
  n->bump_version();
  n->RemoveCopy(a.origin);
  join_versions_[n->id()].erase(a.origin);
  RecordUpdate(*n, history::UpdateClass::kMembership, u, /*initial=*/true,
               /*rewritten=*/false, a.origin, 0, kInvalidNode, 0,
               n->version());
  p_.Count(net::Counter::kUnjoinsProcessed);

  Action relayed;
  relayed.kind = ActionKind::kRelayedUnjoin;
  relayed.target = n->id();
  relayed.update = u;
  relayed.version = n->version();
  relayed.members = {a.origin};
  relayed.origin = p_.id();
  for (ProcessorId member : n->copies()) {
    if (member != p_.id()) p_.out().SendAction(member, relayed);
  }
}

void VarCopiesProtocol::HandleRelayedUnjoin(Action a) {
  Node* m = Local(a.target);
  if (m == nullptr) {
    ParkOrDiscardRelay(std::move(a));
    return;
  }
  LAZYTREE_CHECK(!a.members.empty()) << "relayed unjoin without member";
  if (a.version <= m->version()) return;  // already reflected (see split)
  m->RemoveCopy(a.members[0]);
  m->set_version(a.version);
  RecordUpdate(*m, history::UpdateClass::kMembership, a.update,
               /*initial=*/false, /*rewritten=*/false, a.members[0], 0,
               kInvalidNode, 0, a.version);
}

void VarCopiesProtocol::OnMigratedNodeInstalled(Node& n) {
  // Fig.-2 invariant: owning a leaf obliges us to replicate its path.
  if (n.is_leaf()) JoinPath(n.range().low);
}

void VarCopiesProtocol::OnNodeMigratedAway(const NodeSnapshot& snapshot) {
  if (snapshot.level != 0) return;
  // Drop every interior copy left with no local leaf beneath it. That
  // depends only on the local leaves, so one pass in any order suffices.
  std::vector<NodeId> interior;
  p_.store().ForEach([&](const Node& n) {
    if (!n.is_leaf()) interior.push_back(n.id());
  });
  for (NodeId id : interior) MaybeUnjoinAncestors(id);
}

void VarCopiesProtocol::JoinPath(Key leaf_low) {
  // Descend from the local root copy (the root is everywhere) toward the
  // leaf, joining each interior node that is not yet local. Right links
  // are followed like any misnavigation, so stale entries and in-flight
  // parent inserts are harmless.
  Node* cur = Local(p_.store().root_hint());
  if (cur == nullptr) {
    LAZYTREE_WARN << "p" << p_.id() << " has no local root copy";
    return;
  }
  while (true) {
    NodeId next;
    if (leaf_low >= cur->right_low()) {
      next = cur->right();
    } else if (cur->level() <= 1) {
      return;  // the next step down is the leaf itself
    } else {
      next = cur->ChildFor(leaf_low);
    }
    if (Node* local = Local(next)) {
      cur = local;
      continue;
    }
    pending_join_keys_[next].push_back(leaf_low);
    if (!pending_joins_.contains(next)) {
      pending_joins_.insert(next);
      Action join;
      join.kind = ActionKind::kJoin;
      join.target = next;
      join.origin = p_.id();
      RouteToNode(next, /*level=*/-1, std::move(join));
    }
    return;  // the grant resumes this descent
  }
}

void VarCopiesProtocol::MaybeUnjoinAncestors(NodeId ancestor) {
  NodeId cur = ancestor;
  while (cur.valid()) {
    Node* m = Local(cur);
    if (m == nullptr) return;
    if (!m->parent().valid()) return;    // the root stays everywhere
    if (m->pc() == p_.id()) return;      // the PC never changes (§4.3)
    // Fig. 2 keeps m exactly while some local leaf lies under it.
    const Node* leaf = p_.store().FirstAtLevel(0, m->range().low);
    if (leaf != nullptr && leaf->range().low < m->range().high) return;
    const NodeId parent = m->parent();
    Action unjoin;
    unjoin.kind = ActionKind::kUnjoin;
    unjoin.target = cur;
    unjoin.origin = p_.id();
    p_.out().SendAction(m->pc(), std::move(unjoin));
    unjoined_.insert(cur);
    p_.RemoveNode(cur);  // relays for it are discarded from now on
    cur = parent;
  }
}

}  // namespace lazytree
