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

void VarCopiesProtocol::HandleInitialInsert(Action a) {
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
      << "misrouted initial insert: " << a.ToString();
  PerformInsert(*n, std::move(a));
}

void VarCopiesProtocol::PerformInsert(Node& n, Action a) {
  if (a.update == kNoUpdate) {
    a.update = NewRegisteredUpdate(history::UpdateClass::kInsert, n.id(),
                                   a.key, a.value);
  }
  const uint64_t payload = n.is_leaf() ? a.value : a.new_node.v;
  const bool inserted = n.Insert(a.key, payload, p_.config().upsert);
  RecordUpdate(n, history::UpdateClass::kInsert, a.update,
               /*initial=*/true, /*rewritten=*/false, a.key, payload,
               a.new_node, 0, n.version());

  // §4.3 insert step 1: relay to every copy we are aware of, with this
  // copy's version number attached.
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

  if (n.Overflowing(p_.config().max_entries)) {
    if (n.is_leaf()) {
      LocalSplit(n);  // single-copy mobile leaf (§4.2)
    } else if (n.pc() == p_.id()) {
      SplitNode(n);
    }
    // A non-PC interior copy overflows into its bucket; the PC splits
    // when the relay reaches it.
  }
}

void VarCopiesProtocol::HandleInitialDelete(Action a) {
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
  const int32_t want = std::max(a.level, 0);
  if (a.key >= n->right_low()) {
    ChaseRight(*n, std::move(a));
    return;
  }
  if (n->level() > want) {
    Descend(*n, std::move(a));
    return;
  }
  if (a.update == kNoUpdate) {
    a.update = NewRegisteredUpdate(history::UpdateClass::kDelete, n->id(),
                                   a.key, 0);
  }
  const bool removed = n->Remove(a.key);
  RecordUpdate(*n, history::UpdateClass::kDelete, a.update,
               /*initial=*/true, /*rewritten=*/false, a.key, 0,
               kInvalidNode, 0, n->version());
  if (n->copies().size() > 1) {
    Action relay = a;
    relay.kind = ActionKind::kRelayedDelete;
    relay.op = kNoOp;
    relay.origin = p_.id();
    relay.version = n->version();
    p_.out().Broadcast(n->copies(), relay);
  }
  Reply(a, removed ? Action::Rc::kOk : Action::Rc::kNotFound, 0);
}

void VarCopiesProtocol::HandleRelayedDelete(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    ParkOrDiscardRelay(std::move(a));
    return;
  }
  if (n->HasApplied(a.update)) return;  // exactly-once (see relayed insert)
  if (n->Contains(a.key)) {
    n->Remove(a.key);
    RecordUpdate(*n, history::UpdateClass::kDelete, a.update,
                 /*initial=*/false, /*rewritten=*/false, a.key, 0,
                 kInvalidNode, 0, n->version());
    if (n->pc() == p_.id()) {
      auto it = join_versions_.find(n->id());
      if (it != join_versions_.end() && !p_.config().ablate_fig6_rerelay) {
        for (const auto& [member, joined_at] : it->second) {
          if (joined_at > a.version && member != a.origin &&
              member != p_.id()) {
            ++late_joiner_rerelays_;
            p_.out().SendAction(member, a);
          }
        }
      }
    }
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "relayed delete left of node: " << a.ToString();
  RecordUpdate(*n, history::UpdateClass::kDelete, a.update,
               /*initial=*/false, /*rewritten=*/true, a.key, 0,
               kInvalidNode, 0, n->version());
  if (n->pc() == p_.id()) {
    auto it = join_versions_.find(n->id());
    if (it != join_versions_.end() && !p_.config().ablate_fig6_rerelay) {
      for (const auto& [member, joined_at] : it->second) {
        if (joined_at > a.version && member != a.origin &&
            member != p_.id()) {
          ++late_joiner_rerelays_;
          p_.out().SendAction(member, a);
        }
      }
    }
    Action forward = std::move(a);
    forward.kind = ActionKind::kDelete;
    forward.op = kNoOp;
    forward.origin = p_.id();
    forward.level = n->level();
    RouteToNode(n->right(), n->level(), std::move(forward));
  }
}

void VarCopiesProtocol::ParkOrDiscardRelay(Action a) {
  if (!unjoined_.contains(a.target) || pending_joins_.contains(a.target)) {
    // A kCreateNode or join grant for this node is (or may be) in
    // flight; the relay belongs after that seed. Park until it lands.
    BaseProtocol::HandleMissing(std::move(a));
    return;
  }
  ++discarded_relays_;  // §4.3: unjoined processors discard relays
}

void VarCopiesProtocol::HandleRelayedInsert(Action a) {
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
  const uint64_t payload = n->is_leaf() ? a.value : a.new_node.v;
  if (n->Contains(a.key)) {
    n->Insert(a.key, payload, p_.config().upsert);
    RecordUpdate(*n, history::UpdateClass::kInsert, a.update,
                 /*initial=*/false, /*rewritten=*/false, a.key, payload,
                 a.new_node, 0, n->version());
    if (n->pc() == p_.id()) {
      // §4.3 insert step 3a: re-relay to members that joined after the
      // version attached to this update (Fig. 6).
      auto it = join_versions_.find(n->id());
      if (it != join_versions_.end() && !p_.config().ablate_fig6_rerelay) {
        for (const auto& [member, joined_at] : it->second) {
          if (joined_at > a.version && member != a.origin &&
              member != p_.id()) {
            ++late_joiner_rerelays_;
            p_.out().SendAction(member, a);
          }
        }
      }
      if (n->Overflowing(p_.config().max_entries) && !n->is_leaf()) {
        SplitNode(*n);
      }
    }
    return;
  }
  LAZYTREE_CHECK(a.key >= n->range().low)
      << "relayed insert left of node: " << a.ToString();
  if (n->pc() == p_.id()) {
    // §4.3 insert step 3b (the §4.1.2 history rewrite): forward to the
    // node that owns the key now.
    RecordUpdate(*n, history::UpdateClass::kInsert, a.update,
                 /*initial=*/false, /*rewritten=*/true, a.key, payload,
                 a.new_node, 0, n->version());
    // Late joiners still need the relay (they record the same rewrite) —
    // their seed snapshot predates this update just like ours did.
    auto it = join_versions_.find(n->id());
    if (it != join_versions_.end() && !p_.config().ablate_fig6_rerelay) {
      for (const auto& [member, joined_at] : it->second) {
        if (joined_at > a.version && member != a.origin &&
            member != p_.id()) {
          ++late_joiner_rerelays_;
          p_.out().SendAction(member, a);
        }
      }
    }
    Action forward = std::move(a);
    forward.kind = ActionKind::kInsert;
    forward.op = kNoOp;
    forward.origin = p_.id();
    forward.level = n->level();
    RouteToNode(n->right(), n->level(), std::move(forward));
  } else {
    RecordUpdate(*n, history::UpdateClass::kInsert, a.update,
                 /*initial=*/false, /*rewritten=*/true, a.key, payload,
                 a.new_node, 0, n->version());
  }
}

void VarCopiesProtocol::SplitNode(Node& n) {
  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kSplit, n.id(),
                                   0, 0);
  Node::SplitResult split = n.HalfSplit(p_.NewNodeId());
  n.bump_version();
  RecordUpdate(n, history::UpdateClass::kSplit, u, /*initial=*/true,
               /*rewritten=*/false, 0, 0, split.sibling.id, split.sep,
               n.version());
  if (n.copies().size() > 1) {
    Action relay;
    relay.kind = ActionKind::kRelayedSplit;
    relay.target = n.id();
    relay.update = u;
    relay.sep = split.sep;
    relay.new_node = split.sibling.id;
    relay.version = n.version();
    relay.origin = p_.id();
    p_.out().Broadcast(n.copies(), relay);
  }
  // §4.3 split step 1: link-change to the PC of the old right sibling.
  if (split.sibling.right.valid()) {
    SendLinkChange(split.sibling.right, LinkKind::kLeft, split.sibling.id,
                   split.sibling.version, split.sibling.right_low,
                   n.level());
  }
  FinishSplit(n, split);
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
  const NodeId id = n->id();
  n->ApplySplit(a.sep, a.new_node);
  if (a.version > n->version()) n->set_version(a.version);
  RecordUpdate(*n, history::UpdateClass::kSplit, a.update,
               /*initial=*/false, /*rewritten=*/false, 0, 0, a.new_node,
               a.sep, a.version);
  // The split may have moved every local child under the sibling: this
  // copy might no longer be on any local leaf's path.
  MaybeUnjoinAncestors(id);
}

void VarCopiesProtocol::HandleCreateNode(Action a) {
  const NodeId id = a.snapshot.id;
  const int32_t level = a.snapshot.level;
  unjoined_.erase(id);
  BaseProtocol::HandleCreateNode(std::move(a));
  // Interior siblings arrive with inherited membership; keep the copy
  // only if some local leaf actually lives under it (Fig. 2 policy).
  if (level > 0) MaybeUnjoinAncestors(id);
}

void VarCopiesProtocol::HandleLinkChange(Action a) {
  NoteAddr(a.new_node, a.origin, a.version);
  if (a.link == LinkKind::kParent) return;  // cache refresh only

  Node* m = Local(a.target);
  if (m == nullptr) {
    if (a.kind == ActionKind::kRelayedLinkChange) {
      ParkOrDiscardRelay(std::move(a));
      return;
    }
    ProcessorId dest = ResolveDest(a.target, a.level);
    if (dest == p_.id()) {
      HandleMissing(std::move(a));
    } else {
      p_.out().SendAction(dest, std::move(a));
    }
    return;
  }
  if (a.kind == ActionKind::kRelayedLinkChange) {
    ApplyGatedLinkChange(*m, a, /*initial=*/false);
    return;
  }
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
  Node* n = Local(a.target);
  if (n == nullptr) {
    ProcessorId dest = ResolveDest(a.target, a.level);
    if (dest == p_.id()) {
      HandleMissing(std::move(a));  // id-bound: creator chase only
    } else {
      p_.out().SendAction(dest, std::move(a));
    }
    return;
  }
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
  ++joins_granted_;

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
    Node* n = InstallFromSnapshot(a.snapshot);
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
  ++unjoins_processed_;

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
