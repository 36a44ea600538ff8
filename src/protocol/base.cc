#include "src/protocol/base.h"

#include <algorithm>

#include "src/util/logging.h"

namespace lazytree {

namespace {

history::UpdateClass KeyUpdateClass(bool insert) {
  return insert ? history::UpdateClass::kInsert
                : history::UpdateClass::kDelete;
}

// What an insert stores at `n`: the value at a leaf, the child id above.
uint64_t InsertPayload(const Node& n, const Action& a) {
  return n.is_leaf() ? a.value : a.new_node.v;
}

}  // namespace

BaseProtocol::BaseProtocol(Processor& p)
    : p_(p), rng_(0x5eedba5e ^ (static_cast<uint64_t>(p.id()) << 17)) {}

void BaseProtocol::Handle(Action a) {
  switch (a.kind) {
    case ActionKind::kSearch:
    case ActionKind::kInsertOp:
    case ActionKind::kDeleteOp:
    case ActionKind::kScanOp:
      Navigate(std::move(a));
      break;
    case ActionKind::kInsert:
    case ActionKind::kDelete:
      HandleInitialUpdate(std::move(a));
      break;
    case ActionKind::kRelayedInsert:
    case ActionKind::kRelayedDelete:
      HandleRelayedUpdate(std::move(a));
      break;
    case ActionKind::kSplitStart: HandleSplitStart(std::move(a)); break;
    case ActionKind::kSplitAck: HandleSplitAck(std::move(a)); break;
    case ActionKind::kSplitEnd: HandleSplitEnd(std::move(a)); break;
    case ActionKind::kRelayedSplit: HandleRelayedSplit(std::move(a)); break;
    case ActionKind::kCreateNode: HandleCreateNode(std::move(a)); break;
    case ActionKind::kRootHint: HandleRootHint(std::move(a)); break;
    case ActionKind::kLinkChange:
    case ActionKind::kRelayedLinkChange:
      HandleLinkChange(std::move(a));
      break;
    case ActionKind::kMigrateNode: HandleMigrateNode(std::move(a)); break;
    case ActionKind::kMigrateAck: HandleMigrateAck(std::move(a)); break;
    case ActionKind::kJoin: HandleJoin(std::move(a)); break;
    case ActionKind::kJoinGrant: HandleJoinGrant(std::move(a)); break;
    case ActionKind::kRelayedJoin: HandleRelayedJoin(std::move(a)); break;
    case ActionKind::kUnjoin: HandleUnjoin(std::move(a)); break;
    case ActionKind::kRelayedUnjoin: HandleRelayedUnjoin(std::move(a)); break;
    case ActionKind::kVigorousLock:
    case ActionKind::kVigorousLockAck:
    case ActionKind::kVigorousApply:
    case ActionKind::kVigorousApplyDelete:
    case ActionKind::kVigorousApplySplit:
      HandleVigorous(std::move(a));
      break;
    default:
      Unexpected(a);
  }
}

void BaseProtocol::MixState(Fingerprint& fp) const {
  std::vector<NodeId> ids;
  ids.reserve(parked_.size());
  for (const auto& [id, actions] : parked_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  fp.Mix(ids.size());
  for (NodeId id : ids) {
    fp.Mix(id.v);
    const auto& actions = parked_.at(id);
    fp.Mix(actions.size());
    for (const Action& a : actions) MixAction(fp, a);
  }
  for (uint64_t word : rng_.state()) fp.Mix(word);
}

void BaseProtocol::Unexpected(const Action& a) {
  LAZYTREE_ERROR << "p" << p_.id() << " dropping unexpected action "
                 << a.ToString();
}

void BaseProtocol::HandleMissing(Action a) {
  // Default policy (fixed-copies): this processor is the designated home
  // of the target but the kCreateNode carrying it is still in flight.
  // Park the action; InstallFromSnapshot drains it.
  parked_[a.target].push_back(std::move(a));
}

void BaseProtocol::RouteAway(Action a) {
  const ProcessorId dest = ResolveDest(a.target, a.level);
  if (dest == p_.id()) {
    HandleMissing(std::move(a));
  } else {
    p_.out().SendAction(dest, std::move(a));
  }
}

Node* BaseProtocol::LocalOrRoute(Action& a) {
  Node* n = Local(a.target);
  if (n == nullptr) RouteAway(std::move(a));
  return n;
}

void BaseProtocol::RouteToNode(NodeId id, int32_t level, Action a) {
  a.target = id;
  a.level = level;
  if (Local(id) != nullptr) {
    p_.out().SendLocal(std::move(a));
  } else {
    RouteAway(std::move(a));
  }
}

void BaseProtocol::Navigate(Action a) {
  // Resolve the starting point lazily: operations begin at the local root
  // hint (§1.1 — every operation starts by accessing the root).
  if (!a.target.valid()) {
    a.target = p_.store().root_hint();
    a.level = p_.store().root_level();
    if (!a.target.valid()) {
      LAZYTREE_ERROR << "p" << p_.id() << " has no root hint";
      Reply(a, Action::Rc::kNotFound, 0);
      return;
    }
  }
  size_t inline_hops = 0;
  for (;;) {
    Node* n = LocalOrRoute(a);
    if (n == nullptr) break;
    if (ReadBlocked(*n)) {
      p_.aas().Defer(n->id(), std::move(a));
      break;
    }
    ++a.hops;
    LAZYTREE_CHECK(a.key >= n->range().low)
        << "action " << a.ToString() << " navigated left of "
        << n->ToString();
    if (a.key >= n->right_low()) {
      // Misnavigation (the node split under us): chase the right link.
      a.target = n->right();
      a.level = n->level();
      ++inline_hops;
      continue;
    }
    if (!n->is_leaf()) {
      a.target = n->ChildFor(a.key);
      a.level = n->level() - 1;
      ++inline_hops;
      continue;
    }
    // Leaf reached.
    switch (a.kind) {
      case ActionKind::kSearch:
        CompleteSearch(a, *n);
        break;
      case ActionKind::kScanOp:
        ContinueScan(std::move(a), *n);
        break;
      case ActionKind::kInsertOp:
      case ActionKind::kDeleteOp:
        // The navigation phase ends here; the action becomes an initial
        // update on this leaf (§4.1).
        a.kind = a.kind == ActionKind::kInsertOp ? ActionKind::kInsert
                                                 : ActionKind::kDelete;
        HandleInitialUpdate(std::move(a));
        break;
      default:
        Unexpected(a);
    }
    break;
  }
  // Each inline continuation replaced one self-send round trip through
  // the local queue.
  if (inline_hops > 0) {
    p_.Count(net::Counter::kFastpathReads, inline_hops);
  }
}

void BaseProtocol::SendReturn(Action r) {
  const ProcessorId origin = OpOrigin(r.op);
  if (origin == p_.id()) {
    p_.CompleteReturnLocal(std::move(r));
    return;
  }
  p_.out().SendAction(origin, std::move(r));
}

void BaseProtocol::ContinueScan(Action a, Node& leaf) {
  const uint64_t limit = a.value;
  for (const Entry& e : leaf.entries()) {
    if (e.key < a.key) continue;
    if (a.range_results.size() >= limit) break;
    a.range_results.push_back(e);
  }
  if (a.range_results.size() >= limit ||
      leaf.right_low() == kKeyInfinity) {
    Action r;
    r.kind = ActionKind::kReturnValue;
    r.op = a.op;
    r.key = a.key;
    r.rc = Action::Rc::kOk;
    r.hops = a.hops;
    r.range_results = std::move(a.range_results);
    SendReturn(std::move(r));
    return;
  }
  // Continue from the right sibling's low key.
  a.key = leaf.right_low();
  RouteToNode(leaf.right(), leaf.level(), std::move(a));
}

void BaseProtocol::CompleteSearch(const Action& a, Node& leaf) {
  std::optional<Value> hit = leaf.Find(a.key);
  Reply(a, hit.has_value() ? Action::Rc::kOk : Action::Rc::kNotFound,
        hit.value_or(0));
}

void BaseProtocol::Reply(const Action& a, Action::Rc rc, Value value) {
  if (a.op == kNoOp) return;  // maintenance actions have no client
  Action r;
  r.kind = ActionKind::kReturnValue;
  r.op = a.op;
  r.key = a.key;
  r.value = value;
  r.found = rc == Action::Rc::kOk && a.kind == ActionKind::kSearch;
  r.rc = rc;
  r.hops = a.hops;
  SendReturn(std::move(r));
}

void BaseProtocol::RegisterKeyUpdate(const Node& n, Action& a) {
  if (a.update != kNoUpdate) return;
  const bool insert = IsInsert(a);
  a.update = NewRegisteredUpdate(KeyUpdateClass(insert), n.id(), a.key,
                                 insert ? a.value : 0);
}

Action::Rc BaseProtocol::ApplyKeyUpdate(Node& n, Action& a, bool initial) {
  const bool insert = IsInsert(a);
  if (initial) RegisterKeyUpdate(n, a);
  Action::Rc rc = Action::Rc::kOk;
  if (insert) {
    const bool upsert = p_.config().upsert;
    if (!n.Insert(a.key, InsertPayload(n, a), upsert) && !upsert) {
      rc = Action::Rc::kExists;
    }
  } else if (!n.Remove(a.key)) {
    rc = Action::Rc::kNotFound;
  }
  RecordKeyUpdate(n, a, initial, /*rewritten=*/false);
  return rc;
}

void BaseProtocol::RecordRewritten(Node& n, const Action& a) {
  RecordKeyUpdate(n, a, /*initial=*/false, /*rewritten=*/true);
}

void BaseProtocol::RecordKeyUpdate(Node& n, const Action& a, bool initial,
                                   bool rewritten) {
  const bool insert = IsInsert(a);
  RecordUpdate(n, KeyUpdateClass(insert), a.update, initial, rewritten,
               a.key, insert ? InsertPayload(n, a) : 0,
               insert ? a.new_node : kInvalidNode, 0, n.version());
}

void BaseProtocol::RelayToCopies(const Node& n, const Action& a) {
  if (n.copies().size() <= 1) return;
  Action relay = a;
  relay.kind = IsInsert(a) ? ActionKind::kRelayedInsert
                           : ActionKind::kRelayedDelete;
  relay.op = kNoOp;
  relay.origin = p_.id();
  relay.version = n.version();
  p_.out().Broadcast(n.copies(), relay);
}

void BaseProtocol::ForwardRewritten(const Node& n, Action a) {
  a.kind = IsInsert(a) ? ActionKind::kInsert : ActionKind::kDelete;
  a.op = kNoOp;  // the client was answered at the first execution
  a.origin = p_.id();
  RouteToNode(n.right(), n.level(), std::move(a));
}

UpdateId BaseProtocol::NewRegisteredUpdate(history::UpdateClass cls,
                                           NodeId node, Key key,
                                           Value value) {
  UpdateId u = p_.NewUpdateId();
  if (p_.history() != nullptr && p_.history()->enabled()) {
    p_.history()->RegisterIssued({u, cls, node, key, value});
  }
  return u;
}

void BaseProtocol::RecordUpdate(Node& node, history::UpdateClass cls,
                                UpdateId update, bool initial,
                                bool rewritten, Key key, Value value,
                                NodeId new_node, Key sep, Version version,
                                uint8_t link) {
  node.NoteApplied(update);
  history::HistoryLog* log = p_.history();
  if (log == nullptr || !log->enabled()) return;
  history::Record r;
  r.update = update;
  r.cls = cls;
  r.node = node.id();
  r.copy = p_.id();
  r.initial = initial;
  r.rewritten = rewritten;
  r.key = key;
  r.value = value;
  r.new_node = new_node;
  r.sep = sep;
  r.version = version;
  r.link = link;
  log->Append(std::move(r));
}

BaseProtocol::PcSplit BaseProtocol::SplitAtPc(Node& n) {
  PcSplit s;
  s.update = NewRegisteredUpdate(history::UpdateClass::kSplit, n.id(),
                                 /*key=*/0, /*value=*/0);
  s.split = n.HalfSplit(p_.NewNodeId());
  n.bump_version();
  RecordUpdate(n, history::UpdateClass::kSplit, s.update, /*initial=*/true,
               /*rewritten=*/false, 0, 0, s.split.sibling.id, s.split.sep,
               n.version());
  return s;
}

void BaseProtocol::RelaySplit(const Node& n, const PcSplit& s,
                              ActionKind kind) {
  if (n.copies().size() <= 1) return;
  Action relay;
  relay.kind = kind;
  relay.target = n.id();
  relay.update = s.update;
  relay.sep = s.split.sep;
  relay.new_node = s.split.sibling.id;
  relay.version = n.version();
  relay.origin = p_.id();
  p_.out().Broadcast(n.copies(), relay);
}

void BaseProtocol::ApplyRelayedSplit(Node& n, const Action& a) {
  n.ApplySplit(a.sep, a.new_node);
  if (a.version > n.version()) n.set_version(a.version);
  RecordUpdate(n, history::UpdateClass::kSplit, a.update,
               /*initial=*/false, /*rewritten=*/false, 0, 0, a.new_node,
               a.sep, a.version);
}

void BaseProtocol::JoinAas(Action a, ActionKind ack_kind) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    HandleMissing(std::move(a));
    return;
  }
  p_.aas().Begin(n->id());
  Action ack;
  ack.kind = ack_kind;
  ack.target = n->id();
  ack.origin = p_.id();
  p_.out().SendAction(a.origin, std::move(ack));
}

void BaseProtocol::EndAas(const Node& n) {
  for (Action& deferred : p_.aas().End(n.id())) {
    p_.out().SendLocal(std::move(deferred));
  }
}

Node* BaseProtocol::InstallFromSnapshot(const NodeSnapshot& snapshot) {
  if (Node* existing = Local(snapshot.id)) {
    // Duplicate create (only possible when the exactly-once assumption
    // is violated): installing is idempotent, keep the live copy.
    LAZYTREE_WARN << "p" << p_.id() << " duplicate install of "
                  << snapshot.id.ToString();
    return existing;
  }
  auto node = std::make_unique<Node>(snapshot, p_.config().track_history);
  Node* installed = p_.InstallNode(std::move(node));
  // A full-range node is a root of some vintage; adopt it as the local
  // starting point if it is the highest we have seen.
  if (snapshot.range.low == 0 && snapshot.range.high == kKeyInfinity) {
    p_.store().SetRootHint(snapshot.id, snapshot.level);
  }
  // Drain actions that raced ahead of the installation — inline, so
  // their channel order is preserved relative to messages that arrive
  // after the install (re-enqueueing through the network would let a
  // later relayed split overtake an earlier parked one).
  auto it = parked_.find(snapshot.id);
  if (it != parked_.end()) {
    std::vector<Action> queued = std::move(it->second);
    parked_.erase(it);
    for (Action& a : queued) Handle(std::move(a));
  }
  return installed;
}

void BaseProtocol::HandleCreateNode(Action a) {
  LAZYTREE_CHECK(a.snapshot.valid()) << "create without snapshot";
  InstallFromSnapshot(*a.snapshot);
}

void BaseProtocol::HandleRootHint(Action a) {
  p_.store().SetRootHint(a.new_node, a.level);
}

void BaseProtocol::DistributeCopies(const NodeSnapshot& snapshot) {
  SnapshotRef shared;  // one copy, shared by every remote holder's create
  for (ProcessorId holder : snapshot.copies) {
    if (holder == p_.id()) {
      InstallFromSnapshot(snapshot);
    } else {
      if (!shared.valid()) shared = snapshot;
      Action create;
      create.kind = ActionKind::kCreateNode;
      create.target = snapshot.id;
      create.level = snapshot.level;
      create.snapshot = shared;
      p_.out().SendAction(holder, std::move(create));
    }
  }
}

void BaseProtocol::FinishSplit(Node& node, Node::SplitResult& split) {
  NodeSnapshot& sibling = split.sibling;
  sibling.copies = PlaceSibling(node, sibling.id);
  sibling.pc = sibling.copies.empty() ? p_.id() : sibling.copies.front();

  const bool was_top = !node.parent().valid();
  if (was_top) {
    // Grow first so the sibling is born knowing its parent.
    GrowNewRoot(node, split.sep, sibling.id);
  }
  sibling.parent = node.parent();
  NodeId parent_target = kInvalidNode;
  if (!was_top) {
    parent_target = SplitParentTarget(node, split.sep);
    // The sibling's own splits fall back to its stored parent when no
    // local copy contains their separator: give it the parent-level copy
    // found here rather than the pointer inherited from its left
    // neighbours. Its low (<= sep) keeps every later separator right of
    // it, so right-chasing still recovers any staleness.
    const Node* target = Local(parent_target);
    if (target != nullptr && target->level() == node.level() + 1) {
      sibling.parent = parent_target;
    }
  }
  DistributeCopies(sibling);

  if (!was_top) {
    UpdateId u = NewRegisteredUpdate(history::UpdateClass::kInsert,
                                     parent_target, split.sep,
                                     sibling.id.v);
    Action insert;
    insert.kind = ActionKind::kInsert;
    insert.update = u;
    insert.key = split.sep;
    insert.new_node = sibling.id;
    insert.origin = p_.id();
    RouteToNode(parent_target, node.level() + 1, std::move(insert));
  }
}

NodeId BaseProtocol::SplitParentTarget(const Node& node, Key sep) {
  const Node* close = p_.store().Closest(sep, node.level() + 1);
  if (close != nullptr && close->level() > node.level() &&
      close->Contains(sep)) {
    return close->id();
  }
  return node.parent();
}

void BaseProtocol::GrowNewRoot(Node& old_top, Key sep, NodeId sibling) {
  LAZYTREE_CHECK(old_top.range().low == 0)
      << "top node must cover the key space";
  NodeId root_id = p_.NewNodeId();
  const int32_t root_level = old_top.level() + 1;

  NodeSnapshot root;
  root.id = root_id;
  root.level = root_level;
  root.range = KeyRange{0, kKeyInfinity};
  root.entries = {Entry{0, old_top.id().v}, Entry{sep, sibling.v}};
  root.copies = PlaceNewNode(root_id, root_level);
  root.pc = root.copies.empty() ? p_.id() : root.copies.front();

  old_top.set_parent(root_id);
  DistributeCopies(root);

  // Lazily announce the new top to everyone. Stale hints stay correct:
  // the old top still right-links across the whole key space.
  Action hint;
  hint.kind = ActionKind::kRootHint;
  hint.new_node = root_id;
  hint.level = root_level;
  for (ProcessorId dest = 0; dest < p_.cluster_size(); ++dest) {
    if (dest == p_.id()) {
      p_.store().SetRootHint(root_id, root_level);
    } else {
      p_.out().SendAction(dest, hint);
    }
  }
}

}  // namespace lazytree
