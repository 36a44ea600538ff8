#include "src/protocol/vigorous.h"

#include "src/util/logging.h"

namespace lazytree {

void VigorousProtocol::HandleInitialUpdate(Action a) {
  Node* n = LocalOrRoute(a);
  if (n == nullptr) return;
  ++a.hops;
  if (a.key >= n->right_low()) {
    ChaseRight(*n, std::move(a));
    return;
  }
  if (n->level() > a.level) {
    // A separator insert that started at a local copy above its parent
    // level (partial interior replication): descend by key.
    Descend(*n, std::move(a));
    return;
  }
  if (n->pc() != p_.id()) {
    // All updates execute at the primary copy.
    p_.out().SendAction(n->pc(), std::move(a));
    return;
  }
  if (a.update == kNoUpdate) {
    a.update = NewRegisteredUpdate(a.kind == ActionKind::kDelete
                                       ? history::UpdateClass::kDelete
                                       : history::UpdateClass::kInsert,
                                   n->id(), a.key, a.value);
  }
  rounds_[n->id()].pending.push_back(std::move(a));
  PumpQueue(*n);
}

void VigorousProtocol::InitiateSplit(Node& n) {
  NodeQueue& q = rounds_[n.id()];
  if (q.split_queued) return;
  q.split_queued = true;
  Action round;
  round.kind = kSplitRound;
  round.target = n.id();
  q.pending.push_front(std::move(round));  // relieve the overflow first
  PumpQueue(n);
}

void VigorousProtocol::PumpQueue(Node& n) {
  NodeQueue& q = rounds_[n.id()];
  if (q.busy) return;
  // A split that ran ahead of queued inserts may have moved their keys
  // out of this node: re-route them right before starting a round.
  while (!q.pending.empty()) {
    Action& front = q.pending.front();
    if (front.kind == kSplitRound || front.key < n.right_low()) break;
    Action displaced = std::move(front);
    q.pending.pop_front();
    RouteToNode(n.right(), n.level(), std::move(displaced));
  }
  if (q.pending.empty()) return;
  q.busy = true;
  q.current = std::move(q.pending.front());
  q.pending.pop_front();
  p_.aas().Begin(n.id());  // blocks reads (and defers nothing else: all
                           // updates already funnel through this queue)
  if (n.copies().size() <= 1) {
    ApplyRound(n);
    return;
  }
  q.acks = static_cast<uint32_t>(n.copies().size() - 1);
  Action lock;
  lock.kind = ActionKind::kVigorousLock;
  lock.target = n.id();
  lock.origin = p_.id();
  p_.out().Broadcast(n.copies(), lock);
}

void VigorousProtocol::HandleVigorous(Action a) {
  switch (a.kind) {
    case ActionKind::kVigorousLock: {
      Node* n = Local(a.target);
      if (n == nullptr) {
        HandleMissing(std::move(a));
        return;
      }
      p_.aas().Begin(n->id());  // block local reads until the apply
      Action ack;
      ack.kind = ActionKind::kVigorousLockAck;
      ack.target = n->id();
      ack.origin = p_.id();
      p_.out().SendAction(a.origin, std::move(ack));
      return;
    }
    case ActionKind::kVigorousLockAck: {
      Node* n = Local(a.target);
      LAZYTREE_CHECK(n != nullptr) << "ack for unknown node";
      NodeQueue& q = rounds_[n->id()];
      LAZYTREE_CHECK(q.busy && q.acks > 0) << "stray vigorous ack";
      if (--q.acks == 0) ApplyRound(*n);
      return;
    }
    case ActionKind::kVigorousApply: {
      Node* n = Local(a.target);
      LAZYTREE_CHECK(n != nullptr) << "apply for unknown node";
      const uint64_t payload = n->is_leaf() ? a.value : a.new_node.v;
      n->Insert(a.key, payload, p_.config().upsert);
      RecordUpdate(*n, history::UpdateClass::kInsert, a.update,
                   /*initial=*/false, /*rewritten=*/false, a.key, payload,
                   a.new_node);
      for (Action& deferred : p_.aas().End(n->id())) {
        p_.out().SendLocal(std::move(deferred));
      }
      return;
    }
    case ActionKind::kVigorousApplyDelete: {
      Node* n = Local(a.target);
      LAZYTREE_CHECK(n != nullptr) << "apply-delete for unknown node";
      n->Remove(a.key);
      RecordUpdate(*n, history::UpdateClass::kDelete, a.update,
                   /*initial=*/false, /*rewritten=*/false, a.key, 0);
      for (Action& deferred : p_.aas().End(n->id())) {
        p_.out().SendLocal(std::move(deferred));
      }
      return;
    }
    case ActionKind::kVigorousApplySplit: {
      Node* n = Local(a.target);
      LAZYTREE_CHECK(n != nullptr) << "apply-split for unknown node";
      ApplyRelayedSplit(*n, a);
      for (Action& deferred : p_.aas().End(n->id())) {
        p_.out().SendLocal(std::move(deferred));
      }
      return;
    }
    default:
      Unexpected(a);
  }
}

void VigorousProtocol::ApplyRound(Node& n) {
  NodeQueue& q = rounds_[n.id()];
  Action a = std::move(q.current);
  if (a.kind == kSplitRound) {
    q.split_queued = false;
    UpdateId u = NewRegisteredUpdate(history::UpdateClass::kSplit, n.id(),
                                     0, 0);
    Node::SplitResult split = n.HalfSplit(p_.NewNodeId());
    n.bump_version();
    RecordUpdate(n, history::UpdateClass::kSplit, u, /*initial=*/true,
                 /*rewritten=*/false, 0, 0, split.sibling.id, split.sep,
                 n.version());
    if (n.copies().size() > 1) {
      Action apply;
      apply.kind = ActionKind::kVigorousApplySplit;
      apply.target = n.id();
      apply.update = u;
      apply.sep = split.sep;
      apply.new_node = split.sibling.id;
      apply.version = n.version();
      p_.out().Broadcast(n.copies(), apply);
    }
    FinishSplit(n, split);
    FinishRound(n);
    return;
  }

  if (a.kind == ActionKind::kDelete) {
    const bool removed = n.Remove(a.key);
    RecordUpdate(n, history::UpdateClass::kDelete, a.update,
                 /*initial=*/true, /*rewritten=*/false, a.key, 0);
    if (n.copies().size() > 1) {
      Action apply;
      apply.kind = ActionKind::kVigorousApplyDelete;
      apply.target = n.id();
      apply.update = a.update;
      apply.key = a.key;
      p_.out().Broadcast(n.copies(), apply);
    }
    Reply(a, removed ? Action::Rc::kOk : Action::Rc::kNotFound, 0);
    FinishRound(n);
    return;
  }

  // Insert round.
  const uint64_t payload = n.is_leaf() ? a.value : a.new_node.v;
  const bool inserted = n.Insert(a.key, payload, p_.config().upsert);
  RecordUpdate(n, history::UpdateClass::kInsert, a.update,
               /*initial=*/true, /*rewritten=*/false, a.key, payload,
               a.new_node);
  if (n.copies().size() > 1) {
    Action apply;
    apply.kind = ActionKind::kVigorousApply;
    apply.target = n.id();
    apply.update = a.update;
    apply.key = a.key;
    apply.value = a.value;
    apply.new_node = a.new_node;
    p_.out().Broadcast(n.copies(), apply);
  }
  Reply(a, inserted || p_.config().upsert ? Action::Rc::kOk
                                          : Action::Rc::kExists,
        0);
  FinishRound(n);
  if (n.Overflowing(p_.config().max_entries)) InitiateSplit(n);
}

void VigorousProtocol::FinishRound(Node& n) {
  rounds_[n.id()].busy = false;
  for (Action& deferred : p_.aas().End(n.id())) {
    p_.out().SendLocal(std::move(deferred));
  }
  PumpQueue(n);
}

void VigorousProtocol::OnPcOutOfRangeRelay(Node& n, Action a) {
  LAZYTREE_CHECK(false) << "vigorous protocol has no relayed inserts: "
                        << a.ToString() << " at " << n.ToString();
}

}  // namespace lazytree
