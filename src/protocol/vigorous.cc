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
  RegisterKeyUpdate(*n, a);  // issued here, before it waits for a round
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
    case ActionKind::kVigorousLock:
      JoinAas(std::move(a), ActionKind::kVigorousLockAck);  // blocks reads
      return;
    case ActionKind::kVigorousLockAck: {
      Node* n = Local(a.target);
      LAZYTREE_CHECK(n != nullptr) << "ack for unknown node";
      NodeQueue& q = rounds_[n->id()];
      LAZYTREE_CHECK(q.busy && q.acks > 0) << "stray vigorous ack";
      if (--q.acks == 0) ApplyRound(*n);
      return;
    }
    case ActionKind::kVigorousApply:
    case ActionKind::kVigorousApplyDelete:
    case ActionKind::kVigorousApplySplit: {
      Node* n = Local(a.target);
      LAZYTREE_CHECK(n != nullptr) << "apply for unknown node";
      if (a.kind == ActionKind::kVigorousApplySplit) {
        ApplyRelayedSplit(*n, a);
      } else {
        ApplyKeyUpdate(*n, a, /*initial=*/false);
      }
      EndAas(*n);  // the apply releases this copy's lock
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
    PcSplit s = SplitAtPc(n);
    RelaySplit(n, s, ActionKind::kVigorousApplySplit);
    FinishSplit(n, s.split);
    FinishRound(n);
    return;
  }

  const Action::Rc rc = ApplyKeyUpdate(n, a, /*initial=*/true);
  if (n.copies().size() > 1) {
    Action apply;
    apply.kind = IsInsert(a) ? ActionKind::kVigorousApply
                             : ActionKind::kVigorousApplyDelete;
    apply.target = n.id();
    apply.update = a.update;
    apply.key = a.key;
    apply.value = a.value;
    apply.new_node = a.new_node;
    p_.out().Broadcast(n.copies(), apply);
  }
  Reply(a, rc, 0);
  FinishRound(n);
  if (SplitDue(n, a)) InitiateSplit(n);
}

void VigorousProtocol::FinishRound(Node& n) {
  rounds_[n.id()].busy = false;
  EndAas(n);
  PumpQueue(n);
}

void VigorousProtocol::OnPcOutOfRangeRelay(Node& n, Action a) {
  LAZYTREE_CHECK(false) << "vigorous protocol has no relayed inserts: "
                        << a.ToString() << " at " << n.ToString();
}

}  // namespace lazytree
