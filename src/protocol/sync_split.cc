#include "src/protocol/sync_split.h"

#include "src/util/logging.h"

namespace lazytree {

bool SyncSplitProtocol::UpdateBlocked(Node& n) {
  const bool blocked = p_.aas().Active(n.id());
  if (blocked) p_.Count(net::Counter::kDeferredInserts);
  return blocked;
}

void SyncSplitProtocol::InitiateSplit(Node& n) {
  if (p_.aas().Active(n.id())) return;  // a split is already under way
  p_.aas().Begin(n.id());               // block local initial updates too
  if (n.copies().size() <= 1) {
    PerformSyncSplit(n);
    return;
  }
  pending_acks_[n.id()] = static_cast<uint32_t>(n.copies().size() - 1);
  Action start;
  start.kind = ActionKind::kSplitStart;
  start.target = n.id();
  start.level = n.level();
  start.origin = p_.id();
  p_.out().Broadcast(n.copies(), start);
}

void SyncSplitProtocol::HandleSplitStart(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    HandleMissing(std::move(a));
    return;
  }
  // Block initial updates until split_end; relayed updates and searches
  // keep flowing (the AAS conflicts only with initial updates).
  p_.aas().Begin(n->id());
  Action ack;
  ack.kind = ActionKind::kSplitAck;
  ack.target = n->id();
  ack.origin = p_.id();
  p_.out().SendAction(a.origin, std::move(ack));
}

void SyncSplitProtocol::HandleSplitAck(Action a) {
  auto it = pending_acks_.find(a.target);
  LAZYTREE_CHECK(it != pending_acks_.end())
      << "stray split ack for " << a.target.ToString();
  if (--it->second > 0) return;
  pending_acks_.erase(it);
  Node* n = Local(a.target);
  LAZYTREE_CHECK(n != nullptr) << "PC lost node mid-split";
  PerformSyncSplit(*n);
}

void SyncSplitProtocol::PerformSyncSplit(Node& n) {
  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kSplit, n.id(),
                                   /*key=*/0, /*value=*/0);
  Node::SplitResult split = n.HalfSplit(p_.NewNodeId());
  n.bump_version();
  RecordUpdate(n, history::UpdateClass::kSplit, u, /*initial=*/true,
               /*rewritten=*/false, 0, 0, split.sibling.id, split.sep,
               n.version());

  if (n.copies().size() > 1) {
    Action end;
    end.kind = ActionKind::kSplitEnd;
    end.target = n.id();
    end.update = u;
    end.sep = split.sep;
    end.new_node = split.sibling.id;
    end.version = n.version();
    end.origin = p_.id();
    p_.out().Broadcast(n.copies(), end);
  }

  FinishSplit(n, split);

  // Release the local AAS and replay the updates it parked.
  for (Action& deferred : p_.aas().End(n.id())) {
    p_.out().SendLocal(std::move(deferred));
  }
}

void SyncSplitProtocol::HandleSplitEnd(Action a) {
  Node* n = Local(a.target);
  LAZYTREE_CHECK(n != nullptr) << "split_end for unknown node";
  ApplyRelayedSplit(*n, a);
  for (Action& deferred : p_.aas().End(n->id())) {
    p_.out().SendLocal(std::move(deferred));
  }
}

void SyncSplitProtocol::OnPcOutOfRangeRelay(Node& n, Action a) {
  // The AAS ordering proof (Theorem 1) guarantees relayed updates reach
  // the PC before the split that would move them — so this can only be a
  // protocol bug. Fail loudly.
  LAZYTREE_CHECK(false) << "sync protocol: out-of-range relay at PC: "
                        << a.ToString() << " at " << n.ToString();
}

}  // namespace lazytree
