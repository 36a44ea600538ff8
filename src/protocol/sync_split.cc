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
  // Block initial updates until split_end; relayed updates and searches
  // keep flowing (the AAS conflicts only with initial updates).
  JoinAas(std::move(a), ActionKind::kSplitAck);
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
  PcSplit s = SplitAtPc(n);
  RelaySplit(n, s, ActionKind::kSplitEnd);
  FinishSplit(n, s.split);
  EndAas(n);  // release the local AAS and replay the updates it parked
}

void SyncSplitProtocol::HandleSplitEnd(Action a) {
  Node* n = Local(a.target);
  LAZYTREE_CHECK(n != nullptr) << "split_end for unknown node";
  ApplyRelayedSplit(*n, a);
  EndAas(*n);
}

void SyncSplitProtocol::OnPcOutOfRangeRelay(Node& n, Action a) {
  // The AAS ordering proof (Theorem 1) guarantees relayed updates reach
  // the PC before the split that would move them — so this can only be a
  // protocol bug. Fail loudly.
  LAZYTREE_CHECK(false) << "sync protocol: out-of-range relay at PC: "
                        << a.ToString() << " at " << n.ToString();
}

}  // namespace lazytree
