#include "src/protocol/semisync_split.h"

#include "src/util/logging.h"

namespace lazytree {

void SemiSyncSplitProtocol::InitiateSplit(Node& n) {
  UpdateId u = NewRegisteredUpdate(history::UpdateClass::kSplit, n.id(),
                                   /*key=*/0, /*value=*/0);
  Node::SplitResult split = n.HalfSplit(p_.NewNodeId());
  n.bump_version();  // links into this node are now one version stale
  RecordUpdate(n, history::UpdateClass::kSplit, u, /*initial=*/true,
               /*rewritten=*/false, 0, 0, split.sibling.id, split.sep,
               n.version());

  // One relayed-split message per remaining copy — the optimal cost the
  // paper claims for this protocol.
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

  FinishSplit(n, split);
}

void SemiSyncSplitProtocol::HandleRelayedSplit(Action a) {
  Node* n = Local(a.target);
  if (n == nullptr) {
    HandleMissing(std::move(a));
    return;
  }
  ApplyRelayedSplit(*n, a);
}

void SemiSyncSplitProtocol::OnPcOutOfRangeRelay(Node& n, Action a) {
  // Rewrite history (§4.1.2): pretend the update arrived before the split
  // it lost the race to. It has no effect on this node's value, but the
  // split's subsequent actions must now include delivering the key to the
  // node that owns it.
  RecordRewritten(n, a);
  ForwardRewritten(n, std::move(a));
}

}  // namespace lazytree
