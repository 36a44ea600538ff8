#include "src/protocol/semisync_split.h"

#include "src/util/logging.h"

namespace lazytree {

void SemiSyncSplitProtocol::InitiateSplit(Node& n) {
  PcSplit s = SplitAtPc(n);
  // One relayed-split message per remaining copy — the optimal cost the
  // paper claims for this protocol.
  RelaySplit(n, s, ActionKind::kRelayedSplit);
  FinishSplit(n, s.split);
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
