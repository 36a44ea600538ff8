// NaiveProtocol: the Fig.-4 strawman — what goes wrong without the
// semi-synchronous ordering rule.
//
// Identical to the semi-synchronous protocol except that the PC *ignores*
// an out-of-range relayed insert instead of rewriting history and
// forwarding it. The key was applied at some copy, the split discarded it
// there, the sibling was seeded without it: the insert is silently lost.
// Tests and bench F4 use this protocol to demonstrate the lost-insert
// problem the paper's algorithms exist to prevent.

#ifndef LAZYTREE_PROTOCOL_NAIVE_H_
#define LAZYTREE_PROTOCOL_NAIVE_H_

#include "src/protocol/semisync_split.h"

namespace lazytree {

class NaiveProtocol : public SemiSyncSplitProtocol {
 public:
  using SemiSyncSplitProtocol::SemiSyncSplitProtocol;

 protected:
  /// Counts drops at leaf level (Counter::kDroppedLeafRelays): each one
  /// is exactly one permanently lost key. (Interior drops lose a parent
  /// pointer; the B-link right-link chain masks those, at the price of
  /// extra hops forever.)
  void OnPcOutOfRangeRelay(Node& n, Action a) override;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_NAIVE_H_
