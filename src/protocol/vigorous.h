// VigorousProtocol: the available-copies baseline the paper argues against
// (§1, §3: "we can ensure the coherence of the copies by serializing the
// actions on the nodes ... however, we want to be lazy").
//
// Every update on a node — insert, delete or split — executes as a
// synchronous round at the node's PC: lock every copy (an AAS that also
// blocks reads), gather acks, apply everywhere. The apply releases a
// copy's lock, so no release message exists. Cost: 3·|copies(n)| messages
// per *update* (vs. |copies(n)|-1 commuting relays for lazy updates) plus
// a full round-trip of blocking for reads and writes alike. Benches C2/C3
// quantify the gap.

#ifndef LAZYTREE_PROTOCOL_VIGOROUS_H_
#define LAZYTREE_PROTOCOL_VIGOROUS_H_

#include <deque>
#include <unordered_map>

#include "src/protocol/fixed.h"

namespace lazytree {

class VigorousProtocol : public FixedCopiesProtocol {
 public:
  using FixedCopiesProtocol::FixedCopiesProtocol;

 protected:
  /// Funnels every update, insert or delete, into its node's PC rounds.
  void HandleInitialUpdate(Action a) override;
  void HandleRelayedUpdate(Action a) override { Unexpected(a); }
  void HandleVigorous(Action a) override;
  void InitiateSplit(Node& n) override;
  bool ReadBlocked(Node& n) override { return p_.aas().Active(n.id()); }
  void OnPcOutOfRangeRelay(Node& n, Action a) override;

 private:
  /// Marker kind used for queued split rounds.
  static constexpr ActionKind kSplitRound = ActionKind::kVigorousApplySplit;

  struct NodeQueue {
    bool busy = false;
    uint32_t acks = 0;
    Action current;
    std::deque<Action> pending;
    bool split_queued = false;
  };

  void PumpQueue(Node& n);
  void ApplyRound(Node& n);
  void FinishRound(Node& n);

  std::unordered_map<NodeId, NodeQueue> rounds_;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_VIGOROUS_H_
