// FixedCopiesProtocol: shared machinery for the §4.1 family, where every
// node has a fixed set of copies chosen at creation.
//
// Placement is deterministic — copies(n) is a pure function of the node id
// and level — so any processor can locate any node with no coordination
// ("fixed-position copies"). Leaves live on one processor; interior nodes
// are replicated on `interior_replication` processors (0 = all, the
// dB-tree root-everywhere policy of Fig. 2).

#ifndef LAZYTREE_PROTOCOL_FIXED_H_
#define LAZYTREE_PROTOCOL_FIXED_H_

#include <vector>

#include "src/protocol/base.h"

namespace lazytree {

/// Deterministic copy set of one node: `count` copies on consecutive
/// processors, wrapping around the cluster, starting at `first`. Routing
/// tests membership and picks a copy without building the list.
struct FixedPlacement {
  ProcessorId first = 0;
  uint32_t count = 0;
  uint32_t cluster_size = 1;

  /// The i-th copy's processor, i < count.
  ProcessorId at(uint64_t i) const {
    return static_cast<ProcessorId>((first + i) % cluster_size);
  }
  bool Contains(ProcessorId p) const {
    return (p + cluster_size - first) % cluster_size < count;
  }
  std::vector<ProcessorId> Copies() const;
};

/// Exposed so Cluster can bootstrap the initial tree with the exact
/// placement the protocol will compute.
FixedPlacement PlaceFixed(NodeId id, int32_t level, uint32_t cluster_size,
                          uint32_t interior_replication,
                          uint32_t leaf_replication);

class FixedCopiesProtocol : public BaseProtocol {
 public:
  using BaseProtocol::BaseProtocol;

 protected:
  FixedPlacement Placement(NodeId id, int32_t level) const {
    return PlaceFixed(id, level, p_.cluster_size(),
                      p_.config().interior_replication,
                      p_.config().leaf_replication);
  }

  std::vector<ProcessorId> PlaceNewNode(NodeId id, int32_t level) override {
    return Placement(id, level).Copies();
  }

  ProcessorId ResolveDest(NodeId id, int32_t level) override;

  /// Crash hardening: normally a missing target means our kCreateNode is
  /// still in flight, so the action parks (base behavior). After this
  /// processor has crashed, its copies are simply gone — client-path
  /// actions re-route to another fixed replica instead of parking
  /// forever; relays still park (they are per-copy and a crashed copy is
  /// dead). A hop cap keeps adversarial schedules from bouncing an action
  /// between restarted replicas indefinitely.
  void HandleMissing(Action a) override;

  /// Moves the update to the copy that covers its key and level, then
  /// applies it, relays it to the other copies, answers the client, and
  /// lets the PC consider a split.
  void HandleInitialUpdate(Action a) override;
  void HandleRelayedUpdate(Action a) override;

  /// PC-side overflow trigger; ordering policy differs per protocol.
  virtual void InitiateSplit(Node& n) = 0;

  /// True when an initial update must wait at this copy (sync AAS).
  virtual bool UpdateBlocked(Node& n) {
    (void)n;
    return false;
  }

  /// Policy when the PC receives a relayed update whose key left the PC's
  /// range (a split won the race): §4.1.2 rewrites history and forwards;
  /// the Fig.-4 strawman drops it.
  virtual void OnPcOutOfRangeRelay(Node& n, Action a) = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_FIXED_H_
