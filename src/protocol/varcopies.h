// Variable-copies protocol (§4.3) — the full dB-tree.
//
// Leaves are single-copy mobile nodes (§4.2); interior nodes are
// replicated, and processors *join* and *unjoin* a node's replication as
// leaves migrate, maintaining the Fig.-2 policy: a processor that stores a
// leaf stores (a copy of) every node on the path from the root to that
// leaf; the root is replicated everywhere. The PC of a node never changes.
//
// The protocol combines:
//   * semi-synchronous lazy splits for replicated interior nodes (§4.1.2);
//   * version numbers + link-changes + forwarding/recovery for mobile
//     leaves (§4.2);
//   * join/unjoin registration at the PC. Every registration increments
//     the node's version; the PC remembers each member's join version and
//     re-relays any insert whose attached version predates a member's
//     join — this closes the Fig.-6 incomplete-history race (a relayed
//     insert that was in flight while the join happened reaches the new
//     copy exactly once).

#ifndef LAZYTREE_PROTOCOL_VARCOPIES_H_
#define LAZYTREE_PROTOCOL_VARCOPIES_H_

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/protocol/mobile.h"

namespace lazytree {

class VarCopiesProtocol : public MobileProtocol {
 public:
  using MobileProtocol::MobileProtocol;

  uint64_t joins_granted() const { return joins_granted_; }
  uint64_t unjoins_processed() const { return unjoins_processed_; }
  uint64_t late_joiner_rerelays() const { return late_joiner_rerelays_; }
  uint64_t discarded_relays() const { return discarded_relays_; }

  void MixState(Fingerprint& fp) const override {
    MobileProtocol::MixState(fp);
    std::vector<NodeId> jv;
    jv.reserve(join_versions_.size());
    for (const auto& [id, members] : join_versions_) jv.push_back(id);
    std::sort(jv.begin(), jv.end());
    fp.Mix(jv.size());
    for (NodeId id : jv) {
      fp.Mix(id.v);
      const auto& members = join_versions_.at(id);  // std::map: sorted
      fp.Mix(members.size());
      for (const auto& [member, version] : members) {
        fp.Mix(member);
        fp.Mix(version);
      }
    }
    fp.Mix(pending_joins_.size());
    for (NodeId id : pending_joins_) fp.Mix(id.v);  // std::set: sorted
    std::vector<NodeId> pk;
    pk.reserve(pending_join_keys_.size());
    for (const auto& [id, keys] : pending_join_keys_) pk.push_back(id);
    std::sort(pk.begin(), pk.end());
    fp.Mix(pk.size());
    for (NodeId id : pk) {
      fp.Mix(id.v);
      const auto& keys = pending_join_keys_.at(id);  // per-copy arrival order
      fp.Mix(keys.size());
      for (Key k : keys) fp.Mix(k);
    }
    fp.Mix(unjoined_.size());
    for (NodeId id : unjoined_) fp.Mix(id.v);  // std::set: sorted
  }

 protected:
  // Placement: mobile leaves, everywhere-roots, membership-inherited
  // interior siblings (self first, so the splitting PC stays the PC).
  std::vector<ProcessorId> PlaceNewNode(NodeId id, int32_t level) override;
  std::vector<ProcessorId> PlaceSibling(const Node& splitting,
                                        NodeId sibling_id) override;

  void HandleInitialInsert(Action a) override;
  void HandleRelayedInsert(Action a) override;
  void HandleInitialDelete(Action a) override;
  void HandleRelayedDelete(Action a) override;
  void HandleRelayedSplit(Action a) override;
  void HandleLinkChange(Action a) override;
  void HandleCreateNode(Action a) override;
  void HandleJoin(Action a) override;
  void HandleJoinGrant(Action a) override;
  void HandleRelayedJoin(Action a) override;
  void HandleUnjoin(Action a) override;
  void HandleRelayedUnjoin(Action a) override;

  void OnMigratedNodeInstalled(Node& n) override;
  void OnNodeMigratedAway(const NodeSnapshot& snapshot) override;

  /// Splits a replicated interior node at its PC (semi-sync §4.1.2 with
  /// the §4.2 version/link-change additions); single-copy nodes fall back
  /// to the local mobile split.
  void SplitNode(Node& n);

 private:
  /// Applies an in-range insert at a local copy, relays it with this
  /// copy's version attached, answers the client, and considers a split.
  void PerformInsert(Node& n, Action a);

  /// Joins every interior node on the path from the root down to the
  /// leaf covering `leaf_low` that is not already local. The descent is
  /// geometric (by key, through local copies and right links), because
  /// parent pointers may be stale; each grant resumes the descent.
  void JoinPath(Key leaf_low);

  /// Unjoins ancestors that no longer shelter any local leaf, walking up
  /// from `ancestor`. Never unjoins the root or a node we are PC of.
  void MaybeUnjoinAncestors(NodeId ancestor);

  // PC-side: each current member's join version (Fig.-6 machinery).
  std::unordered_map<NodeId, std::map<ProcessorId, Version>> join_versions_;
  // Joiner-side: joins requested but not yet granted; relays for these
  // nodes are parked, not discarded.
  std::set<NodeId> pending_joins_;
  // Keys whose path descent is suspended on each pending join.
  std::unordered_map<NodeId, std::vector<Key>> pending_join_keys_;
  // Nodes this processor unjoined: relays for them are discarded (§4.3).
  // Relays for nodes never seen here are *parked* instead — they race a
  // kCreateNode (inherited sibling membership) that is still in flight.
  std::set<NodeId> unjoined_;

  /// Shared disposition for a relayed action whose target is not local:
  /// park (join/create in flight) or discard (we unjoined).
  void ParkOrDiscardRelay(Action a);

  uint64_t joins_granted_ = 0;
  uint64_t unjoins_processed_ = 0;
  uint64_t late_joiner_rerelays_ = 0;
  uint64_t discarded_relays_ = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_VARCOPIES_H_
