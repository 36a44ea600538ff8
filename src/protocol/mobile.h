// Mobile single-copy protocol (§4.2).
//
// Every node has exactly one copy, but nodes migrate between processors
// (data balancing, [14]). Histories are vacuously compatible; the work is
// in *finding* nodes and keeping the ordered link-change actions straight:
//
//   * every node carries a version number, incremented by splits and
//     migrations; link-changes apply only when their version exceeds the
//     link's recorded version (stale ones are rewritten into the past);
//   * a migrating node leaves a forwarding address — an optimization
//     only: addresses can be garbage-collected at any time, after which
//     misdirected actions recover via the closest local node, exactly
//     like misnavigated operations in the B-link protocol;
//   * a processor holding no useful node routes the action to the root.

#ifndef LAZYTREE_PROTOCOL_MOBILE_H_
#define LAZYTREE_PROTOCOL_MOBILE_H_

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/protocol/base.h"

namespace lazytree {

class MobileProtocol : public BaseProtocol {
 public:
  using BaseProtocol::BaseProtocol;

  /// Test-only: drops every cached node address, simulating a processor
  /// whose location knowledge is entirely stale/absent.
  void TEST_ForgetAddresses() { addr_.clear(); }

  void MixState(Fingerprint& fp) const override {
    BaseProtocol::MixState(fp);
    std::vector<std::pair<NodeId, AddrEntry>> addrs(addr_.begin(),
                                                    addr_.end());
    std::sort(addrs.begin(), addrs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    fp.Mix(addrs.size());
    for (const auto& [id, entry] : addrs) {
      fp.Mix(id.v);
      fp.Mix(entry.host);
      fp.Mix(entry.version);
    }
  }

 protected:
  std::vector<ProcessorId> PlaceNewNode(NodeId id, int32_t level) override {
    (void)id;
    (void)level;
    return {p_.id()};  // §4.2: splits place the sibling locally
  }
  ProcessorId ResolveDest(NodeId id, int32_t level) override;
  void HandleMissing(Action a) override;

  void HandleInitialUpdate(Action a) override;
  void HandleLinkChange(Action a) override;
  void HandleMigrateNode(Action a) override;
  void HandleMigrateAck(Action a) override;

  /// Splits `n` at this processor, its PC (§4.2: version + 1, the sibling
  /// placed by PlaceSibling): relays the split to n's other copies (§4.3
  /// replicated interior nodes; mobile nodes have none), sends the
  /// left-link change to the old right neighbor, issues the parent insert,
  /// and optionally sheds a new leaf.
  void SplitNode(Node& n);

  /// Sends address refreshes + sibling link-changes after a migration
  /// lands (§4.2 step 3: "a link-change action is sent to all known
  /// neighbors").
  void AnnounceMigration(Node& n, Version version);

  /// Location cache, version-gated so stale news never overwrites fresh.
  void NoteAddr(NodeId id, ProcessorId host, Version version);

  /// Registers + sends an ordered sibling link-change.
  void SendLinkChange(NodeId target_node, LinkKind link, NodeId new_node,
                      Version version, Key route_key, int32_t level);

  /// Applies a link-change at a local copy with §4.2 version gating;
  /// stale changes are recorded as rewritten into the past.
  void ApplyGatedLinkChange(Node& m, const Action& a, bool initial);

  /// Hooks for the variable-copies protocol (§4.3): called after a
  /// migrated node is installed here / shipped away from here.
  virtual void OnMigratedNodeInstalled(Node& n) { (void)n; }
  virtual void OnNodeMigratedAway(const NodeSnapshot& snapshot) {
    (void)snapshot;
  }

  struct AddrEntry {
    ProcessorId host = kInvalidProcessor;
    Version version = 0;
  };
  std::unordered_map<NodeId, AddrEntry> addr_;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_MOBILE_H_
