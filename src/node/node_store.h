// NodeStore: all node copies hosted by one processor, plus the local
// routing aids the paper's recovery mechanisms need (root hint, forwarding
// addresses, closest-node lookup).

#ifndef LAZYTREE_NODE_NODE_STORE_H_
#define LAZYTREE_NODE_NODE_STORE_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/msg/fingerprint.h"
#include "src/node/node.h"

namespace lazytree {

class NodeStore {
 public:
  /// `processors` is the cluster size: every NodeId's creator is below it.
  explicit NodeStore(uint32_t processors) : by_id_(processors) {}

  /// Installs a copy, replacing any copy with the same id. The id's
  /// creator must be below the cluster size, so a corrupt id cannot grow
  /// the table.
  Node* Install(std::unique_ptr<Node> node);

  /// Removes a copy (unjoin / migration away). Optionally records a
  /// forwarding address (§4.2) pointing at the node's new host.
  void Remove(NodeId id, ProcessorId forward_to = kInvalidProcessor);

  /// Local copy, or nullptr: two bounds checks and a load.
  Node* Get(NodeId id) { return Lookup(id); }
  const Node* Get(NodeId id) const { return Lookup(id); }

  /// Forwarding address left by a migrated node, if still retained.
  ProcessorId Forwarding(NodeId id) const;

  /// Garbage-collects every forwarding address (§4.2: they are an
  /// optimization, safe to drop at any time).
  void DropForwardingAddresses() { forwarding_.clear(); }
  size_t ForwardingCount() const { return forwarding_.size(); }

  /// The locally known root (highest-level local anchor for starting
  /// operations and for missing-node recovery). Updated lazily.
  NodeId root_hint() const { return root_hint_; }
  int32_t root_level() const { return root_level_; }
  void SetRootHint(NodeId id, int32_t level) {
    // Ordered by level: only ever move the hint upward.
    if (level > root_level_ || !root_hint_.valid()) {
      root_hint_ = id;
      root_level_ = level;
    }
  }

  /// "Find a node that is 'close' to the destination" (§4.2 missing-node
  /// recovery): the lowest-level local node at level >= `level` whose
  /// range contains `key` (the tightest one at that level); failing that,
  /// the lowest-level node with range.low <= key (greatest low first);
  /// failing that, the local root copy. Returns nullptr when this
  /// processor stores nothing at all. Cost: O(levels × log copies).
  Node* Closest(Key key, int32_t level);

  /// The local copy at `level` with the least range.low >= `from`, or
  /// nullptr.
  const Node* FirstAtLevel(int32_t level, Key from) const;

  /// Number of local copies at `level`.
  size_t CountAtLevel(int32_t level) const {
    return level >= 0 && static_cast<size_t>(level) < levels_.size()
               ? levels_[level].by_low.size()
               : 0;
  }

  size_t size() const { return size_; }

  /// Drops every copy, forwarding address, and the root hint — a crashed
  /// processor's volatile state. The caller is responsible for recording
  /// the copy deaths with the history log first (Processor::Crash does).
  void Reset() {
    for (auto& row : by_id_) row.clear();
    size_ = 0;
    levels_.clear();
    forwarding_.clear();
    root_hint_ = kInvalidNode;
    root_level_ = -1;
  }

  /// Visits every local copy in id order. `fn` must not install or
  /// remove copies.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& row : by_id_) {
      for (const auto& node : row) {
        if (node != nullptr) fn(*node);
      }
    }
  }

  /// Folds every local copy (in id order, encoded via its snapshot so all
  /// node fields are covered), forwarding address, and the root hint into
  /// a verifier state fingerprint. The level index is derived from the
  /// copies and is not mixed.
  void MixState(Fingerprint& fp) const {
    fp.Mix(size_);
    ForEach([&](const Node& n) { MixSnapshot(fp, n.ToSnapshot()); });
    std::vector<std::pair<NodeId, ProcessorId>> fwd(forwarding_.begin(),
                                                    forwarding_.end());
    std::sort(fwd.begin(), fwd.end());
    fp.Mix(fwd.size());
    for (const auto& [id, host] : fwd) {
      fp.Mix(id.v);
      fp.Mix(host);
    }
    fp.Mix(root_hint_.v);
    fp.Mix(static_cast<uint64_t>(static_cast<int64_t>(root_level_)));
  }

 private:
  // Ordered index of the copies at one level by range.low. A copy's low
  // is fixed once installed (splits only move `high`), so the index
  // changes only in Install/Remove/Reset. Copies at one level have
  // nested or disjoint ranges; a copy that overlaps its successor is a
  // stale wider copy whose relayed split has not landed yet. Every such
  // copy is in `overlapping` (it may also hold copies that have since
  // shrunk; Closest prunes those), so a containing copy is either the
  // one with the greatest low <= key or one of these.
  struct Level {
    std::vector<std::pair<Key, Node*>> by_low;
    std::vector<Node*> overlapping;
  };

  Node* Lookup(NodeId id) const {
    if (id.creator() >= by_id_.size()) return nullptr;
    const std::vector<std::unique_ptr<Node>>& row = by_id_[id.creator()];
    return id.seq() < row.size() ? row[id.seq()].get() : nullptr;
  }
  void Index(Node* node);
  void Unindex(const Node* node);
  /// The tightest copy in `lv.overlapping` that contains `key`, pruning
  /// copies that no longer overlap their successor.
  Node* TightestOverlapping(Level& lv, Key key);

  // The copies, by_id_[creator][seq]. A NodeId is a creator plus a dense
  // per-creator sequence number, so the table is a collision-free index
  // costing one pointer per id this processor ever installed from that
  // creator; a removed copy leaves an empty slot.
  std::vector<std::vector<std::unique_ptr<Node>>> by_id_;
  size_t size_ = 0;
  std::vector<Level> levels_;
  std::unordered_map<NodeId, ProcessorId> forwarding_;
  NodeId root_hint_ = kInvalidNode;
  int32_t root_level_ = -1;
};

}  // namespace lazytree

#endif  // LAZYTREE_NODE_NODE_STORE_H_
