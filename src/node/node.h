// Node: one copy of a B-link tree node (§1.1).
//
// A node covers the half-open key range [range.low, range.high). Interior
// entries map a separator key to the child NodeId whose subtree starts at
// that key; leaf entries map keys to values. Every node carries a pointer
// to its right sibling (the B-link pointer) plus, for the mobile and
// variable-copies protocols (§4.2/§4.3), a left-sibling pointer and a
// version number.
//
// Node is pure mechanism: it applies inserts and computes half-splits but
// knows nothing about replication or messaging. Protocols decide *when*
// to call what.

#ifndef LAZYTREE_NODE_NODE_H_
#define LAZYTREE_NODE_NODE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/msg/action.h"
#include "src/node/inline_entries.h"
#include "src/util/statusor.h"

namespace lazytree {

/// Entries a node holds before its PC half-splits it, unless the tree sets
/// another fanout (TreeConfig::max_entries).
inline constexpr size_t kDefaultFanout = 8;

class Node {
 public:
  /// Creates a copy from a snapshot (sibling creation, join, migration).
  explicit Node(const NodeSnapshot& snapshot, bool track_updates);

  /// Creates a fresh empty node.
  Node(NodeId id, int32_t level, KeyRange range, bool track_updates);

  NodeId id() const { return id_; }
  int32_t level() const { return level_; }
  bool is_leaf() const { return level_ == 0; }
  const KeyRange& range() const { return range_; }
  Version version() const { return version_; }
  void set_version(Version v) { version_ = v; }
  void bump_version() { ++version_; }

  NodeId right() const { return right_; }
  Key right_low() const { return right_low_; }
  NodeId left() const { return left_; }
  NodeId parent() const { return parent_; }
  void set_right(NodeId n, Key low) { right_ = n; right_low_ = low; }
  void set_left(NodeId n) { left_ = n; }
  void set_parent(NodeId n) { parent_ = n; }

  /// Version of the last applied link-change for `link` (§4.2 gating).
  Version link_version(LinkKind link) const {
    return link_versions_[static_cast<int>(link)];
  }
  void set_link_version(LinkKind link, Version v) {
    link_versions_[static_cast<int>(link)] = v;
  }

  /// The copy's entries, sorted by key with unique keys. Valid until the
  /// next Insert, Remove, HalfSplit or ApplySplit. Up to kInlineEntries of
  /// them live inside the Node; a copy that outgrows that spills them to
  /// one heap block.
  std::span<const Entry> entries() const { return entries_.view(); }
  size_t size() const { return entries_.size(); }

  const std::vector<ProcessorId>& copies() const { return copies_; }
  ProcessorId pc() const { return pc_; }
  void set_copies(std::vector<ProcessorId> copies, ProcessorId pc) {
    copies_ = std::move(copies);
    pc_ = pc;
  }
  void AddCopy(ProcessorId p);
  void RemoveCopy(ProcessorId p);
  bool HasCopy(ProcessorId p) const;

  bool Contains(Key key) const { return range_.Contains(key); }

  /// Leaf lookup. Precondition: is_leaf() && Contains(key).
  std::optional<Value> Find(Key key) const;

  /// Interior routing. Precondition: !is_leaf() && Contains(key).
  /// Returns the child covering `key`.
  NodeId ChildFor(Key key) const;

  /// Inserts (or upserts) an entry. Precondition: Contains(key).
  /// Returns false when the key already existed (entry left unchanged
  /// unless `upsert`).
  bool Insert(Key key, uint64_t payload, bool upsert = false);

  /// Removes an entry; false when absent. Nodes are never merged
  /// (free-at-empty, [11]), so an empty node simply stays.
  bool Remove(Key key);

  /// True when the node holds more than `max_entries` entries and should
  /// half-split. Copies are maintained serially, so temporarily exceeding
  /// capacity is safe (the paper's overflow bucket).
  bool Overflowing(size_t max_entries) const {
    return entries_.size() > max_entries;
  }

  /// Result of computing a half-split: the new sibling's seed image plus
  /// the separator key.
  struct SplitResult {
    Key sep = 0;             ///< sibling's low key
    NodeSnapshot sibling;    ///< upper half, links pre-wired
  };

  /// Performs the local half of a half-split (Fig. 1): moves the upper
  /// half of the entries into a new sibling image, shrinks this node's
  /// range to [low, sep), and re-points the right link at the sibling.
  /// The caller assigns sibling copies/pc and distributes the snapshot.
  /// Precondition: size() >= 2.
  SplitResult HalfSplit(NodeId sibling_id);

  /// Applies an already-computed split to this copy (relayed split /
  /// split_end): drops entries >= sep, shrinks the range, re-points the
  /// right link. Out-of-range entries are discarded (their inserts were
  /// relayed to the sibling's seed or forwarded by the PC).
  void ApplySplit(Key sep, NodeId sibling_id);

  /// Serializes the full copy state.
  NodeSnapshot ToSnapshot() const;

  /// Update-id bookkeeping for history checking (backwards extensions)
  /// and relay idempotence.
  void NoteApplied(UpdateId update);
  std::span<const UpdateId> applied_updates() const {
    if (applied_ == nullptr) return {};
    return applied_->order;
  }

  /// True when `update` was already applied at (or folded into the seed
  /// of) this copy. Always false when update tracking is off — callers
  /// must then rely on value-level idempotence.
  bool HasApplied(UpdateId update) const {
    return update != kNoUpdate && applied_ != nullptr &&
           applied_->lookup.contains(update);
  }

  std::string ToString() const;

  /// Entries stored inside the Node: the default fanout plus the one
  /// overflow entry a PC holds before it splits, so a PC copy never spills.
  static constexpr size_t kInlineEntries = kDefaultFanout + 1;

 private:
  /// Update ids applied at this copy, in order, plus a set for lookups.
  /// Allocated only when tracking is on or a snapshot carries some.
  struct AppliedUpdates {
    std::vector<UpdateId> order;
    std::unordered_set<UpdateId> lookup;
  };

  // The fields a navigation hop reads come first, so the hop starts on
  // the copy's first cache line.
  int32_t level_;
  KeyRange range_;
  Key right_low_ = kKeyInfinity;
  NodeId right_ = kInvalidNode;
  InlineEntries<kInlineEntries> entries_;
  NodeId id_;
  Version version_ = 0;
  NodeId left_ = kInvalidNode;
  NodeId parent_ = kInvalidNode;
  Version link_versions_[3] = {0, 0, 0};
  std::vector<ProcessorId> copies_;
  ProcessorId pc_ = kInvalidProcessor;
  bool track_updates_;
  std::unique_ptr<AppliedUpdates> applied_;
};

}  // namespace lazytree

#endif  // LAZYTREE_NODE_NODE_H_
