#include "src/node/node.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"

namespace lazytree {

Node::Node(const NodeSnapshot& snapshot, bool track_updates)
    : level_(snapshot.level),
      range_(snapshot.range),
      right_low_(snapshot.right_low),
      right_(snapshot.right),
      id_(snapshot.id),
      version_(snapshot.version),
      left_(snapshot.left),
      parent_(snapshot.parent),
      copies_(snapshot.copies),
      pc_(snapshot.pc),
      track_updates_(track_updates) {
  for (int i = 0; i < 3; ++i) link_versions_[i] = snapshot.link_versions[i];
  entries_.assign(snapshot.entries);
  if (!snapshot.applied_updates.empty()) {
    const std::vector<UpdateId>& applied = snapshot.applied_updates;
    applied_ = std::make_unique<AppliedUpdates>();
    applied_->order = applied;
    applied_->lookup.insert(applied.begin(), applied.end());
  }
  LAZYTREE_CHECK(id_.valid()) << "node from invalid snapshot";
}

Node::Node(NodeId id, int32_t level, KeyRange range, bool track_updates)
    : level_(level), range_(range), id_(id), track_updates_(track_updates) {
  LAZYTREE_CHECK(id_.valid()) << "fresh node with invalid id";
}

void Node::AddCopy(ProcessorId p) {
  if (!HasCopy(p)) copies_.push_back(p);
}

void Node::RemoveCopy(ProcessorId p) {
  copies_.erase(std::remove(copies_.begin(), copies_.end(), p),
                copies_.end());
}

bool Node::HasCopy(ProcessorId p) const {
  return std::find(copies_.begin(), copies_.end(), p) != copies_.end();
}

namespace {

/// First entry with key >= `key`.
std::span<const Entry>::iterator LowerBound(std::span<const Entry> entries,
                                            Key key) {
  return std::lower_bound(entries.begin(), entries.end(), key,
                          [](const Entry& e, Key k) { return e.key < k; });
}

}  // namespace

std::optional<Value> Node::Find(Key key) const {
  LAZYTREE_CHECK(is_leaf()) << "Find on interior node";
  const std::span<const Entry> entries = entries_.view();
  auto it = LowerBound(entries, key);
  if (it != entries.end() && it->key == key) return it->payload;
  return std::nullopt;
}

NodeId Node::ChildFor(Key key) const {
  LAZYTREE_CHECK(!is_leaf()) << "ChildFor on leaf";
  const std::span<const Entry> entries = entries_.view();
  LAZYTREE_CHECK(!entries.empty()) << "interior node with no children";
  // Greatest separator <= key routes the descent.
  auto it = LowerBound(entries, key);
  if (it == entries.end() || it->key > key) {
    LAZYTREE_CHECK(it != entries.begin())
        << "key " << key << " below first separator of " << ToString();
    --it;
  }
  return NodeId{it->payload};
}

bool Node::Insert(Key key, uint64_t payload, bool upsert) {
  const std::span<const Entry> entries = entries_.view();
  auto it = LowerBound(entries, key);
  const size_t pos = it - entries.begin();
  if (it != entries.end() && it->key == key) {
    if (upsert) entries_[pos].payload = payload;
    return false;
  }
  entries_.insert(pos, Entry{key, payload});
  return true;
}

bool Node::Remove(Key key) {
  const std::span<const Entry> entries = entries_.view();
  auto it = LowerBound(entries, key);
  if (it == entries.end() || it->key != key) return false;
  const size_t pos = it - entries.begin();
  entries_.erase(pos);
  return true;
}

Node::SplitResult Node::HalfSplit(NodeId sibling_id) {
  LAZYTREE_CHECK(entries_.size() >= 2) << "half-split of tiny node";
  const std::span<const Entry> entries = entries_.view();
  const size_t keep = entries.size() / 2;

  SplitResult result;
  result.sep = entries[keep].key;

  NodeSnapshot& sibling = result.sibling;
  sibling.id = sibling_id;
  sibling.level = level_;
  sibling.range = KeyRange{result.sep, range_.high};
  sibling.version = version_ + 1;  // §4.2: sibling version = ours + 1
  sibling.right = right_;
  sibling.right_low = right_low_;
  sibling.left = id_;
  sibling.parent = parent_;
  sibling.entries.assign(entries.begin() + keep, entries.end());
  if (track_updates_ && applied_ != nullptr) {
    // The sibling inherits the full backwards extension: its seed value
    // derives from this copy's entire history (§3.1).
    sibling.applied_updates = applied_->order;
  }

  entries_.resize(keep);
  range_.high = result.sep;
  right_ = sibling_id;
  right_low_ = result.sep;
  return result;
}

void Node::ApplySplit(Key sep, NodeId sibling_id) {
  LAZYTREE_CHECK(range_.Contains(sep) || sep == range_.high)
      << "split sep " << sep << " outside " << ToString();
  const std::span<const Entry> entries = entries_.view();
  entries_.resize(LowerBound(entries, sep) - entries.begin());
  range_.high = sep;
  right_ = sibling_id;
  right_low_ = sep;
}

NodeSnapshot Node::ToSnapshot() const {
  NodeSnapshot s;
  s.id = id_;
  s.level = level_;
  s.range = range_;
  s.version = version_;
  s.right = right_;
  s.right_low = right_low_;
  s.left = left_;
  s.parent = parent_;
  for (int i = 0; i < 3; ++i) s.link_versions[i] = link_versions_[i];
  const std::span<const Entry> entries = entries_.view();
  s.entries.assign(entries.begin(), entries.end());
  s.copies = copies_;
  s.pc = pc_;
  if (applied_ != nullptr) s.applied_updates = applied_->order;
  return s;
}

void Node::NoteApplied(UpdateId update) {
  if (track_updates_ && update != kNoUpdate) {
    if (applied_ == nullptr) applied_ = std::make_unique<AppliedUpdates>();
    applied_->order.push_back(update);
    applied_->lookup.insert(update);
  }
}

std::string Node::ToString() const {
  std::ostringstream os;
  os << id_.ToString() << "{L" << level_ << " " << range_.ToString()
     << " n=" << entries_.size() << " ->" << right_.ToString();
  if (version_) os << " v" << version_;
  os << "}";
  return os.str();
}

}  // namespace lazytree
