#include "src/node/node_store.h"

#include <iterator>

#include "src/util/logging.h"

namespace lazytree {

Node* NodeStore::Install(std::unique_ptr<Node> node) {
  NodeId id = node->id();
  LAZYTREE_CHECK(id.valid() && id.creator() < by_id_.size())
      << "install of " << id.ToString() << " in a " << by_id_.size()
      << "-processor cluster";
  forwarding_.erase(id);  // the node is back; any forward is stale
  std::vector<std::unique_ptr<Node>>& row = by_id_[id.creator()];
  if (id.seq() >= row.size()) row.resize(id.seq() + 1);
  std::unique_ptr<Node>& slot = row[id.seq()];
  if (slot != nullptr) {
    Unindex(slot.get());
  } else {
    ++size_;
  }
  slot = std::move(node);
  Index(slot.get());
  return slot.get();
}

void NodeStore::Remove(NodeId id, ProcessorId forward_to) {
  Node* node = Get(id);
  LAZYTREE_CHECK(node != nullptr)
      << "remove of unknown node " << id.ToString();
  Unindex(node);
  by_id_[id.creator()][id.seq()].reset();
  --size_;
  if (forward_to != kInvalidProcessor) forwarding_[id] = forward_to;
  // The root hint survives: it names a logical node, not a local copy.
}

ProcessorId NodeStore::Forwarding(NodeId id) const {
  auto it = forwarding_.find(id);
  return it == forwarding_.end() ? kInvalidProcessor : it->second;
}

namespace {

using ByLow = std::vector<std::pair<Key, Node*>>;

bool LowLess(const std::pair<Key, Node*>& a, Key low) { return a.first < low; }
bool LowGreater(Key low, const std::pair<Key, Node*>& a) {
  return low < a.first;
}

/// Position of `node` in its level's index.
ByLow::iterator Find(ByLow& by_low, const Node* node) {
  auto it = std::lower_bound(by_low.begin(), by_low.end(),
                             node->range().low, LowLess);
  while (it != by_low.end() && it->second != node) ++it;
  LAZYTREE_CHECK(it != by_low.end()) << "unindexed node " << node->ToString();
  return it;
}

}  // namespace

void NodeStore::Index(Node* node) {
  LAZYTREE_CHECK(node->level() >= 0) << "node " << node->ToString();
  const size_t level = static_cast<size_t>(node->level());
  if (level >= levels_.size()) levels_.resize(level + 1);
  Level& lv = levels_[level];
  const KeyRange& range = node->range();
  auto note = [&](Node* n) {
    if (std::find(lv.overlapping.begin(), lv.overlapping.end(), n) ==
        lv.overlapping.end()) {
      lv.overlapping.push_back(n);
    }
  };
  // Only the new copy and its predecessor can start overlapping their
  // successor: any earlier copy reaching past range.low already reached
  // past its own successor.
  auto it = std::upper_bound(lv.by_low.begin(), lv.by_low.end(), range.low,
                             LowGreater);
  if (it != lv.by_low.begin() &&
      std::prev(it)->second->range().high > range.low) {
    note(std::prev(it)->second);
  }
  if (it != lv.by_low.end() && range.high > it->first) note(node);
  lv.by_low.insert(it, {range.low, node});
}

void NodeStore::Unindex(const Node* node) {
  Level& lv = levels_[static_cast<size_t>(node->level())];
  lv.by_low.erase(Find(lv.by_low, node));
  auto w = std::find(lv.overlapping.begin(), lv.overlapping.end(), node);
  if (w != lv.overlapping.end()) lv.overlapping.erase(w);
  // Removing a copy can only end overlaps (its successor's low is
  // larger), so `overlapping` needs nothing added.
}

Node* NodeStore::TightestOverlapping(Level& lv, Key key) {
  Node* best = nullptr;
  for (size_t i = 0; i < lv.overlapping.size();) {
    Node* n = lv.overlapping[i];
    auto next = std::next(Find(lv.by_low, n));
    if (next == lv.by_low.end() || n->range().high <= next->first) {
      // Its relayed split landed: it no longer reaches past its successor.
      lv.overlapping[i] = lv.overlapping.back();
      lv.overlapping.pop_back();
      continue;
    }
    if (n->Contains(key) &&
        (best == nullptr || n->range().low > best->range().low)) {
      best = n;
    }
    ++i;
  }
  return best;
}

Node* NodeStore::Closest(Key key, int32_t level) {
  // B-link navigation only moves right and down, so a usable start node
  // must sit at or above the target level with range.low <= key. Prefer
  // nodes whose range contains the key (no right-chasing needed), then
  // the lowest level, then the tightest low bound.
  Node* fallback = nullptr;
  for (size_t l = static_cast<size_t>(std::max(level, 0));
       l < levels_.size(); ++l) {
    Level& lv = levels_[l];
    auto it = std::upper_bound(lv.by_low.begin(), lv.by_low.end(), key,
                               LowGreater);
    if (it == lv.by_low.begin()) continue;
    Node* n = std::prev(it)->second;
    if (n->Contains(key)) return n;
    if (Node* wide = TightestOverlapping(lv, key)) return wide;
    if (fallback == nullptr) fallback = n;
  }
  if (fallback != nullptr) return fallback;
  return root_hint_.valid() ? Get(root_hint_) : nullptr;
}

const Node* NodeStore::FirstAtLevel(int32_t level, Key from) const {
  if (level < 0 || static_cast<size_t>(level) >= levels_.size()) {
    return nullptr;
  }
  const auto& by_low = levels_[level].by_low;
  auto it = std::lower_bound(by_low.begin(), by_low.end(), from, LowLess);
  return it == by_low.end() ? nullptr : it->second;
}

}  // namespace lazytree
