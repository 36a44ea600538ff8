// Core identifier and key types shared by every module.
//
// Keys are unsigned 64-bit integers; the maximum value is reserved as the
// +infinity sentinel so that every node range is a half-open interval
// [low, high) and the rightmost node on each level has high == kKeyInfinity.

#ifndef LAZYTREE_MSG_KEY_H_
#define LAZYTREE_MSG_KEY_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace lazytree {

using Key = uint64_t;
using Value = uint64_t;

/// Reserved sentinel: no user key may equal kKeyInfinity.
constexpr Key kKeyInfinity = std::numeric_limits<Key>::max();

/// Half-open key interval [low, high).
struct KeyRange {
  Key low = 0;
  Key high = kKeyInfinity;

  bool Contains(Key k) const { return k >= low && k < high; }
  bool Empty() const { return low >= high; }

  friend bool operator==(const KeyRange&, const KeyRange&) = default;

  std::string ToString() const {
    std::string s = "[";
    s += std::to_string(low);
    s += ',';
    s += high == kKeyInfinity ? std::string("inf") : std::to_string(high);
    s += ")";
    return s;
  }
};

/// Index of a simulated processor (a "server" in the paper's terms).
using ProcessorId = uint32_t;
constexpr ProcessorId kInvalidProcessor =
    std::numeric_limits<ProcessorId>::max();

/// Globally unique logical-node identifier.
///
/// Packs the creating processor in the high 32 bits and a per-processor
/// counter below, so node creation requires no coordination.
struct NodeId {
  uint64_t v = 0;

  static NodeId Make(ProcessorId creator, uint32_t seq) {
    return NodeId{(static_cast<uint64_t>(creator) << 32) | seq};
  }
  ProcessorId creator() const { return static_cast<ProcessorId>(v >> 32); }
  uint32_t seq() const { return static_cast<uint32_t>(v); }
  bool valid() const { return v != 0; }

  friend auto operator<=>(const NodeId&, const NodeId&) = default;

  std::string ToString() const {
    if (!valid()) return "n(null)";
    // Appends rather than "n" + ...: in Release, GCC 12 warns
    // (-Wrestrict, a false positive) on an inlined literal + string.
    std::string s = "n";
    s += std::to_string(creator());
    s += '.';
    s += std::to_string(seq());
    return s;
  }
};

constexpr NodeId kInvalidNode{0};

/// Identifier of one client operation (search / insert).
/// Packs the issuing processor and a per-processor counter.
using OpId = uint64_t;
constexpr OpId kNoOp = 0;

inline OpId MakeOpId(ProcessorId origin, uint32_t seq) {
  return (static_cast<OpId>(origin) << 32) | seq;
}
inline ProcessorId OpOrigin(OpId op) {
  return static_cast<ProcessorId>(op >> 32);
}

/// Identifier of one logical *update* (initial insert, split, link-change,
/// join, ...). Relayed copies of an update carry the same UpdateId, which is
/// how the history checkers match actions across copies (§3.1 uniform
/// histories). 0 means "not an update" (search etc.).
using UpdateId = uint64_t;
constexpr UpdateId kNoUpdate = 0;

/// Monotonic per-node version number (§4.2, §4.3). Increments on split,
/// migration, join and unjoin; orders the ordered-action class.
using Version = uint64_t;

}  // namespace lazytree

template <>
struct std::hash<lazytree::NodeId> {
  size_t operator()(const lazytree::NodeId& id) const noexcept {
    return std::hash<uint64_t>()(id.v);
  }
};

#endif  // LAZYTREE_MSG_KEY_H_
