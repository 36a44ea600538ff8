// Actions: the unit of work in the paper's execution model (§3).
//
// An operation (search / insert) is executed as a chain of actions on node
// copies. Executing an action at a copy yields a new copy value plus a set
// of subsequent actions, each routed to the processor storing its target
// copy. Initial actions are performed at one copy first; update actions are
// then relayed to the remaining copies (lowercase in the paper).

#ifndef LAZYTREE_MSG_ACTION_H_
#define LAZYTREE_MSG_ACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/msg/key.h"

namespace lazytree {

/// One key → payload entry. At leaf level the payload is a Value; at
/// interior levels it is the NodeId (as uint64) of the child whose range
/// starts at `key`.
struct Entry {
  Key key = 0;
  uint64_t payload = 0;
  friend bool operator==(const Entry&, const Entry&) = default;
  friend bool operator<(const Entry& a, const Entry& b) {
    return a.key < b.key;
  }
};

/// Serializable image of a node copy: used to seed new copies (sibling
/// creation, join grants, migration) — the paper's "original value" of a
/// copy, i.e. the backwards extension it starts from (§3.1).
struct NodeSnapshot {
  NodeId id = kInvalidNode;
  int32_t level = 0;  ///< 0 = leaf
  KeyRange range;
  Version version = 0;
  NodeId right = kInvalidNode;   ///< right sibling (B-link pointer)
  Key right_low = kKeyInfinity;  ///< low key of the right sibling
  NodeId left = kInvalidNode;    ///< left sibling (§4.2 needs both links)
  NodeId parent = kInvalidNode;
  /// Version of the last applied link-change per LinkKind (§4.2 gating).
  Version link_versions[3] = {0, 0, 0};
  std::vector<Entry> entries;
  std::vector<ProcessorId> copies;  ///< processors replicating this node
  ProcessorId pc = kInvalidProcessor;  ///< primary copy
  /// Update ids already folded into this snapshot; a copy seeded from it
  /// inherits them as its backwards extension for history checking.
  std::vector<UpdateId> applied_updates;

  bool valid() const { return id.valid(); }
  friend bool operator==(const NodeSnapshot&, const NodeSnapshot&) = default;
};

/// Every kind of action exchanged by the protocols.
enum class ActionKind : uint8_t {
  kInvalid = 0,

  // --- client operations (non-update navigation + completion) ---
  kSearch,        ///< navigate toward `key`, reply with value or not-found
  kInsertOp,      ///< navigate toward `key`, then perform an initial insert
  kDeleteOp,      ///< navigate toward `key`, then perform an initial delete
  kScanOp,        ///< range read: walk leaves rightward from `key`
  kReturnValue,   ///< completion message back to the originating processor

  // --- fixed-copies protocols (§4.1) ---
  kInsert,        ///< initial insert I at a copy (leaf or interior)
  kRelayedInsert, ///< relayed insert i to the other copies
  kDelete,        ///< initial delete at a leaf copy (free-at-empty, [11])
  kRelayedDelete, ///< relayed delete to the other copies (lazy update)
  kSplitStart,    ///< AAS start (synchronous protocol only)
  kSplitAck,      ///< copy acknowledges the AAS start to the PC
  kSplitEnd,      ///< AAS end: carries the split outcome to apply
  kRelayedSplit,  ///< relayed half-split s (semi-synchronous protocol)
  kCreateNode,    ///< install a brand-new copy from a snapshot
  kRootHint,      ///< lazily announce a new root (id + level)

  // --- mobile / variable-copies protocols (§4.2, §4.3) ---
  kLinkChange,    ///< ordered action: re-point a link, gated by version
  kRelayedLinkChange,  ///< PC-relayed link-change (replicated neighbors)
  kMigrateNode,   ///< install a migrated node at its new host
  kMigrateAck,    ///< new host confirms installation to the old host
  kJoin,          ///< processor asks the PC to join copies(n)
  kJoinGrant,     ///< PC → requester: snapshot + membership
  kRelayedJoin,   ///< PC → existing copies: membership/version update
  kUnjoin,        ///< processor asks the PC to leave copies(n)
  kRelayedUnjoin, ///< PC → remaining copies: membership/version update

  // --- vigorous (available-copies) baseline ---
  kVigorousLock,    ///< lock request to every copy
  kVigorousLockAck, ///< copy granted the lock
  kVigorousApply,   ///< apply an insert at every copy (also unlocks)
  kVigorousApplyDelete, ///< apply a delete at every copy (also unlocks)
  kVigorousApplySplit, ///< apply a split at every copy (also unlocks)
  kVigorousApplyAck,///< copy applied the update
  kVigorousUnlock,  ///< release

  kMaxKind,
};

const char* ActionKindName(ActionKind kind);

/// True for kinds that modify node state (the paper's update actions);
/// non-update actions need not execute at every copy (§3.1).
constexpr bool IsUpdateKind(ActionKind kind) {
  switch (kind) {
    case ActionKind::kInsert:
    case ActionKind::kRelayedInsert:
    case ActionKind::kDelete:
    case ActionKind::kRelayedDelete:
    case ActionKind::kSplitEnd:
    case ActionKind::kRelayedSplit:
    case ActionKind::kLinkChange:
    case ActionKind::kRelayedLinkChange:
    case ActionKind::kMigrateNode:
    case ActionKind::kJoin:
    case ActionKind::kRelayedJoin:
    case ActionKind::kUnjoin:
    case ActionKind::kRelayedUnjoin:
    case ActionKind::kVigorousApply:
    case ActionKind::kVigorousApplyDelete:
    case ActionKind::kVigorousApplySplit:
      return true;
    default:
      return false;
  }
}

// --- action commutativity (§3.1) -----------------------------------------
//
// The paper's correctness argument partitions update actions into classes:
// lazy updates (relayed inserts / deletes / splits) commute — applying them
// at a copy in either order yields the same final value, which is exactly
// what makes them safe to delay, batch, and piggyback (§1.1) — while the
// ordered-action classes (link-changes; membership registrations, which
// include joins, unjoins, and migrations; the vigorous baseline's
// lock-step applies) must be applied in version order at every copy and
// therefore do not commute among themselves. CheckOrdered (history/checker)
// enforces the run-time half of this contract; the table below is the
// compile-time half, and lazytree_lint verifies the switch stays total
// when kinds are added.

/// Commutativity class of an action kind.
enum class OrderClass : uint8_t {
  kNonUpdate,   ///< navigation/ack/completion: no node mutation, vacuous
  kLazy,        ///< lazy updates: commute freely (§3.1)
  kLinkOrder,   ///< link-changes: version-ordered (§4.2 gating)
  kMembership,  ///< join/unjoin/migrate: version-ordered registrations
  kLockStep,    ///< vigorous applies: serialized externally by locks
};

constexpr OrderClass OrderClassOf(ActionKind kind) {
  switch (kind) {
    case ActionKind::kInsert:
    case ActionKind::kRelayedInsert:
    case ActionKind::kDelete:
    case ActionKind::kRelayedDelete:
    case ActionKind::kSplitEnd:
    case ActionKind::kRelayedSplit:
      return OrderClass::kLazy;
    case ActionKind::kLinkChange:
    case ActionKind::kRelayedLinkChange:
      return OrderClass::kLinkOrder;
    case ActionKind::kMigrateNode:
    case ActionKind::kJoin:
    case ActionKind::kRelayedJoin:
    case ActionKind::kUnjoin:
    case ActionKind::kRelayedUnjoin:
      return OrderClass::kMembership;
    case ActionKind::kVigorousApply:
    case ActionKind::kVigorousApplyDelete:
    case ActionKind::kVigorousApplySplit:
      return OrderClass::kLockStep;
    case ActionKind::kInvalid:
    case ActionKind::kSearch:
    case ActionKind::kInsertOp:
    case ActionKind::kDeleteOp:
    case ActionKind::kScanOp:
    case ActionKind::kReturnValue:
    case ActionKind::kSplitStart:
    case ActionKind::kSplitAck:
    case ActionKind::kCreateNode:
    case ActionKind::kRootHint:
    case ActionKind::kMigrateAck:
    case ActionKind::kJoinGrant:
    case ActionKind::kVigorousLock:
    case ActionKind::kVigorousLockAck:
    case ActionKind::kVigorousApplyAck:
    case ActionKind::kVigorousUnlock:
    case ActionKind::kMaxKind:
      return OrderClass::kNonUpdate;
  }
  return OrderClass::kNonUpdate;  // unreachable; keeps -Wreturn-type quiet
}

/// True when applying `a` then `b` at one copy equals applying `b` then
/// `a`. Total over ActionKind x ActionKind and symmetric by construction
/// (both facts are static_asserted below).
constexpr bool ActionsCommute(ActionKind a, ActionKind b) {
  const OrderClass ca = OrderClassOf(a);
  const OrderClass cb = OrderClassOf(b);
  // Non-updates mutate nothing: vacuously commute with everything.
  if (ca == OrderClass::kNonUpdate || cb == OrderClass::kNonUpdate) {
    return true;
  }
  // Lazy updates commute with every update (the paper's core property).
  if (ca == OrderClass::kLazy || cb == OrderClass::kLazy) return true;
  // Two ordered actions never commute — same class shares a version
  // sequence, and link/membership classes share the node's version
  // counter (§4.2: migration bumps it for both).
  return false;
}

namespace action_internal {

/// Compile-time audit of the commutativity relation: every kind (including
/// future additions, up to kMaxKind) must classify consistently with
/// IsUpdateKind, and the relation must be symmetric and reflexive-sane.
constexpr bool CommutativityTableIsSound() {
  constexpr int n = static_cast<int>(ActionKind::kMaxKind);
  for (int i = 0; i <= n; ++i) {
    const ActionKind a = static_cast<ActionKind>(i);
    // Totality + consistency: updates have an ordered-or-lazy class,
    // non-updates classify kNonUpdate.
    if ((OrderClassOf(a) != OrderClass::kNonUpdate) != IsUpdateKind(a)) {
      return false;
    }
    for (int j = 0; j <= n; ++j) {
      const ActionKind b = static_cast<ActionKind>(j);
      // Symmetry.
      if (ActionsCommute(a, b) != ActionsCommute(b, a)) return false;
    }
    // An ordered action cannot commute with itself.
    if (IsUpdateKind(a) && OrderClassOf(a) != OrderClass::kLazy &&
        ActionsCommute(a, a)) {
      return false;
    }
  }
  return true;
}

}  // namespace action_internal

static_assert(action_internal::CommutativityTableIsSound(),
              "action commutativity table must be total, symmetric, and "
              "consistent with IsUpdateKind — update OrderClassOf when "
              "adding an ActionKind");

/// Which link a kLinkChange re-points.
enum class LinkKind : uint8_t { kRight = 0, kLeft = 1, kParent = 2 };

/// One action plus its routing metadata. A single struct covers all kinds;
/// unused fields stay at their defaults and encode compactly (wire.h).
struct Action {
  ActionKind kind = ActionKind::kInvalid;
  NodeId target = kInvalidNode;  ///< logical node the action addresses
  OpId op = kNoOp;               ///< originating client operation, if any
  UpdateId update = kNoUpdate;   ///< stable id of the logical update

  Key key = 0;
  Value value = 0;
  bool found = false;  ///< kReturnValue: search hit?

  /// kReturnValue outcome discriminator.
  enum class Rc : uint8_t { kNone = 0, kOk = 1, kNotFound = 2, kExists = 3 };
  Rc rc = Rc::kNone;

  Version version = 0;      ///< version attached to the action
  ProcessorId origin = kInvalidProcessor;  ///< issuing processor
  int32_t level = -1;       ///< destination level for routing (-1 = any)
  uint32_t hops = 0;        ///< node visits so far (diagnostics, Fig. 2)

  // Split / link-change payload.
  NodeId new_node = kInvalidNode;  ///< new sibling / new link target
  Key sep = 0;                     ///< separator key (new sibling's low)
  LinkKind link = LinkKind::kRight;

  // Membership payload (join / unjoin / create).
  std::vector<ProcessorId> members;

  // Node payload (create / join grant / migrate / split end).
  NodeSnapshot snapshot;

  // Scan accumulator (kScanOp gathers as it walks; kReturnValue carries
  // the final batch home). `value` holds the scan limit.
  std::vector<Entry> range_results;

  std::string ToString() const;
  friend bool operator==(const Action&, const Action&) = default;

  /// Initial/relayed distinction (§3): relays never spawn client-visible
  /// subsequent actions.
  bool IsRelayed() const {
    return kind == ActionKind::kRelayedInsert ||
           kind == ActionKind::kRelayedDelete ||
           kind == ActionKind::kRelayedSplit ||
           kind == ActionKind::kRelayedLinkChange ||
           kind == ActionKind::kRelayedJoin ||
           kind == ActionKind::kRelayedUnjoin;
  }
};

}  // namespace lazytree

#endif  // LAZYTREE_MSG_ACTION_H_
