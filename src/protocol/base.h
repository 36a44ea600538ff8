// BaseProtocol: the distributed B-link tree machinery shared by every
// replica-maintenance algorithm in §4.
//
// It implements the Shasha-Goodman link-style navigation the dB-tree
// inherits (§1.1): one node visit per action, misnavigation recovery via
// the right-sibling link, completion messages back to the operation's
// origin, lazily-propagated root growth, and the bookkeeping hooks for the
// §3 history checkers. Concrete protocols supply the replica-coherence
// policy: how initial updates are relayed, how splits are ordered, and how
// missing nodes are found.

#ifndef LAZYTREE_PROTOCOL_BASE_H_
#define LAZYTREE_PROTOCOL_BASE_H_

#include <unordered_map>
#include <vector>

#include "src/history/history.h"
#include "src/server/processor.h"
#include "src/util/rng.h"

namespace lazytree {

class BaseProtocol : public ProtocolHandler {
 public:
  explicit BaseProtocol(Processor& p);

  void Handle(Action a) override;

  /// Parked actions + PRNG position. Subclasses with extra scratch state
  /// override, call the base, and mix their own (sorted canonically).
  void MixState(Fingerprint& fp) const override;

 protected:
  // --- per-kind handlers; protocols override what they change ---
  /// kInsert and kDelete at the copy where the update is issued.
  virtual void HandleInitialUpdate(Action a) = 0;
  /// kRelayedInsert and kRelayedDelete at the other copies.
  virtual void HandleRelayedUpdate(Action a) { Unexpected(a); }
  virtual void HandleSplitStart(Action a) { Unexpected(a); }
  virtual void HandleSplitAck(Action a) { Unexpected(a); }
  virtual void HandleSplitEnd(Action a) { Unexpected(a); }
  virtual void HandleRelayedSplit(Action a) { Unexpected(a); }
  virtual void HandleCreateNode(Action a);
  virtual void HandleRootHint(Action a);
  virtual void HandleLinkChange(Action a) { Unexpected(a); }
  virtual void HandleMigrateNode(Action a) { Unexpected(a); }
  virtual void HandleMigrateAck(Action a) { Unexpected(a); }
  virtual void HandleJoin(Action a) { Unexpected(a); }
  virtual void HandleJoinGrant(Action a) { Unexpected(a); }
  virtual void HandleRelayedJoin(Action a) { Unexpected(a); }
  virtual void HandleUnjoin(Action a) { Unexpected(a); }
  virtual void HandleRelayedUnjoin(Action a) { Unexpected(a); }
  virtual void HandleVigorous(Action a) { Unexpected(a); }

  /// Logged-and-dropped fallback for kinds a protocol does not speak.
  void Unexpected(const Action& a);

  // --- routing ---

  /// Which processor should handle an action for node `id` at `level`?
  /// Returns self when the node is (or should be) local.
  virtual ProcessorId ResolveDest(NodeId id, int32_t level) = 0;

  /// Called when an action arrives for a node this processor does not
  /// store and ResolveDest said "self". Fixed-copies parks the action
  /// until the copy is installed; mobile protocols run §4.2 recovery.
  virtual void HandleMissing(Action a);

  /// Local copy of `id`, or nullptr.
  Node* Local(NodeId id) { return p_.store().Get(id); }

  /// Local copy of a.target; else sends `a` on toward it (HandleMissing
  /// when ResolveDest names this processor) and returns nullptr.
  Node* LocalOrRoute(Action& a);

  /// Routes an action toward its target node (self-send when local).
  void RouteToNode(NodeId id, int32_t level, Action a);

  // --- navigation (client ops: search, insert, delete, scan) ---
  //
  // The descent continues *inline* while the next node is locally
  // replicated: root-everywhere placement means a search usually walks
  // root → interior → leaf-home entirely inside one delivery, and only
  // the final leaf hop (or a misnavigation onto a remote sibling) crosses
  // the queue manager. Local copies may be stale — that is exactly the
  // staleness §4.2 side-link recovery absorbs, so no extra correctness
  // machinery is needed. Atomicity is unchanged: the whole inline walk
  // runs within one Deliver, and each node visit still touches one node
  // at a time.
  void Navigate(Action a);

  // --- key-routed updates (initial key updates, link-changes) ---
  //
  // `a.level` is the update's destination level. The node it reaches may
  // sit above that level (a start found by Closest or SplitParentTarget)
  // or left of the key (a split moved it); these steps move the update
  // on without touching `a.level`.

  /// Follows `n`'s right link (the key is at or past n.right_low()).
  void ChaseRight(const Node& n, Action a) {
    RouteToNode(n.right(), a.level, std::move(a));
  }

  /// Descends to the child of `n` covering `a.key` (n is above a.level).
  void Descend(const Node& n, Action a) {
    RouteToNode(n.ChildFor(a.key), a.level, std::move(a));
  }

  /// Routes a completed kReturnValue to the op's origin. A reply to
  /// *this* processor completes the operation directly instead of taking
  /// a self-send round trip.
  void SendReturn(Action r);

  /// True when reads of this copy must wait (vigorous baseline locks;
  /// lazy protocols never block reads — the paper's headline property).
  virtual bool ReadBlocked(Node& n) {
    (void)n;
    return false;
  }

  /// Leaf arrival of a kSearch: reply to the origin.
  void CompleteSearch(const Action& a, Node& leaf);

  /// Leaf arrival of a kScanOp: collect entries, walk right while the
  /// limit (a.value) is unfilled, then reply with the batch.
  void ContinueScan(Action a, Node& leaf);

  /// Sends the operation's return-value action to its origin.
  void Reply(const Action& a, Action::Rc rc, Value value);

  // --- key updates (kInsert, kDelete and their relays) ---
  //
  // Inserts and deletes are one lazy update that differs by kind only in
  // what it does to a copy (store the payload, or remove the key), the
  // client's reply code and the history class, and in that only an
  // insert can overflow a copy into a split (deletes free at empty, [11]).

  /// True for the kinds that insert: the initial insert, its relay and
  /// the vigorous baseline's apply at a copy.
  static bool IsInsert(const Action& a) {
    return a.kind == ActionKind::kInsert ||
           a.kind == ActionKind::kRelayedInsert ||
           a.kind == ActionKind::kVigorousApply;
  }

  /// Registers client key update `a` with its issue point `n`, unless it
  /// already has an id (a separator insert, a forwarded rewrite).
  void RegisterKeyUpdate(const Node& n, Action& a);

  /// Applies key update `a` at copy `n` and records it with n's version.
  /// An insert stores the value at a leaf and the child id above. At the
  /// issuing copy (`initial`) the update is registered first. Returns the
  /// client's reply code.
  Action::Rc ApplyKeyUpdate(Node& n, Action& a, bool initial);

  /// Records relayed update `a` at `n` as rewritten: a split moved its key
  /// out of this copy first, so it is reordered before that split and has
  /// no local effect (§4.1), but it stays in the history.
  void RecordRewritten(Node& n, const Action& a);

  /// True when `a` is an insert that left `n` over the fanout.
  bool SplitDue(const Node& n, const Action& a) const {
    return IsInsert(a) && n.Overflowing(p_.config().max_entries);
  }

  /// Relays initial update `a`, just applied at `n`, to n's other copies
  /// (the lazy update). Relays carry no client context — the initial
  /// execution alone answers the client — and this copy's version.
  void RelayToCopies(const Node& n, const Action& a);

  /// The PC's half of a history rewrite (§4.1.2): forwards relayed update
  /// `a`, whose key a split moved right of `n`, as a fresh initial update
  /// (the same UpdateId) toward the node that owns the key now.
  void ForwardRewritten(const Node& n, Action a);

  // --- update bookkeeping (§3) ---

  /// Allocates an update id and registers the issue with the history log.
  UpdateId NewRegisteredUpdate(history::UpdateClass cls, NodeId node,
                               Key key, Value value);

  /// Records an applied (or rewritten) update at a local copy and folds it
  /// into the node's backwards-extension list.
  void RecordUpdate(Node& node, history::UpdateClass cls, UpdateId update,
                    bool initial, bool rewritten = false, Key key = 0,
                    Value value = 0, NodeId new_node = kInvalidNode,
                    Key sep = 0, Version version = 0, uint8_t link = 0);

  // --- splits ---
  //
  // Every protocol half-splits a node at its PC the same way; they differ
  // only in how the outcome reaches the other copies (RelaySplit's kind):
  // split_end under sync's AAS (§4.1.1), a relayed split (§4.1.2, §4.3),
  // the vigorous apply, or nothing for single copies (§4.2).

  /// A split performed at the PC: its registered update and its outcome.
  struct PcSplit {
    UpdateId update = kNoUpdate;
    Node::SplitResult split;
  };

  /// Half-splits `n` at its PC: registers the split, moves the upper half
  /// into a sibling image, bumps n's version (links into n are now one
  /// version stale) and records the split.
  PcSplit SplitAtPc(Node& n);

  /// Sends split `s`, just performed at `n`, to n's other copies as a
  /// `kind` action carrying n's new version.
  void RelaySplit(const Node& n, const PcSplit& s, ActionKind kind);

  /// Applies split `a`, relayed by the PC, at another copy `n`.
  void ApplyRelayedSplit(Node& n, const Action& a);

  /// A copy's side of the PC's AAS request `a` (sync's split_start,
  /// vigorous's lock): begins the AAS on the target copy and acks the PC
  /// with `ack_kind`. A copy not installed yet goes to HandleMissing.
  void JoinAas(Action a, ActionKind ack_kind);

  /// Ends the AAS on `n` and re-enqueues the actions it deferred.
  void EndAas(const Node& n);

  // --- shared split plumbing ---

  /// Installs a copy from a snapshot (kCreateNode and protocol internals):
  /// registers creation, drains parked actions, refreshes the root hint.
  Node* InstallFromSnapshot(const NodeSnapshot& snapshot);

  /// Completes the structural half of a split at the PC: places the
  /// sibling's copies, grows a new root first when `node` was the top (so
  /// the sibling's parent pointer is correct), distributes the sibling
  /// snapshot, and sends the (sep -> sibling) initial insert toward the
  /// parent level through SplitParentTarget.
  void FinishSplit(Node& node, Node::SplitResult& split);

  /// Builds the new-root snapshot and distributes it (§1.1 root policy);
  /// broadcasts kRootHint so every processor learns the new top lazily.
  void GrowNewRoot(Node& old_top, Key sep, NodeId sibling);

  /// Copy set for a brand-new node (placement policy).
  virtual std::vector<ProcessorId> PlaceNewNode(NodeId id,
                                                int32_t level) = 0;

  /// Copy set for a split-off sibling. Defaults to PlaceNewNode; the
  /// variable-copies protocol inherits the split node's membership.
  virtual std::vector<ProcessorId> PlaceSibling(const Node& splitting,
                                                NodeId sibling_id) {
    return PlaceNewNode(sibling_id, splitting.level());
  }

  /// Which node receives the (sep -> sibling) insert after a split: the
  /// lowest local copy at a level above `node` whose range contains
  /// `sep`. The Fig.-2 policy replicates the path above each leaf, so
  /// this is normally the local level+1 copy and the insert stays local
  /// (§1.1); a higher copy (partial interior replication) descends by
  /// key. The stored parent pointer is the fallback only when nothing
  /// local contains `sep`; its staleness is recovered by right-chasing.
  NodeId SplitParentTarget(const Node& node, Key sep);

  /// Distributes a sibling snapshot to its copy holders (installing the
  /// local one directly).
  void DistributeCopies(const NodeSnapshot& snapshot);

  Processor& p_;
  Rng rng_;

 private:
  /// Sends an action for a non-local target toward its holder.
  void RouteAway(Action a);

  void RecordKeyUpdate(Node& n, const Action& a, bool initial,
                       bool rewritten);

  // Actions parked while waiting for a kCreateNode to install their target.
  std::unordered_map<NodeId, std::vector<Action>> parked_;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_BASE_H_
