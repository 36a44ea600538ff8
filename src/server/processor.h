// Processor: one simulated server (§1.1).
//
// Owns the node store, the queue manager, the AAS registry, the operation
// tracker, and a ProtocolHandler. The network calls Deliver serially, so
// every action executes atomically with respect to the local store — the
// paper's queue-manager / node-manager execution model.

#ifndef LAZYTREE_SERVER_PROCESSOR_H_
#define LAZYTREE_SERVER_PROCESSOR_H_

#include <atomic>
#include <memory>

#include "src/history/history.h"
#include "src/net/transport.h"
#include "src/node/node_store.h"
#include "src/server/aas.h"
#include "src/server/op_tracker.h"
#include "src/server/protocol_handler.h"
#include "src/server/queue_manager.h"

namespace lazytree {

/// Knobs shared by every processor of one tree.
struct TreeConfig {
  /// Max entries per node before the PC half-splits it (fanout).
  size_t max_entries = 8;
  /// Record per-copy histories for the §3 checkers (tests on, benches off).
  bool track_history = true;
  /// Inserting an existing key overwrites (true) or fails AlreadyExists.
  bool upsert = false;
  /// Fixed-copies placement: replication factor for interior nodes.
  /// 0 means "every processor" (the dB-tree root-everywhere policy).
  uint32_t interior_replication = 0;
  /// Fixed-copies placement: replication factor for leaves. The dB-tree
  /// policy is 1 (§1.1: "the leaf nodes are stored on a single
  /// processor"); >1 exercises the general §4.1 fixed-copies model where
  /// client inserts themselves are relayed (Fig. 4 needs this).
  uint32_t leaf_replication = 1;
  /// Mobile/varcopies online data balancing ([14]): when a processor
  /// hosts more than this many leaves, a freshly split-off leaf sibling
  /// is migrated to another processor. 0 disables shedding.
  uint32_t shed_threshold = 0;
  /// ABLATION ONLY: disable the §4.3 version-gated re-relay to late
  /// joiners. Demonstrates the Fig.-6 incomplete-history failure the
  /// machinery exists to prevent.
  bool ablate_fig6_rerelay = false;
};

class Processor : public net::Receiver {
 public:
  /// `piggyback_window` sizes the outbox's relay deferral (QueueManager).
  Processor(ProcessorId id, uint32_t cluster_size, net::Network* network,
            history::HistoryLog* history, const TreeConfig& config,
            size_t piggyback_window = 0);

  /// Installs the protocol strategy. Must happen before the network starts.
  void SetHandler(std::unique_ptr<ProtocolHandler> handler);

  // net::Receiver:
  void Deliver(Message m) override;
  /// Batch delivery with one outbox scope spanning the whole batch: all
  /// actions the batch emits toward one destination leave as a single
  /// message.
  void DeliverBatch(std::vector<Message>& batch) override;

  /// Completes a kReturnValue action addressed to this processor without
  /// a queue-manager round trip (the local-read fast path's last hop).
  /// Worker thread only.
  void CompleteReturnLocal(Action action);

  // --- services used by protocol code (worker thread only) ---
  ProcessorId id() const { return id_; }
  uint32_t cluster_size() const { return cluster_size_; }
  const TreeConfig& config() const { return config_; }
  NodeStore& store() { return store_; }
  const NodeStore& store() const { return store_; }
  QueueManager& out() { return out_; }
  AasRegistry& aas() { return aas_; }
  OpTracker& ops() { return ops_; }
  history::HistoryLog* history() { return history_; }
  /// Installed protocol strategy (tests and benches downcast to inspect
  /// protocol-specific counters).
  ProtocolHandler* handler() { return handler_.get(); }

  /// Fresh globally-unique node id (uncoordinated: creator-scoped counter).
  NodeId NewNodeId() { return NodeId::Make(id_, next_node_seq_++); }

  /// Fresh globally-unique update id.
  UpdateId NewUpdateId() {
    return (static_cast<UpdateId>(id_) << 32) | next_update_seq_++;
  }

  // Id-allocator positions, exposed for verifier state fingerprints (two
  // states that will mint different ids behave differently later).
  uint32_t next_node_seq() const { return next_node_seq_; }
  uint32_t next_update_seq() const { return next_update_seq_; }

  /// Installs a node copy directly (bootstrap and protocol internals) and
  /// registers its creation with the history log. The node's
  /// applied_updates seed the backwards extension.
  Node* InstallNode(std::unique_ptr<Node> node);

  /// Removes a local copy, recording its death in the history log.
  void RemoveNode(NodeId node, ProcessorId forward_to = kInvalidProcessor);

  // --- crash injection (sim transport; driven by Cluster) ---

  /// Fail-stop crash: every volatile structure is lost — node copies
  /// (their deaths are recorded with the history log), forwarding
  /// addresses, the root hint, parked/deferred actions, relays held in
  /// the outbox, and the protocol handler's state. Outstanding client operations fail Unavailable.
  /// The network must already be dropping this processor's inbound
  /// messages (SimNetwork::Crash).
  void Crash();

  /// Brings the processor back with a fresh protocol handler and (when
  /// valid) a root hint learned from a live peer. Operations submitted
  /// while the processor was down fail Unavailable now.
  void Restart(std::unique_ptr<ProtocolHandler> handler, NodeId root_hint,
               int32_t root_level);

  bool crashed() const { return crashed_; }

  /// Number of crashes survived so far. Protocol code uses `> 0` to know
  /// this processor may legitimately lack copies it is the designated
  /// home of (fixed placement) and should re-route instead of parking.
  uint32_t crash_epoch() const { return crash_epoch_; }

  // --- client API (any thread) ---
  OpId SubmitSearch(Key key, OpCallback callback);
  OpId SubmitInsert(Key key, Value value, OpCallback callback);
  OpId SubmitDelete(Key key, OpCallback callback);
  /// Range read: up to `limit` entries with keys >= `start`, ascending.
  /// Not snapshot-consistent under concurrent updates (B-link scans see
  /// each committed key at most once; keys stable through the scan are
  /// always included).
  OpId SubmitScan(Key start, uint64_t limit, OpCallback callback);

  uint64_t actions_handled() const {
    return actions_handled_.load(std::memory_order_relaxed);
  }

 private:
  void HandleAction(Action& action);
  OpId Submit(ActionKind kind, Key key, Value value, OpCallback callback);

  ProcessorId id_;
  uint32_t cluster_size_;
  TreeConfig config_;
  net::Network* network_;
  history::HistoryLog* history_;
  NodeStore store_;
  QueueManager out_;
  AasRegistry aas_;
  OpTracker ops_;
  std::unique_ptr<ProtocolHandler> handler_;
  uint32_t next_node_seq_ = 1;
  uint32_t next_update_seq_ = 1;
  std::atomic<uint64_t> actions_handled_{0};
  bool crashed_ = false;
  uint32_t crash_epoch_ = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_SERVER_PROCESSOR_H_
