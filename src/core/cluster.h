// Cluster: a set of simulated processors jointly maintaining one dB-tree.
//
// This is the engine behind the DBTree facade and the unit the tests and
// benches drive directly: it wires processors to a transport, bootstraps
// the initial tree under the chosen protocol's placement, and exposes the
// §3 correctness checkers over the full distributed state.

#ifndef LAZYTREE_CORE_CLUSTER_H_
#define LAZYTREE_CORE_CLUSTER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/options.h"
#include "src/history/checker.h"
#include "src/net/faults.h"
#include "src/net/reliable.h"
#include "src/net/sim_network.h"
#include "src/net/thread_network.h"

namespace lazytree {

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Bootstraps the initial tree and starts message delivery.
  void Start();

  /// Stops delivery. Idempotent; the destructor calls it.
  void Stop();

  const ClusterOptions& options() const { return options_; }
  uint32_t size() const { return options_.processors; }
  Processor& processor(ProcessorId id) { return *processors_[id]; }

  /// Outermost network (the reliable decorator when enabled).
  net::Network& network() { return *network_; }
  /// Non-null when the transport is the deterministic simulator.
  net::SimNetwork* sim() { return sim_; }
  /// Non-null when a fault plan is installed (net/faults.h).
  net::FaultInjector* faulty() { return faults_.get(); }
  /// Non-null when the reliable-delivery layer is on (net/reliable.h).
  net::ReliableNetwork* reliable() { return reliable_.get(); }
  history::HistoryLog& history_log() { return history_; }

  // --- synchronous client operations (home = submitting processor) ---
  Status Insert(ProcessorId home, Key key, Value value);
  StatusOr<Value> Search(ProcessorId home, Key key);
  Status Delete(ProcessorId home, Key key);
  /// Up to `limit` entries with keys >= `start`, ascending. Best-effort
  /// under concurrent updates (B-link scan semantics).
  StatusOr<std::vector<Entry>> Scan(ProcessorId home, Key start,
                                    uint64_t limit);

  // --- asynchronous client operations ---
  OpId InsertAsync(ProcessorId home, Key key, Value value, OpCallback cb);
  OpId SearchAsync(ProcessorId home, Key key, OpCallback cb);
  OpId DeleteAsync(ProcessorId home, Key key, OpCallback cb);
  OpId ScanAsync(ProcessorId home, Key start, uint64_t limit,
                 OpCallback cb);

  /// Asks `host_hint` to migrate `node` to `dest` (§4.2 protocols only).
  /// The command chases forwarding addresses if the node moved; it is
  /// dropped (with a warning) if the node cannot be found.
  void MigrateNode(NodeId node, ProcessorId host_hint, ProcessorId dest);

  /// Drains all in-flight work, including relays held in the processors'
  /// outboxes (for the sim transport this *is* the execution loop).
  /// Returns false on timeout/livelock. With a piggyback window, call it
  /// only while no client thread submits operations.
  bool Settle(std::chrono::milliseconds timeout =
                  std::chrono::milliseconds(30000));

  /// Sim transport only: fires the reliable layer's earliest due virtual
  /// timer. Returns true if new network work appeared — the explorer's
  /// drive loop calls this when SimNetwork::Step runs dry, which is
  /// exactly how retransmissions and delayed acks become schedulable,
  /// replayable events.
  bool PumpNetworkTimers();

  // --- crash/restart injection (sim transport only) ---

  /// Fail-stop crash of processor `p`: the network drops its inbound
  /// messages until RestartProcessor, its local copies die (recorded with
  /// the history log), and its outstanding client operations fail
  /// Unavailable. Idempotent while crashed.
  void CrashProcessor(ProcessorId p);

  /// Restarts a crashed processor with a fresh protocol handler and a
  /// root hint learned from a live peer (rejoin-by-asking-a-neighbor).
  /// No-op when `p` is not crashed — a minimized schedule may have had
  /// its crash event removed while the restart survived.
  void RestartProcessor(ProcessorId p);

  // --- whole-tree inspection (call only at quiescence) ---

  /// Final value of every live copy, for CheckCompatible.
  std::map<history::CopyKey, NodeSnapshot> CollectCopies();

  /// Runs all three §3 history checks over the current state.
  history::CheckReport VerifyHistories();

  /// Union of all leaf contents (one copy per logical leaf), sorted by
  /// key — the tree's logical dictionary, for oracle comparison.
  std::vector<Entry> DumpLeaves();

  /// Walks the tree's structural invariants (ranges partition the key
  /// space per level, right links are consistent); returns violations.
  std::vector<std::string> CheckTreeStructure();

  /// The counter ledger (net/stats.h) summed over processors: network,
  /// reliable-layer, processor and protocol counters. One processor's
  /// shard is processor(p).counters().
  net::StatsSnapshot NetStats() { return base_network().stats().Snapshot(); }

  /// The undecorated transport.
  net::Network& base_network();

 private:
  void Bootstrap();

  /// Runs one client operation to completion: `submit(callback)` issues
  /// it; the sim is settled, the threads transport waited on for 30 s.
  /// A miss is reported as TimedOut("<what> did not settle|stalled").
  template <typename Submit>
  OpResult RunSync(const char* what, Submit submit);

  /// The always-on §3.1 hook: runs CheckAll at a quiescent point when
  /// options_.check_histories is set, dying on the first violation.
  void MaybeCheckHistories();

  /// Reliable-layer callback: a channel exhausted its retransmit budget.
  /// Messages were genuinely lost, so any outstanding op anywhere in the
  /// cluster may be waiting on one of them — fail them all with a
  /// retriable kUnavailable status rather than hanging.
  void OnLinkDown(ProcessorId from, ProcessorId to);

  ClusterOptions options_;
  history::HistoryLog history_;
  /// Consulted by the base transport; declared first so it outlives it.
  std::unique_ptr<net::FaultInjector> faults_;
  /// Decorator stack, innermost first (declaration order matters: outer
  /// layers are destroyed before the layers they wrap):
  ///   base -> reliable.
  std::unique_ptr<net::Network> base_network_;
  std::unique_ptr<net::ReliableNetwork> reliable_;
  net::Network* network_ = nullptr;  // outermost
  net::SimNetwork* sim_ = nullptr;
  std::vector<std::unique_ptr<Processor>> processors_;
  bool started_ = false;
  /// History size at the last quiescence check (skip re-verifying an
  /// unchanged log when Settle() is called back-to-back).
  size_t checked_history_records_ = 0;
};

}  // namespace lazytree

#endif  // LAZYTREE_CORE_CLUSTER_H_
