#include "src/core/cluster.h"

#include <algorithm>
#include <future>
#include <set>
#include <sstream>

#include "src/protocol/mobile.h"
#include "src/protocol/naive.h"
#include "src/protocol/varcopies.h"
#include "src/protocol/semisync_split.h"
#include "src/protocol/sync_split.h"
#include "src/protocol/vigorous.h"
#include "src/util/logging.h"

namespace lazytree {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kSyncSplit: return "sync";
    case ProtocolKind::kSemiSyncSplit: return "semisync";
    case ProtocolKind::kNaive: return "naive";
    case ProtocolKind::kVigorous: return "vigorous";
    case ProtocolKind::kMobile: return "mobile";
    case ProtocolKind::kVarCopies: return "varcopies";
  }
  return "?";
}

namespace {

std::unique_ptr<ProtocolHandler> MakeHandler(ProtocolKind kind,
                                             Processor& p) {
  switch (kind) {
    case ProtocolKind::kSyncSplit:
      return std::make_unique<SyncSplitProtocol>(p);
    case ProtocolKind::kSemiSyncSplit:
      return std::make_unique<SemiSyncSplitProtocol>(p);
    case ProtocolKind::kNaive:
      return std::make_unique<NaiveProtocol>(p);
    case ProtocolKind::kVigorous:
      return std::make_unique<VigorousProtocol>(p);
    case ProtocolKind::kMobile:
      return std::make_unique<MobileProtocol>(p);
    case ProtocolKind::kVarCopies:
      return std::make_unique<VarCopiesProtocol>(p);
    default:
      LAZYTREE_CHECK(false) << "protocol not yet wired into Cluster";
      return nullptr;
  }
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)), history_(options_.tree.track_history) {
  LAZYTREE_CHECK(options_.processors >= 1) << "need at least one processor";
  const bool threads = options_.transport == TransportKind::kThreads;
  if (options_.faults.active()) {
    faults_ = std::make_unique<net::FaultInjector>(options_.faults,
                                                   options_.processors);
  }
  if (options_.transport == TransportKind::kSim) {
    auto sim = std::make_unique<net::SimNetwork>(options_.seed);
    if (options_.sim_latency_us > 0) {
      sim->EnableLatency(options_.sim_latency_us, options_.sim_jitter_us);
    }
    sim->SetFaultInjector(faults_.get());
    sim_ = sim.get();
    base_network_ = std::move(sim);
  } else {
    auto thread_net = std::make_unique<net::ThreadNetwork>();
    thread_net->SetFaultInjector(faults_.get());
    base_network_ = std::move(thread_net);
  }
  network_ = base_network_.get();
  const bool reliable_on = options_.reliable < 0
                               ? options_.faults.active()
                               : options_.reliable > 0;
  if (reliable_on) {
    reliable_ = std::make_unique<net::ReliableNetwork>(
        network_, options_.reliability, /*real_timers=*/threads);
    reliable_->SetLinkDownCallback(
        [this](ProcessorId from, ProcessorId to) { OnLinkDown(from, to); });
    network_ = reliable_.get();
  }
  processors_.reserve(options_.processors);
  for (ProcessorId id = 0; id < options_.processors; ++id) {
    processors_.push_back(std::make_unique<Processor>(
        id, options_.processors, network_, &history_, options_.tree,
        options_.piggyback_window));
    processors_.back()->SetHandler(
        MakeHandler(options_.protocol, *processors_.back()));
  }
}

Cluster::~Cluster() { Stop(); }

net::Network& Cluster::base_network() { return *base_network_; }

void Cluster::Bootstrap() {
  // The initial tree: an interior root over a single empty leaf, placed
  // exactly where the protocol's deterministic placement expects them.
  Processor& p0 = *processors_[0];
  const NodeId root_id = p0.NewNodeId();
  const NodeId leaf_id = p0.NewNodeId();
  const uint32_t r = options_.tree.interior_replication;

  std::vector<ProcessorId> root_copies;
  std::vector<ProcessorId> leaf_copies;
  switch (options_.protocol) {
    case ProtocolKind::kMobile:
      root_copies = {0};
      leaf_copies = {0};
      break;
    case ProtocolKind::kVarCopies: {
      // Root everywhere (Fig. 2 policy); the single leaf and its path
      // start on processor 0.
      for (ProcessorId id = 0; id < options_.processors; ++id) {
        root_copies.push_back(id);
      }
      leaf_copies = {0};
      break;
    }
    default:
      root_copies = FixedCopySet(root_id, 1, options_.processors, r,
                                 options_.tree.leaf_replication);
      leaf_copies = FixedCopySet(leaf_id, 0, options_.processors, r,
                                 options_.tree.leaf_replication);
  }

  NodeSnapshot leaf;
  leaf.id = leaf_id;
  leaf.level = 0;
  leaf.range = KeyRange{0, kKeyInfinity};
  leaf.parent = root_id;
  leaf.copies = leaf_copies;
  leaf.pc = leaf_copies.front();

  NodeSnapshot root;
  root.id = root_id;
  root.level = 1;
  root.range = KeyRange{0, kKeyInfinity};
  root.entries = {Entry{0, leaf_id.v}};
  root.copies = root_copies;
  root.pc = root_copies.front();

  for (ProcessorId holder : root_copies) {
    processors_[holder]->InstallNode(
        std::make_unique<Node>(root, options_.tree.track_history));
  }
  for (ProcessorId holder : leaf_copies) {
    processors_[holder]->InstallNode(
        std::make_unique<Node>(leaf, options_.tree.track_history));
  }
  for (auto& p : processors_) p->store().SetRootHint(root_id, 1);
}

void Cluster::Start() {
  LAZYTREE_CHECK(!started_) << "Start called twice";
  started_ = true;
  Bootstrap();
  network_->Start();
}

void Cluster::Stop() {
  if (!started_) return;
  network_->Stop();
}

OpId Cluster::InsertAsync(ProcessorId home, Key key, Value value,
                          OpCallback cb) {
  return processors_[home]->SubmitInsert(key, value, std::move(cb));
}

OpId Cluster::SearchAsync(ProcessorId home, Key key, OpCallback cb) {
  return processors_[home]->SubmitSearch(key, std::move(cb));
}

OpId Cluster::DeleteAsync(ProcessorId home, Key key, OpCallback cb) {
  return processors_[home]->SubmitDelete(key, std::move(cb));
}

OpId Cluster::ScanAsync(ProcessorId home, Key start, uint64_t limit,
                        OpCallback cb) {
  return processors_[home]->SubmitScan(start, limit, std::move(cb));
}

void Cluster::MigrateNode(NodeId node, ProcessorId host_hint,
                          ProcessorId dest) {
  Action cmd;
  cmd.kind = ActionKind::kMigrateNode;
  cmd.target = node;
  cmd.members = {dest};
  network_->Send(Message(dest, host_hint, std::move(cmd)));
}

template <typename Submit>
OpResult Cluster::RunSync(const char* what, Submit submit) {
  if (sim_ != nullptr) {
    OpResult result;
    bool done = false;
    submit([&](const OpResult& r) {
      result = r;
      done = true;
    });
    if (!Settle() || !done) {
      result.status = Status::TimedOut(std::string(what) + " did not settle");
    }
    return result;
  }
  std::promise<OpResult> promise;
  auto future = promise.get_future();
  submit([&promise](const OpResult& r) { promise.set_value(r); });
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    OpResult result;
    result.status = Status::TimedOut(std::string(what) + " stalled");
    return result;
  }
  return future.get();
}

Status Cluster::Insert(ProcessorId home, Key key, Value value) {
  return RunSync("insert", [&](OpCallback cb) {
           InsertAsync(home, key, value, std::move(cb));
         }).status;
}

StatusOr<Value> Cluster::Search(ProcessorId home, Key key) {
  OpResult result = RunSync(
      "search", [&](OpCallback cb) { SearchAsync(home, key, std::move(cb)); });
  if (!result.status.ok()) return result.status;
  return result.value;
}

Status Cluster::Delete(ProcessorId home, Key key) {
  return RunSync("delete", [&](OpCallback cb) {
           DeleteAsync(home, key, std::move(cb));
         }).status;
}

StatusOr<std::vector<Entry>> Cluster::Scan(ProcessorId home, Key start,
                                           uint64_t limit) {
  OpResult result = RunSync("scan", [&](OpCallback cb) {
    ScanAsync(home, start, limit, std::move(cb));
  });
  if (!result.status.ok()) return result.status;
  return std::move(result.entries);
}

bool Cluster::Settle(std::chrono::milliseconds timeout) {
  // Relays held in the outboxes are outstanding work: at each quiescent
  // point send them and settle again, until nothing is held (delivering
  // them can hold new relays). Taking them touches worker-owned buffers
  // from this thread, which is safe only while no delivery runs — hence
  // every outbox is emptied before the first send wakes a worker, and no
  // client may submit concurrently with Settle while a piggyback window
  // is set. Without one nothing is ever held.
  constexpr int kMaxFlushRounds = 1000;
  for (int round = 0; round < kMaxFlushRounds; ++round) {
    if (!network_->WaitQuiescent(timeout)) return false;
    std::vector<Message> held;
    if (options_.piggyback_window > 0) {
      for (auto& p : processors_) p->out().TakeDeferred(&held);
    }
    if (held.empty()) {
      MaybeCheckHistories();
      return true;
    }
    for (Message& m : held) network_->Send(std::move(m));
  }
  return false;  // flushing keeps holding new relays: livelock
}

bool Cluster::PumpNetworkTimers() {
  return reliable_ != nullptr && reliable_->Pump();
}

void Cluster::OnLinkDown(ProcessorId from, ProcessorId to) {
  LAZYTREE_WARN << "link p" << from << "->p" << to
                << " declared down (retransmit budget exhausted); "
                << "failing pending ops";
  // Lost messages may strand an op homed on *any* processor (relays and
  // returns route through third parties), so degrade the whole cluster's
  // outstanding ops to a retriable failure instead of guessing.
  for (auto& p : processors_) {
    p->ops().FailAllPending(
        Status::Unavailable("network link down (messages lost)"));
  }
}

void Cluster::MaybeCheckHistories() {
  if (!options_.check_histories || !options_.tree.track_history ||
      !started_) {
    return;
  }
  if (reliable_ != nullptr && reliable_->AnyLinkDown()) {
    // A dead link means updates were genuinely lost in transit; §3.1
    // completeness cannot hold and the violation is expected, not a bug.
    return;
  }
  if (sim_ != nullptr) {
    // §3.1 is a property of quiescent points of the *recovered* system;
    // while a processor is down its copies' updates are legitimately
    // missing. The next post-recovery Settle() checks the full log.
    for (ProcessorId p = 0; p < options_.processors; ++p) {
      if (sim_->IsCrashed(p)) return;
    }
  }
  const size_t records = history_.RecordCount();
  if (records == checked_history_records_) return;
  checked_history_records_ = records;
  history::CheckReport report = VerifyHistories();
  LAZYTREE_CHECK(report.ok())
      << "§3.1 invariant violated at quiescence ("
      << report.violations.size() << " violation(s)):\n"
      << report.ToString();
}

void Cluster::CrashProcessor(ProcessorId p) {
  LAZYTREE_CHECK(sim_ != nullptr) << "crash injection needs the sim transport";
  LAZYTREE_CHECK(p < options_.processors) << "crash of unknown p" << p;
  if (sim_->IsCrashed(p)) return;
  sim_->Crash(p);  // drop inbound first, then lose the volatile state
  processors_[p]->Crash();
}

void Cluster::RestartProcessor(ProcessorId p) {
  LAZYTREE_CHECK(sim_ != nullptr) << "crash injection needs the sim transport";
  LAZYTREE_CHECK(p < options_.processors) << "restart of unknown p" << p;
  if (!sim_->IsCrashed(p)) return;
  // Learn the highest root any live peer knows — the restarted processor
  // rejoins the tree by asking a neighbor, like a fresh client would.
  NodeId hint = kInvalidNode;
  int32_t hint_level = -1;
  for (auto& peer : processors_) {
    if (peer->crashed() || peer->id() == p) continue;
    if (peer->store().root_level() > hint_level &&
        peer->store().root_hint().valid()) {
      hint = peer->store().root_hint();
      hint_level = peer->store().root_level();
    }
  }
  processors_[p]->Restart(MakeHandler(options_.protocol, *processors_[p]),
                          hint, hint_level);
  sim_->Restart(p);
}

std::map<history::CopyKey, NodeSnapshot> Cluster::CollectCopies() {
  std::map<history::CopyKey, NodeSnapshot> copies;
  for (auto& p : processors_) {
    const ProcessorId id = p->id();
    p->store().ForEach([&](const Node& node) {
      copies[history::CopyKey{node.id(), id}] = node.ToSnapshot();
    });
  }
  return copies;
}

history::CheckReport Cluster::VerifyHistories() {
  return history::CheckAll(history_, CollectCopies(), options_.history_check);
}

std::vector<Entry> Cluster::DumpLeaves() {
  // One representative copy per logical leaf (compatibility is checked
  // separately); leaves are disjoint so concatenation sorted by range low
  // yields the dictionary.
  std::map<NodeId, NodeSnapshot> leaves;
  for (auto& p : processors_) {
    p->store().ForEach([&](const Node& node) {
      if (node.level() != 0) return;
      auto [it, fresh] = leaves.try_emplace(node.id(), node.ToSnapshot());
      // Prefer the PC's copy as representative.
      if (!fresh && node.pc() == p->id()) it->second = node.ToSnapshot();
    });
  }
  std::vector<Entry> all;
  for (auto& [id, snap] : leaves) {
    all.insert(all.end(), snap.entries.begin(), snap.entries.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<std::string> Cluster::CheckTreeStructure() {
  std::vector<std::string> violations;
  // Representative snapshot per logical node.
  std::map<NodeId, NodeSnapshot> nodes;
  int32_t max_level = 0;
  for (auto& p : processors_) {
    p->store().ForEach([&](const Node& node) {
      nodes.try_emplace(node.id(), node.ToSnapshot());
      max_level = std::max(max_level, node.level());
    });
  }
  // Per level: ranges must chain [0 .. inf) along right links.
  for (int32_t level = 0; level <= max_level; ++level) {
    const NodeSnapshot* cur = nullptr;
    for (auto& [id, snap] : nodes) {
      if (snap.level == level && snap.range.low == 0) {
        if (cur != nullptr) {
          violations.push_back("level " + std::to_string(level) +
                               ": two leftmost nodes");
        }
        cur = &snap;
      }
    }
    if (cur == nullptr) {
      violations.push_back("level " + std::to_string(level) +
                           ": no leftmost node");
      continue;
    }
    std::set<NodeId> seen;
    while (true) {
      if (!seen.insert(cur->id).second) {
        violations.push_back("level " + std::to_string(level) +
                             ": right-link cycle at " + cur->id.ToString());
        break;
      }
      if (cur->range.high == kKeyInfinity) break;
      if (cur->right_low != cur->range.high) {
        violations.push_back(cur->id.ToString() +
                             ": right_low != range.high");
      }
      auto it = nodes.find(cur->right);
      if (it == nodes.end()) {
        violations.push_back(cur->id.ToString() + ": dangling right link");
        break;
      }
      if (it->second.range.low != cur->range.high) {
        violations.push_back(cur->id.ToString() + " -> " +
                             it->second.id.ToString() +
                             ": range gap/overlap");
        break;
      }
      cur = &it->second;
    }
  }
  // Interior entries must point at existing nodes one level down.
  for (auto& [id, snap] : nodes) {
    if (snap.level == 0) continue;
    for (const Entry& e : snap.entries) {
      auto it = nodes.find(NodeId{e.payload});
      if (it == nodes.end()) {
        violations.push_back(id.ToString() + ": child " +
                             NodeId{e.payload}.ToString() + " missing");
      } else if (it->second.level != snap.level - 1) {
        violations.push_back(id.ToString() + ": child level mismatch");
      }
    }
  }
  return violations;
}

}  // namespace lazytree
