// C1 — §1 claim: "If the root node is not replicated, it becomes a
// bottleneck and overwhelms the node that stores it."
//
// Each simulated processor executes actions serially (the paper's node
// manager model), so the processor with the most actions determines the
// parallel makespan. We run an identical search-heavy workload and
// measure how the action load concentrates: with a single-copy index,
// one processor handles nearly everything; with the dB-tree replication
// policy the load spreads and the achievable speedup tracks the cluster
// size. (Load per processor, not wall clock, is the scaling metric: it
// does not depend on how many cores the host running the sim has.)

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct LoadProfile {
  uint64_t total_actions = 0;
  uint64_t max_actions = 0;
  double implied_speedup() const {
    return max_actions ? static_cast<double>(total_actions) / max_actions
                       : 0;
  }
  double max_share() const {
    return total_actions
               ? static_cast<double>(max_actions) / total_actions
               : 0;
  }
};

LoadProfile RunOne(uint32_t processors, uint32_t interior_replication) {
  ClusterOptions o;
  o.processors = processors;
  o.protocol = ProtocolKind::kSemiSyncSplit;
  o.transport = TransportKind::kSim;
  o.seed = 7;
  o.tree.max_entries = 16;
  o.tree.interior_replication = interior_replication;
  o.tree.track_history = false;
  Cluster cluster(o);
  cluster.Start();
  workload::UniformDist keys(bench::kKeySpace);
  workload::Load(cluster, bench::InsertSearch(&keys, 3000, 1.0, 7));

  std::vector<uint64_t> before(processors);
  for (ProcessorId id = 0; id < processors; ++id) {
    before[id] = cluster.processor(id).actions_handled();
  }
  workload::Drive(cluster, bench::InsertSearch(&keys, 8000,
                                              /*insert_fraction=*/0.05, 3,
                                              /*window=*/64));
  LoadProfile profile;
  for (ProcessorId id = 0; id < processors; ++id) {
    uint64_t handled = cluster.processor(id).actions_handled() - before[id];
    profile.total_actions += handled;
    profile.max_actions = std::max(profile.max_actions, handled);
  }
  return profile;
}

void Run() {
  bench::Banner(
      "C1", "§1 — the unreplicated root is a bottleneck",
      "Per-processor action load under a search-heavy workload. Each\n"
      "processor is serial, so max load = makespan: a single-copy index\n"
      "concentrates the work; replication spreads it.");

  bench::Table table({"processors", "x1 max-share", "x1 speedup",
                      "repl max-share", "repl speedup"});
  table.Header();
  for (uint32_t p : {1u, 2u, 4u, 8u, 16u}) {
    LoadProfile single = RunOne(p, 1);
    LoadProfile everywhere = RunOne(p, 0);
    table.Row({std::to_string(p),
               bench::Fmt("%.0f%%", 100 * single.max_share()),
               bench::Fmt("%.2fx", single.implied_speedup()),
               bench::Fmt("%.0f%%", 100 * everywhere.max_share()),
               bench::Fmt("%.2fx", everywhere.implied_speedup())});
  }
  std::printf(
      "\nShape check: with the index unreplicated, one processor's share\n"
      "stays high and the achievable speedup flattens; with the dB-tree\n"
      "policy, load spreads and speedup tracks the processor count.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
