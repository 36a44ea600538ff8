// C3 — §1.1 claim: "the dB-tree not only supports concurrent read actions
// on different copies of its nodes, it supports concurrent reads and
// updates, and also concurrent updates."
//
// Mixed read/update load focused on a small hot key range (maximizing
// same-node contention). Lazy updates never block a search; the vigorous
// baseline's per-update AAS defers reads at every locked copy. We measure
// mixed throughput and the number of reader deferrals.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct Mixed {
  double ops_per_sec = 0;
  uint64_t lock_rounds = 0;  // vigorous lock messages (each defers reads)
};

Mixed RunOne(ProtocolKind protocol, double insert_fraction) {
  ClusterOptions o;
  o.processors = 6;
  o.protocol = protocol;
  o.transport = TransportKind::kThreads;
  o.tree.max_entries = 24;
  o.tree.leaf_replication = 3;  // hot leaves are replicated
  o.tree.track_history = false;
  Cluster cluster(o);
  cluster.Start();

  // Hot range: all traffic within [1, 50'000] so node-level contention
  // is real.
  workload::UniformDist keys(50001);
  const workload::DriveResult result = workload::Drive(
      cluster, bench::InsertSearch(&keys, 12000, insert_fraction, 41));
  Mixed out;
  out.ops_per_sec = result.OpsPerSec();
  out.lock_rounds = result.net.ActionCount(ActionKind::kVigorousLock);
  return out;
}

void Run() {
  bench::Banner(
      "C3", "§1.1 — concurrent reads + updates on one node's copies",
      "Hot-range mixed workload: lazy updates serve reads during updates\n"
      "(zero read blocking); the vigorous AAS locks every copy per update\n"
      "and defers reads meanwhile.");

  bench::Table table({"insert_frac", "lazy ops/s", "vigorous ops/s",
                      "speedup", "vig lock msgs"});
  table.Header();
  for (double frac : {0.1, 0.3, 0.5}) {
    Mixed lazy = RunOne(ProtocolKind::kSemiSyncSplit, frac);
    Mixed vig = RunOne(ProtocolKind::kVigorous, frac);
    table.Row({bench::Fmt("%.0f%%", frac * 100),
               bench::Fmt("%.0f", lazy.ops_per_sec),
               bench::Fmt("%.0f", vig.ops_per_sec),
               bench::Fmt("%.2fx", lazy.ops_per_sec / vig.ops_per_sec),
               bench::FmtU(vig.lock_rounds)});
  }
  std::printf(
      "\nShape check: the lazy advantage grows with the update fraction —\n"
      "each vigorous update stalls reads at every copy it locks.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
