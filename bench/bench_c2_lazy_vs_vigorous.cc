// C2 — §1/§3 claim: lazy updates make replica maintenance cheap; the
// alternative (an available-copies / AAS round per update) is
// prohibitively expensive.
//
// Insert-heavy workload on replicated leaves: messages per insert and
// wall-clock throughput, lazy semi-synchronous protocol vs. the vigorous
// lock-all-copies baseline, sweeping the replication factor.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct Cost {
  double msgs_per_insert = 0;
  double ops_per_sec = 0;
};

Cost RunOne(ProtocolKind protocol, uint32_t copies) {
  ClusterOptions o;
  o.processors = copies;
  o.protocol = protocol;
  o.transport = TransportKind::kThreads;
  o.tree.max_entries = 16;
  o.tree.leaf_replication = copies;
  o.tree.track_history = false;
  Cluster cluster(o);
  cluster.Start();
  workload::UniformDist keys(bench::kKeySpace);
  const workload::DriveResult result = workload::Drive(
      cluster, bench::InsertSearch(&keys, 1500 * copies,
                                   /*insert_fraction=*/1.0, 11));
  Cost cost;
  cost.msgs_per_insert = result.PerOp(result.net.remote_messages);
  cost.ops_per_sec = result.OpsPerSec();
  return cost;
}

void Run() {
  bench::Banner(
      "C2", "§1 — lazy vs. vigorous replica maintenance",
      "Per-insert message cost and throughput: commuting relays\n"
      "(|copies|-1 one-way messages, piggybackable) vs. a lock/ack/apply\n"
      "round (3(|copies|-1)) that also blocks readers.");

  bench::Table table({"copies", "lazy msgs/ins", "vigorous msgs/ins",
                      "ratio", "lazy ops/s", "vigorous ops/s", "speedup"});
  table.Header();
  for (uint32_t copies : {2u, 4u, 8u}) {
    Cost lazy = RunOne(ProtocolKind::kSemiSyncSplit, copies);
    Cost vigorous = RunOne(ProtocolKind::kVigorous, copies);
    table.Row({std::to_string(copies),
               bench::Fmt("%.2f", lazy.msgs_per_insert),
               bench::Fmt("%.2f", vigorous.msgs_per_insert),
               bench::Fmt("%.2fx",
                          vigorous.msgs_per_insert / lazy.msgs_per_insert),
               bench::Fmt("%.0f", lazy.ops_per_sec),
               bench::Fmt("%.0f", vigorous.ops_per_sec),
               bench::Fmt("%.2fx",
                          lazy.ops_per_sec / vigorous.ops_per_sec)});
  }
  std::printf(
      "\nShape check: the vigorous baseline pays ~3x the messages per\n"
      "insert and loses throughput at every replication factor.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
