// F2 — Fig. 2 (the dB-tree replication policy).
//
// "The dB-tree replication policy stores the root everywhere, the leaves
// at a single processor, and the intermediate nodes at a moderate level
// of replication. [...] an operation can perform much of its searching
// locally, reducing the number of messages passed."
//
// Sweep the interior replication factor on a fixed 8-processor cluster
// and measure how many hops a search serves locally vs. remotely.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

void Run() {
  bench::Banner(
      "F2", "Fig. 2 — replication policy and search locality",
      "More interior replication -> more local hops and fewer messages\n"
      "per search; the root-everywhere policy lets every processor start\n"
      "operations locally.");

  bench::Table table({"interior_repl", "remote_msgs/op", "local_msgs/op",
                      "local_frac", "hops_p50", "hops_p99"});
  table.Header();

  for (uint32_t repl : {1u, 2u, 4u, 8u}) {
    ClusterOptions o;
    o.processors = 8;
    o.protocol = ProtocolKind::kSemiSyncSplit;
    o.transport = TransportKind::kSim;
    o.seed = 3;
    o.tree.max_entries = 8;
    o.tree.track_history = false;
    o.tree.interior_replication = repl;
    Cluster cluster(o);
    cluster.Start();
    workload::UniformDist keys(bench::kKeySpace);
    workload::Load(cluster, bench::InsertSearch(&keys, 4000, 1.0, 77));

    const workload::DriveResult result = workload::Drive(
        cluster, bench::InsertSearch(&keys, 8000, /*insert_fraction=*/0.0,
                                     21));
    const double local = static_cast<double>(result.net.local_messages);
    const double remote = static_cast<double>(result.net.remote_messages);
    table.Row({repl == 8 ? "8 (=P, everywhere)" : std::to_string(repl),
               bench::Fmt("%.2f", remote / result.ops()),
               bench::Fmt("%.2f", local / result.ops()),
               bench::Fmt("%.2f", local / (local + remote)),
               bench::Fmt("%.0f", result.hops.P50()),
               bench::Fmt("%.0f", result.hops.P99())});
  }
  std::printf(
      "\nShape check: remote messages per search fall monotonically as\n"
      "interior replication rises (the Fig.-2 locality claim).\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
