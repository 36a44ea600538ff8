// C4 — §1.1 claim: "the lazy update can be piggybacked onto messages used
// for other purposes, greatly reducing the cost of replication
// management."
//
// Relayed updates commute, so they can ride later messages for free.
// Sweep the piggyback window and measure real network messages and bytes
// per operation on an insert-heavy replicated workload.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

void Run() {
  bench::Banner(
      "C4", "§1.1 — piggybacking relayed updates",
      "Commuting relays buffered per destination and flushed onto the\n"
      "next message for that destination: same correctness, fewer\n"
      "messages on the wire.");

  bench::Table table({"window", "remote msgs/op", "bytes/op",
                      "piggybacked", "correct"});
  table.Header();

  for (size_t window : {size_t{0}, size_t{2}, size_t{8}, size_t{32}}) {
    ClusterOptions o;
    o.processors = 6;
    o.protocol = ProtocolKind::kSemiSyncSplit;
    o.transport = TransportKind::kSim;
    o.seed = 5;
    o.tree.max_entries = 8;
    o.tree.leaf_replication = 3;
    o.tree.track_history = true;
    o.piggyback_window = window;
    Cluster cluster(o);
    cluster.Start();

    workload::UniformDist keys(bench::kKeySpace);
    const workload::DriveResult result = workload::Drive(
        cluster, bench::InsertSearch(&keys, 5000, /*insert_fraction=*/0.8,
                                     17));
    auto report = cluster.VerifyHistories();
    uint64_t piggybacked =
        window == 0 ? 0 : cluster.network().stats().Snapshot()
                              .piggybacked_actions;
    table.Row({window == 0 ? "off" : std::to_string(window),
               bench::Fmt("%.2f", result.PerOp(result.net.remote_messages)),
               bench::Fmt("%.0f", result.PerOp(result.net.remote_bytes)),
               bench::FmtU(piggybacked), report.ok() ? "yes" : "NO"});
    if (!report.ok()) std::printf("%s\n", report.ToString().c_str());
  }
  std::printf(
      "\nShape check: messages per op fall as the window grows while the\n"
      "history checks keep passing — delaying commuting relays is free.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
