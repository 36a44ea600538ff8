// C5 — §4.2/[14] claim: lazy node mobility supports effective,
// low-overhead data balancing; forwarding addresses are an optimization
// that can be garbage-collected at any time.
//
// Skewed ingest onto one processor, then rebalance. Reports: imbalance
// before/after, messages per migrated leaf, search cost before/after
// balancing, and the recovery behaviour with forwarding addresses
// dropped.

#include "bench/bench_util.h"
#include "src/core/balancer.h"

namespace lazytree {
namespace {

void Run() {
  bench::Banner(
      "C5", "§4.2 / [14] — lazy mobility enables data balancing",
      "Leaves migrate with one snapshot message + lazy link-changes; the\n"
      "tree serves operations throughout, with or without forwarding\n"
      "addresses.");

  bench::Table table({"protocol", "imbalance pre", "imbalance post",
                      "migrations", "msgs/migration", "hops pre",
                      "hops post", "hops post-GC"});
  table.Header();

  for (ProtocolKind protocol :
       {ProtocolKind::kMobile, ProtocolKind::kVarCopies}) {
    ClusterOptions o;
    o.processors = 6;
    o.protocol = protocol;
    o.transport = TransportKind::kSim;
    o.seed = 9;
    o.tree.max_entries = 8;
    o.tree.track_history = false;
    Cluster cluster(o);
    cluster.Start();

    // Skewed ingest: everything submitted at (and kept on) p0.
    workload::UniformDist keys(bench::kKeySpace);
    workload::DriveSpec ingest = bench::InsertSearch(&keys, 3000, 1.0, 3);
    ingest.home = 0;
    workload::Load(cluster, ingest);

    auto search_cost = [&](uint64_t seed) {
      return workload::Drive(cluster, bench::InsertSearch(&keys, 2000, 0.0,
                                                          seed))
          .hops.mean();
    };

    Balancer balancer(&cluster);
    auto pre = balancer.Measure();
    double hops_pre = search_cost(31);

    auto net_before = cluster.NetStats();
    auto post = balancer.RebalanceUntil(1.3);
    auto net = cluster.NetStats() - net_before;
    const uint64_t migrations = balancer.migrations_issued();
    double hops_post = search_cost(37);

    // Drop every forwarding address; recovery must still route.
    for (ProcessorId id = 0; id < cluster.size(); ++id) {
      cluster.processor(id).store().DropForwardingAddresses();
    }
    double hops_gc = search_cost(41);

    table.Row({ProtocolKindName(protocol),
               bench::Fmt("%.2fx", pre.imbalance),
               bench::Fmt("%.2fx", post.imbalance),
               bench::FmtU(migrations),
               migrations ? bench::Fmt("%.1f", double(net.remote_messages) /
                                                  migrations)
                          : "-",
               bench::Fmt("%.1f", hops_pre),
               bench::Fmt("%.1f", hops_post),
               bench::Fmt("%.1f", hops_gc)});
  }
  std::printf(
      "\nShape check: imbalance drops to ~1x; per-migration cost is a\n"
      "small constant (snapshot + link-changes); searches stay cheap even\n"
      "after the forwarding addresses are garbage-collected.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
