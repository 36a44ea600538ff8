// C2 — §1/§3 claim: lazy updates make replica maintenance cheap; the
// alternative (an available-copies / AAS round per update) is
// prohibitively expensive.
//
// Insert-only workload on replicated leaves, lazy semi-synchronous
// protocol vs. the vigorous lock-all-copies baseline, sweeping the
// replication factor. The claim is about message rounds, so it is
// measured on the sim: first in queue mode (no link latency), where the
// counts are the protocols' round structure, then with timed links,
// where in-flight relays race splits. One threads row is indicative only.
// Exits 1 when the queue-mode ratio falls below 2.5x at any copy count.

#include "bench/bench_util.h"
#include "src/util/affinity.h"

namespace lazytree {
namespace {

struct Cost {
  double msgs_per_insert = 0;
  double rewrites_per_insert = 0;  // §4.1.2 rewrite-and-forwards (lazy)
  Histogram latency_us;
  double ops_per_sec = 0;  // threads only: wall clock
};

Cost RunOne(ProtocolKind protocol, uint32_t copies, TransportKind transport,
            uint64_t latency_us = 0, uint64_t jitter_us = 0) {
  ClusterOptions o = bench::SimOptions(copies, protocol, 16);
  o.transport = transport;
  o.sim_latency_us = latency_us;
  o.sim_jitter_us = jitter_us;
  o.tree.leaf_replication = copies;
  // The history log marks each rewritten relay; only the sim's lazy runs
  // need it.
  o.tree.track_history = transport == TransportKind::kSim &&
                         protocol == ProtocolKind::kSemiSyncSplit;
  Cluster cluster(o);
  cluster.Start();
  workload::UniformDist keys(bench::kKeySpace);
  const workload::DriveResult result = workload::Drive(
      cluster, bench::InsertSearch(&keys, 1500 * copies,
                                   /*insert_fraction=*/1.0, 11));
  Cost cost;
  cost.msgs_per_insert = result.PerOp(result.net.remote_messages);
  cost.latency_us = result.latency_us;
  cost.ops_per_sec = result.OpsPerSec();
  // A relay that reaches its node's PC after the PC split the key away is
  // rewritten and sent on as a fresh insert (the other copies just log
  // theirs as discarded).
  uint64_t rewrites = 0;
  for (const auto& [copy, history] : cluster.history_log().Copies()) {
    for (const history::Record& r : history.records) {
      const Node* n = cluster.processor(r.copy).store().Get(r.node);
      rewrites += r.rewritten && n != nullptr && n->pc() == r.copy;
    }
  }
  cost.rewrites_per_insert = result.PerOp(rewrites);
  return cost;
}

bool Run() {
  bench::Banner(
      "C2", "§1 — lazy vs. vigorous replica maintenance",
      "Per-insert message cost: commuting relays (|copies|-1 one-way\n"
      "messages, piggybackable) vs. a lock/ack/apply round (3(|copies|-1))\n"
      "that also blocks readers.");

  // Queue mode (no link latency) first: its rows are the shape check.
  // Then timed links, with insert latency in simulated µs (local hops 1µs).
  bench::Table table({"links     ", "copies", "lazy msgs/ins",
                      "vigorous msgs/ins", "ratio", "lazy rewrites/ins",
                      "lazy p50us", "lazy p99us", "vig p50us", "vig p99us"});
  table.Header();
  struct Links {
    const char* name;
    uint64_t latency_us, jitter_us;
  };
  bool shape_ok = true;
  for (const Links& links : {Links{"queue", 0, 0}, Links{"4us", 4, 0},
                             Links{"200+-100us", 200, 100}}) {
    for (uint32_t copies : {2u, 4u, 8u}) {
      Cost lazy = RunOne(ProtocolKind::kSemiSyncSplit, copies,
                         TransportKind::kSim, links.latency_us,
                         links.jitter_us);
      Cost vig = RunOne(ProtocolKind::kVigorous, copies, TransportKind::kSim,
                        links.latency_us, links.jitter_us);
      const double ratio = vig.msgs_per_insert / lazy.msgs_per_insert;
      if (links.latency_us == 0) shape_ok = shape_ok && ratio >= 2.5;
      auto us = [&](double v) {
        return links.latency_us ? bench::Fmt("%.0f", v) : "-";
      };
      table.Row({links.name, std::to_string(copies),
                 bench::Fmt("%.2f", lazy.msgs_per_insert),
                 bench::Fmt("%.2f", vig.msgs_per_insert),
                 bench::Fmt("%.2fx", ratio),
                 bench::Fmt("%.2f", lazy.rewrites_per_insert),
                 us(lazy.latency_us.P50()), us(lazy.latency_us.P99()),
                 us(vig.latency_us.P50()), us(vig.latency_us.P99())});
    }
  }

  const uint32_t cores = AvailableCpus();
  const uint32_t copies = std::min(4u, cores);
  if (copies >= 2) {
    std::printf("\nIndicative (threads, %u processors on %u cores; wall "
                "clock):\n", copies, cores);
    bench::Table threads({"copies", "lazy ops/s", "vigorous ops/s",
                          "speedup"});
    threads.Header();
    Cost lazy = RunOne(ProtocolKind::kSemiSyncSplit, copies,
                       TransportKind::kThreads);
    Cost vig =
        RunOne(ProtocolKind::kVigorous, copies, TransportKind::kThreads);
    threads.Row({std::to_string(copies),
                 bench::Fmt("%.0f", lazy.ops_per_sec),
                 bench::Fmt("%.0f", vig.ops_per_sec),
                 bench::Fmt("%.2fx", lazy.ops_per_sec / vig.ops_per_sec)});
  }

  std::printf(
      "\nShape check: in queue mode the vigorous baseline pays >= 2.5x the\n"
      "messages per insert at every copy count (3(c-1) vs c-1): %s\n",
      shape_ok ? "ok" : "FAILED");
  return shape_ok;
}

}  // namespace
}  // namespace lazytree

int main() { return lazytree::Run() ? 0 : 1; }
