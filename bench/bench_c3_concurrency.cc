// C3 — §1.1 claim: "the dB-tree not only supports concurrent read actions
// on different copies of its nodes, it supports concurrent reads and
// updates, and also concurrent updates."
//
// Mixed read/update load focused on a small hot key range (maximizing
// same-node contention). Lazy updates never block a search; the vigorous
// baseline's per-update AAS defers reads at every locked copy. The claim
// is about blocking, not CPU, so it is measured on the timestamped sim
// (200µs ± 100 one-way links): throughput in ops per simulated second
// and op latency in simulated µs. One threads row is indicative only.
// Exits 1 unless the lazy/vigorous ratio rises with the write fraction.

#include "bench/bench_util.h"
#include "src/util/affinity.h"

namespace lazytree {
namespace {

struct Mixed {
  double ops_per_sec = 0;  // per simulated second on the sim, wall on threads
  double latency_mean = 0;  // bimodal (local vs remote hops): mean, not p50
  uint64_t lock_rounds = 0;  // vigorous lock messages (each defers reads)
};

Mixed RunOne(ProtocolKind protocol, double insert_fraction,
             TransportKind transport, uint32_t processors = 6) {
  ClusterOptions o = bench::SimOptions(processors, protocol, 24);
  o.transport = transport;
  o.sim_latency_us = 200;
  o.sim_jitter_us = 100;
  o.tree.leaf_replication = 3;  // hot leaves are replicated
  Cluster cluster(o);
  cluster.Start();

  // Hot range: all traffic within [1, 50'000] so node-level contention
  // is real.
  workload::UniformDist keys(50001);
  const uint64_t start_us = cluster.sim() ? cluster.sim()->NowUs() : 0;
  const workload::DriveResult result = workload::Drive(
      cluster, bench::InsertSearch(&keys, 12000, insert_fraction, 41));
  return {cluster.sim()
              ? 1e6 * result.ops() / (cluster.sim()->NowUs() - start_us)
              : result.OpsPerSec(),
          result.latency_us.mean(),
          result.net.ActionCount(ActionKind::kVigorousLock)};
}

bool Run() {
  bench::Banner(
      "C3", "§1.1 — concurrent reads + updates on one node's copies",
      "Hot-range mixed workload: lazy updates serve reads during updates\n"
      "(zero read blocking); the vigorous AAS locks every copy per update\n"
      "and defers reads meanwhile.");

  std::printf("Sim, 6 processors, 200us +-100 links (simulated time):\n");
  bench::Table table({"insert_frac", "lazy ops/sim-s", "vig ops/sim-s",
                      "speedup", "lazy mean us", "vig mean us",
                      "vig lock msgs"});
  table.Header();
  bool shape_ok = true;
  double last_speedup = 0;
  for (double frac : {0.1, 0.3, 0.5}) {
    Mixed lazy = RunOne(ProtocolKind::kSemiSyncSplit, frac,
                        TransportKind::kSim);
    Mixed vig = RunOne(ProtocolKind::kVigorous, frac, TransportKind::kSim);
    const double speedup = lazy.ops_per_sec / vig.ops_per_sec;
    shape_ok = shape_ok && speedup > last_speedup;
    last_speedup = speedup;
    table.Row({bench::Fmt("%.0f%%", frac * 100),
               bench::Fmt("%.0f", lazy.ops_per_sec),
               bench::Fmt("%.0f", vig.ops_per_sec),
               bench::Fmt("%.2fx", speedup),
               bench::Fmt("%.0f", lazy.latency_mean),
               bench::Fmt("%.0f", vig.latency_mean),
               bench::FmtU(vig.lock_rounds)});
  }

  const uint32_t cores = AvailableCpus();
  const uint32_t processors = std::min(4u, cores);
  if (processors >= 3) {
    std::printf("\nIndicative (threads, %u processors on %u cores; wall "
                "clock):\n", processors, cores);
    bench::Table threads(
        {"insert_frac", "lazy ops/s", "vigorous ops/s", "speedup"});
    threads.Header();
    Mixed lazy = RunOne(ProtocolKind::kSemiSyncSplit, 0.3,
                        TransportKind::kThreads, processors);
    Mixed vig =
        RunOne(ProtocolKind::kVigorous, 0.3, TransportKind::kThreads,
               processors);
    threads.Row({"30%", bench::Fmt("%.0f", lazy.ops_per_sec),
                 bench::Fmt("%.0f", vig.ops_per_sec),
                 bench::Fmt("%.2fx", lazy.ops_per_sec / vig.ops_per_sec)});
  }

  std::printf(
      "\nShape check: the lazy advantage grows with the update fraction —\n"
      "each vigorous update stalls reads at every copy it locks: %s\n",
      shape_ok ? "ok" : "FAILED");
  return shape_ok;
}

}  // namespace
}  // namespace lazytree

int main() { return lazytree::Run() ? 0 : 1; }
