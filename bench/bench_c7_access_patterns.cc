// C7 — access-pattern sensitivity (supplementary experiment).
//
// The dB-tree's costs depend on *where* the traffic goes:
//   * sequential ingest concentrates every insert on the rightmost leaf
//     — the load-balancing motivation of [14]; online shedding
//     (§4.2/§4.3) spreads it;
//   * Zipfian reads concentrate on a few hot paths, which interior
//     replication serves locally;
//   * uniform traffic is the neutral baseline.
// Reported per pattern: per-processor load concentration (serial-
// processor makespan model) and messages per op, with and without the
// countermeasure the paper proposes.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct PatternResult {
  double max_share = 0;  // hottest processor's fraction of all actions
  double msgs_per_op = 0;
};

PatternResult RunPattern(const std::string& pattern, bool countermeasure,
                         uint64_t seed) {
  ClusterOptions o = bench::SimOptions(6, ProtocolKind::kVarCopies, 8, seed);
  if (countermeasure) o.tree.shed_threshold = 6;  // online balancing
  Cluster cluster(o);
  cluster.Start();

  std::vector<uint64_t> before(o.processors);
  for (ProcessorId id = 0; id < o.processors; ++id) {
    before[id] = cluster.processor(id).actions_handled();
  }
  auto keys = workload::MakeDistribution(pattern, 1u << 30);
  const workload::DriveResult run = workload::Drive(
      cluster, bench::InsertSearch(keys.get(), 5000, 0.6, seed + 1));

  PatternResult result;
  uint64_t total = 0, max_handled = 0;
  for (ProcessorId id = 0; id < o.processors; ++id) {
    uint64_t handled = cluster.processor(id).actions_handled() - before[id];
    total += handled;
    max_handled = std::max(max_handled, handled);
  }
  result.max_share = total ? double(max_handled) / total : 0;
  result.msgs_per_op = run.PerOp(run.net.remote_messages);
  return result;
}

void Run() {
  bench::Banner(
      "C7", "supplementary — access-pattern sensitivity ([14] motivation)",
      "Sequential ingest overloads the rightmost-leaf owner unless leaves\n"
      "shed; skewed reads ride the replicated interior. max-share = the\n"
      "hottest processor's fraction of all executed actions (1/6 = 0.17\n"
      "is perfectly even on 6 processors).");

  bench::Table table({"pattern   ", "max-share", "msgs/op",
                      "max-share (shedding)", "msgs/op (shedding)"});
  table.Header();
  for (const char* pattern :
       {"uniform", "sequential", "zipfian", "hotspot"}) {
    PatternResult plain = RunPattern(pattern, false, 3);
    PatternResult shed = RunPattern(pattern, true, 3);
    table.Row({pattern, bench::Fmt("%.2f", plain.max_share),
               bench::Fmt("%.2f", plain.msgs_per_op),
               bench::Fmt("%.2f", shed.max_share),
               bench::Fmt("%.2f", shed.msgs_per_op)});
  }
  std::printf(
      "\nShape check: sequential ingest shows the worst concentration\n"
      "without shedding and the biggest improvement with it; uniform is\n"
      "near-even either way.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
