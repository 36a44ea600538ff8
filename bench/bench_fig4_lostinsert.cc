// F4 — Fig. 4 (the lost-insert problem).
//
// "If S1 reduces the range of the node to exclude I4's key, then I4's key
// is lost." The naive protocol (PC ignores out-of-range relayed inserts)
// silently loses exactly one key per dropped leaf relay; the paper's
// semi-synchronous protocol rewrites history and loses nothing — on the
// identical adversarial workload.

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct Outcome {
  size_t inserted = 0;
  size_t stored = 0;
  uint64_t leaf_drops = 0;
};

Outcome RunOne(ProtocolKind protocol, uint64_t seed) {
  ClusterOptions o = bench::SimOptions(5, protocol, 4, seed);  // split often
  o.tree.leaf_replication = 3;  // client inserts are themselves relayed
  Cluster cluster(o);
  cluster.Start();

  Rng rng(seed * 77 + 1);
  std::set<Key> keys;
  while (keys.size() < 800) keys.insert(rng.Range(1, 1ull << 40));
  size_t i = 0;
  for (Key k : keys) {
    cluster.InsertAsync(static_cast<ProcessorId>(i++ % 5), k, 1,
                        [](const OpResult&) {});
  }
  cluster.Settle();

  Outcome out;
  out.inserted = keys.size();
  out.stored = cluster.DumpLeaves().size();
  out.leaf_drops = cluster.NetStats().dropped_leaf_relays;
  return out;
}

void Run() {
  bench::Banner(
      "F4", "Fig. 4 — the lost-insert problem",
      "Same workload, two protocols: the strawman drops out-of-range\n"
      "relays at the PC (lost keys); semi-synchronous rewriting loses\n"
      "nothing.");

  bench::Table table({"seed", "naive_lost", "naive_drops", "semisync_lost"});
  table.Header();
  uint64_t total_naive_lost = 0, total_semi_lost = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Outcome naive = RunOne(ProtocolKind::kNaive, seed);
    Outcome semi = RunOne(ProtocolKind::kSemiSyncSplit, seed);
    table.Row({std::to_string(seed),
               bench::FmtU(naive.inserted - naive.stored),
               bench::FmtU(naive.leaf_drops),
               bench::FmtU(semi.inserted - semi.stored)});
    total_naive_lost += naive.inserted - naive.stored;
    total_semi_lost += semi.inserted - semi.stored;
  }
  std::printf(
      "\nShape check: naive lost %llu keys across seeds (= its dropped\n"
      "leaf relays); semi-synchronous lost %llu.\n",
      (unsigned long long)total_naive_lost,
      (unsigned long long)total_semi_lost);
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
