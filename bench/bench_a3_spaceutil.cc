// A3 — ablation for the never-merge design choice.
//
// The paper's dB-tree "never merges nodes and performs data balancing on
// leaf nodes (we have previously found that never merging nodes results
// in little loss in space utilization [11])". This bench measures that
// premise on our implementation: leaf space utilization through grow,
// steady-churn, and shrink phases under free-at-empty deletes.

#include <set>

#include "bench/bench_util.h"

namespace lazytree {
namespace {

struct Util {
  size_t leaves = 0;
  size_t keys = 0;
  double utilization = 0;  // keys / (leaves * capacity)
};

Util Measure(Cluster& cluster, size_t capacity) {
  Util u;
  std::set<NodeId> seen;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (!n.is_leaf() || !seen.insert(n.id()).second) return;
      ++u.leaves;
      u.keys += n.size();
    });
  }
  u.utilization = u.leaves
                      ? static_cast<double>(u.keys) /
                            (static_cast<double>(u.leaves) * capacity)
                      : 0;
  return u;
}

void Run() {
  bench::Banner(
      "A3", "[11] — free-at-empty space utilization (design ablation)",
      "Nodes are never merged; deletes leave slack behind. [11] found the\n"
      "loss modest — measured here across grow / churn / shrink phases\n"
      "(B-trees with inserts only sit near ln 2 = 0.69).");

  constexpr size_t kCapacity = 16;
  Cluster cluster(
      bench::SimOptions(4, ProtocolKind::kSemiSyncSplit, kCapacity, 11));
  cluster.Start();

  bench::Table table({"phase              ", "keys ", "leaves", "utilization"});
  table.Header();
  Rng rng(3);
  std::vector<Key> live;

  auto insert_n = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      Key k = rng.Range(1, 1ull << 40);
      cluster.InsertAsync(static_cast<ProcessorId>(i % 4), k, 1,
                          [](const OpResult&) {});
      live.push_back(k);
      if (i % 256 == 0) cluster.Settle();
    }
    cluster.Settle();
  };
  auto delete_n = [&](size_t n) {
    for (size_t i = 0; i < n && !live.empty(); ++i) {
      size_t pick = rng.Below(live.size());
      cluster.DeleteAsync(static_cast<ProcessorId>(i % 4), live[pick],
                          [](const OpResult&) {});
      live[pick] = live.back();
      live.pop_back();
      if (i % 256 == 0) cluster.Settle();
    }
    cluster.Settle();
  };
  auto report = [&](const char* phase) {
    Util u = Measure(cluster, kCapacity);
    table.Row({phase, bench::FmtU(u.keys), bench::FmtU(u.leaves),
               bench::Fmt("%.2f", u.utilization)});
  };

  insert_n(8000);
  report("grow to 8k");
  for (int round = 0; round < 4; ++round) {
    delete_n(2000);
    insert_n(2000);
  }
  report("churn 4x(-2k,+2k)");
  delete_n(6000);
  report("shrink to 2k");
  insert_n(6000);
  report("regrow to 8k");

  std::printf(
      "\nShape check: insert-only utilization lands near ln2 (0.69);\n"
      "churn at constant size costs a handful of points (the [11]\n"
      "premise); only a deliberate 4x shrink leaves real slack, and\n"
      "regrowth reclaims it by refilling emptied nodes.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
