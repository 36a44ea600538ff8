// F3 — Fig. 3 (lazy inserts commute).
//
// The figure's scenario: two children of a replicated parent half-split
// "at about the same time"; the two pointer inserts reach the parent's
// copies in different orders, the copies are transiently inconsistent,
// yet the tree stays navigable and the copies converge without any
// synchronization. We regenerate the scenario at increasing parent copy
// counts and measure deliveries to convergence plus the final checks.

#include "bench/bench_util.h"
#include "src/history/checker.h"

namespace lazytree {
namespace {

/// Uniform keys that remember every insert that completed: the loaded
/// keys the mid-race searches probe.
class LoadedKeys : public workload::UniformDist {
 public:
  LoadedKeys() : UniformDist(bench::kKeySpace) {}
  void Completed(Key key) override { keys.push_back(key); }
  std::vector<Key> keys;
};

void Run() {
  bench::Banner(
      "F3", "Fig. 3 — concurrent lazy inserts on a replicated parent",
      "Simultaneous child splits insert into different parent copies in\n"
      "different orders; copies transiently diverge but converge with no\n"
      "synchronization (compatible histories at quiescence).");

  bench::Table table({"parent_copies", "racing_splits", "deliveries",
                      "relays", "converged", "searchable_during"});
  table.Header();

  for (uint32_t copies : {2u, 4u, 8u}) {
    ClusterOptions o =
        bench::SimOptions(copies, ProtocolKind::kSemiSyncSplit, 6, copies);
    o.tree.track_history = true;
    Cluster cluster(o);
    cluster.Start();
    // A modest tree so leaves hang under replicated interior parents.
    LoadedKeys loaded;
    workload::Load(cluster, bench::InsertSearch(&loaded, 600, 1.0, 5));
    const std::vector<Key>& keys = loaded.keys;

    // Race: enqueue a burst of inserts that will split many leaves
    // "at about the same time", plus concurrent searches that must keep
    // succeeding mid-divergence.
    Rng rng(9);
    uint64_t searches_ok = 0, searches = 0;
    auto before = cluster.NetStats();
    uint64_t delivered_before = cluster.sim()->delivered();
    for (int i = 0; i < 800; ++i) {
      cluster.InsertAsync(static_cast<ProcessorId>(i % copies),
                          rng.Range(1, 1ull << 40), 1,
                          [](const OpResult&) {});
    }
    for (int i = 0; i < 200; ++i) {
      Key probe = keys[rng.Below(keys.size())];
      ++searches;
      cluster.SearchAsync(static_cast<ProcessorId>(i % copies), probe,
                          [&](const OpResult& r) {
                            if (r.status.ok()) ++searches_ok;
                          });
    }
    cluster.Settle();
    auto net = cluster.NetStats() - before;
    uint64_t deliveries = cluster.sim()->delivered() - delivered_before;

    auto report = cluster.VerifyHistories();
    const uint64_t splits = net.ActionCount(ActionKind::kRelayedSplit);
    table.Row({std::to_string(copies), bench::FmtU(splits),
               bench::FmtU(deliveries),
               bench::FmtU(net.ActionCount(ActionKind::kRelayedInsert)),
               report.ok() ? "yes" : "NO",
               bench::Fmt("%.0f%%", 100.0 * searches_ok / searches)});
    if (!report.ok()) {
      std::printf("%s\n", report.ToString().c_str());
    }
  }
  std::printf(
      "\nShape check: every run converges (compatible histories) and all\n"
      "concurrent searches succeed while parent copies disagree.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
