// F6 — Fig. 6 (incomplete histories due to concurrent joins and inserts).
//
// The figure's race, constructed deterministically:
//   1. processor p1 owns a leaf and a copy of its replicated parent n;
//   2. p1's leaf splits -> p1 performs the pointer insert on its copy of
//      n; the relays to n's other copies are *in flight* (held in the
//      processor's outbox — §1.1 says relays may be arbitrarily delayed);
//   3. processor p3 receives a leaf under n and joins copies(n): the PC
//      grants a snapshot that does NOT contain the insert;
//   4. the delayed relay finally reaches the PC with a version that
//      predates p3's join — the PC re-relays it to p3 (§4.3 step 3a).
// Without the version machinery, p3's copy would be incomplete forever.
// Afterwards, an organic churn phase shows the same machinery holding up
// under randomized load.

#include <map>
#include <set>

#include "bench/bench_util.h"
#include "src/history/checker.h"
#include "src/protocol/varcopies.h"

namespace lazytree {
namespace {

uint64_t TotalRerelays(Cluster& cluster) {
  uint64_t total = 0;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    total += static_cast<VarCopiesProtocol*>(
                 cluster.processor(id).handler())
                 ->late_joiner_rerelays();
  }
  return total;
}

std::map<NodeId, std::pair<ProcessorId, KeyRange>> Leaves(
    Cluster& cluster) {
  std::map<NodeId, std::pair<ProcessorId, KeyRange>> leaves;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (n.is_leaf()) leaves[n.id()] = {id, n.range()};
    });
  }
  return leaves;
}

/// Pumps the sim network dry WITHOUT flushing the relays held in the
/// processors' outboxes (Settle would flush them — that is the step we
/// are delaying).
void PumpBase(Cluster& cluster) {
  while (cluster.sim()->Step()) {
  }
}

void ConstructedRace() {
  ClusterOptions o;
  o.processors = 4;
  o.protocol = ProtocolKind::kVarCopies;
  o.transport = TransportKind::kSim;
  o.seed = 1;
  o.tree.max_entries = 4;
  o.piggyback_window = 100000;  // relays stay held until we say so
  o.tree.track_history = true;
  Cluster cluster(o);
  cluster.Start();

  // Warm: a small tree, everything on p0; flush (Settle) is fine here.
  Rng rng(5);
  std::set<Key> warm;
  while (warm.size() < 60) warm.insert(rng.Range(1000, 1u << 20));
  for (Key k : warm) cluster.Insert(0, k, 1);

  // Step 1: move one leaf to p1 (p1 joins the leaf's path). Choose the
  // rightmost leaf: its interior ancestors are split-off siblings whose
  // membership was pruned back to the leaf owners (the leftmost spine
  // keeps its bootstrap everywhere-copies, which would mask the race).
  auto leaves = Leaves(cluster);
  NodeId moved = kInvalidNode;
  KeyRange moved_range;
  for (auto& [id, info] : leaves) {
    if (!moved.valid() || info.second.low > moved_range.low) {
      moved = id;
      moved_range = info.second;
    }
  }
  cluster.MigrateNode(moved, 0, 1);
  cluster.Settle();

  // Step 2: fill p1's leaf until it splits. The parent pointer insert
  // executes at p1's local parent copy; its relays to the other parent
  // copies are held in p1's outbox and STAY there (no flush).
  Key probe = moved_range.low;
  for (int i = 0; i < 8; ++i) {
    cluster.InsertAsync(1, probe + 1 + i, 7, [](const OpResult&) {});
  }
  PumpBase(cluster);
  size_t buffered = 0;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    buffered += cluster.processor(id).out().deferred();
  }

  // Step 3: a p0-hosted leaf just left of the moved one (same parent)
  // migrates to p3, which joins that parent; the PC's grant snapshot
  // predates the buffered insert. (Sourcing the join from p0 keeps the
  // p1->p0 channel idle, so the delayed relays stay in flight — any
  // direct p1->p0 message would piggyback them home early.)
  NodeId neighbor = kInvalidNode;
  Key best_low = 0;
  for (auto& [id, info] : Leaves(cluster)) {
    if (info.first == 0 && info.second.low < moved_range.low &&
        info.second.low >= best_low) {
      neighbor = id;
      best_low = info.second.low;
    }
  }
  cluster.MigrateNode(neighbor, 0, 3);
  PumpBase(cluster);
  const uint64_t rerelays_before_flush = TotalRerelays(cluster);

  // Step 4: release the delayed relays; the PC must re-relay to p3.
  cluster.Settle();
  const uint64_t rerelays_after = TotalRerelays(cluster);

  auto report = cluster.VerifyHistories();
  std::printf(
      "constructed race: %zu relays delayed in flight; re-relays fired "
      "before flush: %llu, after: %llu; history checks: %s\n\n",
      buffered, (unsigned long long)rerelays_before_flush,
      (unsigned long long)rerelays_after, report.ToString().c_str());
}

void OrganicChurn() {
  bench::Table table({"seed", "joins", "unjoins", "re-relays",
                      "msgs/join", "complete+compatible"});
  table.Header();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ClusterOptions o;
    o.processors = 8;
    o.protocol = ProtocolKind::kVarCopies;
    o.transport = TransportKind::kSim;
    o.seed = seed;
    o.tree.max_entries = 4;
    o.piggyback_window = 8;
    o.tree.track_history = true;
    Cluster cluster(o);
    cluster.Start();
    Rng warm_rng(seed + 50);
    std::set<Key> warm;
    while (warm.size() < 200) warm.insert(warm_rng.Range(1, 1u << 30));
    for (Key k : warm) cluster.Insert(0, k, 1);

    std::map<NodeId, ProcessorId> hosts;
    for (ProcessorId id = 0; id < 8; ++id) {
      cluster.processor(id).store().ForEach([&](const Node& n) {
        if (n.is_leaf()) hosts[n.id()] = id;
      });
    }
    auto before = cluster.NetStats();
    Rng rng(seed);
    std::set<Key> wave;
    while (wave.size() < 600) wave.insert(rng.Range(1, 1u << 30));
    auto it = hosts.begin();
    int i = 0;
    Rng dest_rng(seed);
    for (Key k : wave) {
      cluster.InsertAsync(static_cast<ProcessorId>(i % 8), k, 2,
                          [](const OpResult&) {});
      if (++i % 5 == 0 && it != hosts.end()) {
        cluster.MigrateNode(it->first, it->second,
                            static_cast<ProcessorId>(dest_rng.Below(8)));
        ++it;
      }
    }
    cluster.Settle();
    auto net = cluster.NetStats() - before;

    uint64_t joins = 0, unjoins = 0;
    for (ProcessorId id = 0; id < 8; ++id) {
      auto* var = static_cast<VarCopiesProtocol*>(
          cluster.processor(id).handler());
      joins += var->joins_granted();
      unjoins += var->unjoins_processed();
    }
    const uint64_t join_msgs = net.ActionCount(ActionKind::kJoin) +
                               net.ActionCount(ActionKind::kJoinGrant) +
                               net.ActionCount(ActionKind::kRelayedJoin);
    auto report = cluster.VerifyHistories();
    table.Row({std::to_string(seed), bench::FmtU(joins),
               bench::FmtU(unjoins), bench::FmtU(TotalRerelays(cluster)),
               joins ? bench::Fmt("%.1f", double(join_msgs) / joins) : "-",
               report.ok() ? "yes" : "NO"});
    if (!report.ok()) std::printf("%s\n", report.ToString().c_str());
  }
}

void Run() {
  bench::Banner(
      "F6", "Fig. 6 — joins racing inserts (variable copies)",
      "Every join increments the node version; the PC re-relays inserts\n"
      "attached to older versions to late joiners, so new copies obtain\n"
      "complete histories.");
  ConstructedRace();
  OrganicChurn();
  std::printf(
      "\nShape check: the constructed Fig.-6 interleaving requires the\n"
      "re-relay and still converges; organic churn keeps all three §3\n"
      "requirements green with ~3 messages per join.\n");
}

}  // namespace
}  // namespace lazytree

int main() {
  lazytree::Run();
  return 0;
}
