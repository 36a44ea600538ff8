// elastic_replicas: the full dB-tree (§4.3) with variable copies.
//
// Demonstrates the Fig.-2 replication policy maintained *by protocol*:
// processors join a node's replication when they acquire leaves beneath
// it and unjoin when the leaves move away. The run prints the replication
// factor per tree level as data spreads and then shrinks back.
//
//   $ ./build/examples/elastic_replicas

#include <cstdio>
#include <map>

#include "src/core/balancer.h"
#include "src/core/dbtree.h"
#include "src/util/rng.h"

namespace {

void PrintReplication(lazytree::Cluster& cluster, const char* label) {
  using namespace lazytree;
  std::map<int32_t, std::pair<size_t, size_t>> by_level;  // copies, nodes
  std::map<NodeId, bool> seen;
  for (ProcessorId id = 0; id < cluster.size(); ++id) {
    cluster.processor(id).store().ForEach([&](const Node& n) {
      auto& [copies, nodes] = by_level[n.level()];
      ++copies;
      if (!seen[n.id()]) {
        seen[n.id()] = true;
        ++nodes;
      }
    });
  }
  std::printf("%s replication by level:", label);
  for (auto it = by_level.rbegin(); it != by_level.rend(); ++it) {
    auto [copies, nodes] = it->second;
    std::printf("  L%d: %zu nodes x%.1f", it->first, nodes,
                nodes ? static_cast<double>(copies) / nodes : 0.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace lazytree;

  ClusterOptions options;
  options.processors = 6;
  options.protocol = ProtocolKind::kVarCopies;
  options.transport = TransportKind::kSim;
  options.tree.max_entries = 8;
  options.seed = 21;

  DBTree tree(options);
  Cluster& cluster = tree.cluster();

  Rng rng(5);
  std::vector<Key> keys;
  for (int i = 0; i < 1500; ++i) {
    Key k = rng.Range(1, 1u << 28);
    if (cluster.Insert(0, k, k).ok()) keys.push_back(k);
  }
  PrintReplication(cluster, "after skewed load (all on p0):");

  // Spread the data: joins follow the leaves (root stays everywhere).
  Balancer balancer(&cluster);
  balancer.RebalanceUntil(1.3);
  PrintReplication(cluster, "after balancing across 6 hosts:");

  // Pull everything onto p0 and p1: the other four unjoin their copies.
  for (ProcessorId id = 2; id < cluster.size(); ++id) {
    std::map<NodeId, ProcessorId> to_move;
    cluster.processor(id).store().ForEach([&](const Node& n) {
      if (n.is_leaf()) to_move[n.id()] = id;
    });
    int i = 0;
    for (auto& [node, host] : to_move) {
      cluster.MigrateNode(node, host, i++ % 2);
    }
  }
  cluster.Settle();
  PrintReplication(cluster, "after shrinking to 2 hosts:");

  const net::StatsSnapshot counters = cluster.NetStats();
  std::printf("joins granted: %llu, unjoins processed: %llu\n",
              (unsigned long long)counters.joins_granted,
              (unsigned long long)counters.unjoins_processed);

  // Everything still readable from everywhere.
  size_t ok = 0;
  for (size_t i = 0; i < keys.size(); i += 11) {
    if (cluster.Search(static_cast<ProcessorId>(i % 6), keys[i]).ok()) ++ok;
  }
  std::printf("%zu/%zu sampled keys reachable\n", ok, (keys.size() + 10) / 11);

  auto report = cluster.VerifyHistories();
  std::printf("history checks: %s\n", report.ToString().c_str());
  return report.ok() ? 0 : 1;
}
