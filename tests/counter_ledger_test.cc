// The counter ledger (src/net/stats.h): every counter in the system lives
// in one per-processor shard of one enum-indexed table.
//
//   * Pinned values: a fixed-seed sim run over lossy links fires every
//     network and reliable-layer counter. The expected string was read,
//     before the ledger existed, from the named NetworkStats atomics and
//     from each Processor's own actions_handled counter; a count lost,
//     double-counted or written to the wrong processor's shard changes
//     it. The protocol counters are pinned the same way in their
//     protocols' tests, and link_down in reliable_net_test.
//   * Threads: workers, client threads and Settle's foreign-thread flush
//     of held relays all write the ledger at once; the totals must still
//     balance exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::RandomKeys;
using testing::SimOptions;

TEST(CounterLedger, ReliableLayerOverLossyLinks) {
  ClusterOptions o = SimOptions(ProtocolKind::kSemiSyncSplit, 4, 5,
                                /*fanout=*/4);
  o.tree.leaf_replication = 2;
  o.piggyback_window = 4;
  o.faults.drop = 0.05;
  o.faults.duplicate = 0.02;
  o.faults.seed = 9;
  o.reliable = true;
  Cluster cluster(o);
  cluster.Start();
  const std::vector<Key> keys = RandomKeys(300, 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    cluster.InsertAsync(static_cast<ProcessorId>(i % 4), keys[i], keys[i],
                        [](const OpResult&) {});
  }
  ASSERT_TRUE(cluster.Settle());
  std::string ledger = cluster.NetStats().ToString() + " actions_handled@p=";
  for (ProcessorId p = 0; p < 4; ++p) {
    if (p > 0) ledger += ',';
    ledger += std::to_string(cluster.processor(p).actions_handled());
  }
  EXPECT_EQ(ledger,
            "remote_messages=2449 local_messages=510"
            " piggybacked_actions=572 combined_actions=2842"
            " fastpath_reads=5698 retransmits=144 duplicates_dropped=81"
            " acks_piggybacked=1273 pure_acks=39 actions_handled=5618"
            " insert_op=3704 return_value=227 Insert=390 insert=907"
            " split=299 create_node=372 root_hint=16"
            " actions_handled@p=1364,1237,1517,1500");
}

// Workers count sends and handled actions, client threads' ops are
// counted by the workers that drain them, and Settle's flush of held
// relays counts from the test thread into the senders' shards while
// their workers wake and count too. Every action sent is handled exactly
// once, so the two sides of the ledger must balance.
TEST(CounterLedger, ThreadsBalanceSentAndHandledActions) {
  ClusterOptions o;
  o.processors = 4;
  o.transport = TransportKind::kThreads;
  o.tree.max_entries = 8;
  o.tree.leaf_replication = 2;  // leaf relays for the outbox to hold
  o.tree.track_history = false;
  o.piggyback_window = 8;
  Cluster cluster(o);
  cluster.Start();

  constexpr uint32_t kClients = 4;
  constexpr uint32_t kOpsPerClient = 400;
  constexpr int kRounds = 3;
  std::atomic<uint64_t> completed{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (uint32_t i = 0; i < kOpsPerClient; ++i) {
          const Key key = 1 + (round * kClients + c) * kOpsPerClient + i;
          cluster.InsertAsync(c, key, key, [&](const OpResult&) {
            completed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ASSERT_TRUE(cluster.Settle());
    ASSERT_EQ(completed.load(std::memory_order_relaxed),
              uint64_t{kClients} * kOpsPerClient * (round + 1));
  }

  const net::StatsSnapshot total = cluster.NetStats();
  ASSERT_GT(total.piggybacked_actions, 0u)
      << "no relay was held, so Settle flushed nothing";
  uint64_t sent = 0;
  for (uint64_t n : total.actions_by_kind) sent += n;
  EXPECT_EQ(total.actions_handled, sent);
}

}  // namespace
}  // namespace lazytree
