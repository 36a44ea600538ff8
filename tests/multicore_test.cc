// Multi-core execution paths under test: per-processor worker threads
// with the outbox's op combining and the local-replica read fast path
// (both always on), checked three ways —
//
//   * a real-thread hammer with full §3 history tracking (run under the
//     ThreadSanitize build via the `tsan` ctest label), with and without
//     piggybacked relays held in the outboxes until Settle,
//   * schedule-explorer conformance: adversarial sim schedules must still
//     produce §3.1-checker-accepted histories and exact oracle agreement,
//   * the read-your-completed-writes regression that pins the ycsb-d fix:
//     a search for a key whose insert already completed must succeed on
//     the threads transport (BENCH_PR6's not_found=2563 anomaly came from
//     benching reads against *in-flight* inserts; see EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/sim/explorer.h"
#include "src/workload/distributions.h"
#include "tests/test_util.h"

namespace lazytree {
namespace {

using testing::ExpectCorrect;
using testing::ExpectMatchesOracle;
using testing::RandomKeys;

ClusterOptions MulticoreOptions(uint32_t processors, uint64_t seed,
                                TransportKind transport) {
  ClusterOptions o;
  o.processors = processors;
  o.protocol = ProtocolKind::kSemiSyncSplit;
  o.transport = transport;
  o.seed = seed;
  o.tree.max_entries = 8;
  o.tree.track_history = true;
  return o;
}

// Parallel writers + readers, full history tracking, §3 checks and
// oracle comparison at quiescence. The prime TSan target: client threads
// race worker threads through the outbox's owner gate and the fast
// path's inline descent.
TEST(Multicore, ThreadedHammerStaysCorrect) {
  Cluster cluster(
      MulticoreOptions(6, 99, TransportKind::kThreads));
  cluster.Start();
  Oracle oracle;

  constexpr int kClients = 4;
  constexpr int kPerClient = 1200;
  std::vector<Key> keys = RandomKeys(kClients * kPerClient, 42);
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, k + 1).ok());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Key k = keys[c * kPerClient + i];
        if (!cluster.Insert(static_cast<ProcessorId>(c % 6), k, k + 1)
                 .ok()) {
          failures.fetch_add(1);
        }
        // Interleave reads so the fast path races live splits.
        if (i % 3 == 0) {
          cluster.Search(static_cast<ProcessorId>((c + i) % 6),
                         keys[(c * kPerClient + i) / 2]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);

  // Both mechanisms actually fired.
  auto stats = cluster.NetStats();
  EXPECT_GT(stats.combined_actions, 0u);
  EXPECT_GT(stats.fastpath_reads, 0u);
}

// Piggybacked relays on the threads transport: replicated leaves make
// every insert relay, the window keeps relay-only destinations waiting in
// the worker-owned outboxes, and Settle must send what is still held from
// the client thread once the workers are idle (a TSan target: the flush
// crosses threads through the network's quiescence handshake).
TEST(Multicore, PiggybackedRelaysFlushAtSettle) {
  ClusterOptions o = MulticoreOptions(4, 11, TransportKind::kThreads);
  o.tree.leaf_replication = 2;
  o.piggyback_window = 64;
  Cluster cluster(std::move(o));
  cluster.Start();
  Oracle oracle;

  constexpr int kClients = 4;
  constexpr int kPerClient = 400;
  std::vector<Key> keys = RandomKeys(kClients * kPerClient, 12);
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, k).ok());
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Key k = keys[c * kPerClient + i];
        if (!cluster.Insert(static_cast<ProcessorId>(c), k, k).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(cluster.Settle());
  for (ProcessorId p = 0; p < cluster.size(); ++p) {
    EXPECT_EQ(cluster.processor(p).out().deferred(), 0u);
  }
  EXPECT_GT(cluster.NetStats().piggybacked_actions, 0u);
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

// Settle's flush with relays held toward every processor, repeatedly.
// Sending one processor's held relays wakes the workers they go to at
// once, and those workers own their outboxes again, so Settle must have
// emptied every outbox before its first send. The last processor Settle
// visits receives relays from all the others: under TSan a flush that
// reads an outbox after sending to its worker reports a race here.
TEST(Multicore, SettleFlushesRelaysHeldTowardEveryProcessor) {
  constexpr uint32_t kProcessors = 6;
  ClusterOptions o =
      MulticoreOptions(kProcessors, 23, TransportKind::kThreads);
  o.tree.leaf_replication = 3;
  o.piggyback_window = 1 << 20;
  Cluster cluster(std::move(o));
  cluster.Start();
  Oracle oracle;

  constexpr int kRounds = 5;
  constexpr int kPerRound = 240;
  std::vector<Key> keys = RandomKeys(kRounds * kPerRound, 31);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (uint32_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (int i = c; i < kPerRound; i += 4) {
          Key k = keys[round * kPerRound + i];
          if (!cluster.Insert(static_cast<ProcessorId>(i % kProcessors), k,
                              k)
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    for (int i = 0; i < kPerRound; ++i) {
      Key k = keys[round * kPerRound + i];
      ASSERT_TRUE(oracle.Insert(k, k).ok());
    }

    ASSERT_TRUE(
        cluster.network().WaitQuiescent(std::chrono::milliseconds(30000)));
    size_t held = 0;
    for (ProcessorId p = 0; p < kProcessors; ++p) {
      held += cluster.processor(p).out().deferred();
    }
    EXPECT_GT(held, 0u) << "round " << round << ": relays held at Settle";
    ASSERT_TRUE(cluster.Settle());
    for (ProcessorId p = 0; p < kProcessors; ++p) {
      EXPECT_EQ(cluster.processor(p).out().deferred(), 0u);
    }
  }
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

// The fast path answers from local copies and relies on §4.2 side-link
// recovery for staleness; combining re-batches action streams. Neither
// may change what the §3.1 checkers accept. Sweep adversarial schedules:
// every episode must pass the full battery (checkers + structure +
// per-key fates + exact oracle match).
TEST(Multicore, ExplorerEpisodesAcceptCombinedHistories) {
  for (sim::StrategyKind strategy :
       {sim::StrategyKind::kUniform, sim::StrategyKind::kPct,
        sim::StrategyKind::kStarve}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      sim::EpisodeConfig config;
      config.protocol = ProtocolKind::kSemiSyncSplit;
      config.processors = 4;
      config.seed = seed;
      config.strategy.kind = strategy;
      config.strategy.seed = seed * 17;
      config.strategy.pct_depth = 3;
      config.strategy.pct_expected_events = 2048;
      config.strategy.starve_victim =
          static_cast<ProcessorId>(seed % 4);
      sim::EpisodeResult result = sim::RunEpisode(config);
      EXPECT_TRUE(result.ok)
          << sim::StrategyKindName(strategy) << "/seed=" << seed << ": "
          << (result.violations.empty() ? "(no violations)"
                                        : result.violations.front());
      EXPECT_EQ(result.ops_completed, result.ops_submitted);
    }
  }
}

// Sync-split protocol: the combiner must respect AAS-ordered split
// traffic too.
TEST(Multicore, ExplorerSyncSplitEpisodes) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    sim::EpisodeConfig config;
    config.protocol = ProtocolKind::kSyncSplit;
    config.processors = 4;
    config.seed = seed;
    config.strategy.kind = sim::StrategyKind::kUniform;
    config.strategy.seed = seed;
    sim::EpisodeResult result = sim::RunEpisode(config);
    EXPECT_TRUE(result.ok)
        << "seed=" << seed << ": "
        << (result.violations.empty() ? "(no violations)"
                                      : result.violations.front());
  }
}

// Combining on the sim transport stays deterministic: two runs with the
// same seed produce the same schedule, the same message counts, and the
// same tree.
TEST(Multicore, SimWithCombiningIsDeterministic) {
  auto run = [](uint64_t seed) {
    Cluster cluster(MulticoreOptions(4, seed, TransportKind::kSim));
    cluster.Start();
    std::vector<Key> keys = RandomKeys(600, seed);
    for (size_t i = 0; i < keys.size(); ++i) {
      cluster.InsertAsync(static_cast<ProcessorId>(i % 4), keys[i], i,
                          [](const OpResult&) {});
      if (i % 64 == 63) cluster.Settle();
    }
    EXPECT_TRUE(cluster.Settle());
    auto stats = cluster.NetStats();
    return std::make_pair(stats.remote_messages,
                          cluster.DumpLeaves().size());
  };
  EXPECT_EQ(run(7), run(7));
}

// Read-your-completed-writes on the threads transport: once Insert()
// returns OK (the reply is sent only after the leaf applied the write,
// and leaves are single-copy), a Search for that key from ANY processor
// must find it — even with combining and the fast path rewriting the
// message flow. LatestDist models exactly this contract: Publish() is
// called only with completed keys, so Next() never hands out a key a
// search can miss. This is the regression fence for the BENCH_PR6 ycsb-d
// anomaly (reads racing their own in-flight inserts).
TEST(Multicore, ReadYourCompletedWrites) {
  Cluster cluster(
      MulticoreOptions(4, 5, TransportKind::kThreads));
  cluster.Start();

  workload::LatestDist latest(1u << 30);
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kWrites = 1500;
  std::atomic<bool> done{false};
  std::atomic<int> write_failures{0};
  std::atomic<int> stale_reads{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int i = 0; i < kWrites; ++i) {
        Key k = rng.Range(1, 1u << 30);
        Status st =
            cluster.Insert(static_cast<ProcessorId>(w), k, k);
        if (st.ok()) {
          latest.Publish(k);  // completed => publish, the ycsb-d contract
        } else if (!st.IsAlreadyExists()) {
          write_failures.fetch_add(1);
        }
      }
      done.store(true);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    workers.emplace_back([&, r] {
      Rng rng(2000 + r);
      while (!done.load()) {
        Key k = latest.Next(rng);
        if (k == 1) continue;  // ring not seeded yet
        auto res = cluster.Search(
            static_cast<ProcessorId>(2 + r), k);
        if (res.status().IsNotFound()) stale_reads.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(stale_reads.load(), 0)
      << "a search missed a key whose insert had completed";
  ASSERT_TRUE(cluster.Settle());
  ExpectCorrect(cluster);
}

// DeliverBatch opens one outbox scope across a whole drained inbox
// batch; deletes and scans must flow through it correctly, not only
// point ops.
TEST(Multicore, BatchedDeletesAndScans) {
  Cluster cluster(
      MulticoreOptions(4, 31, TransportKind::kThreads));
  cluster.Start();
  Oracle oracle;
  std::vector<Key> keys = RandomKeys(3000, 31);
  for (Key k : keys) ASSERT_TRUE(oracle.Insert(k, k).ok());
  std::vector<std::thread> writers;
  for (int c = 0; c < 4; ++c) {
    writers.emplace_back([&, c] {
      for (size_t i = c; i < keys.size(); i += 4) {
        cluster.Insert(static_cast<ProcessorId>(c), keys[i], keys[i]);
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(cluster.Settle());

  std::atomic<int> scan_failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = c; i < keys.size() / 2; i += 2) {
        cluster.Delete(static_cast<ProcessorId>(c), keys[i]);
      }
    });
  }
  for (int c = 2; c < 4; ++c) {
    workers.emplace_back([&, c] {
      Rng rng(3 + c);
      for (int i = 0; i < 150; ++i) {
        auto r = cluster.Scan(static_cast<ProcessorId>(c),
                              rng.Range(1, 1u << 30), 16);
        if (!r.ok()) scan_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    ASSERT_TRUE(oracle.Delete(keys[i]).ok());
  }
  EXPECT_EQ(scan_failures.load(), 0);
  ASSERT_TRUE(cluster.Settle());
  ExpectMatchesOracle(cluster, oracle);
  ExpectCorrect(cluster);
}

}  // namespace
}  // namespace lazytree
