// kv_directory: a distributed service directory.
//
// Scenario from the paper's motivation (§1): a very large dictionary
// served by many processors, read-mostly with a steady trickle of
// registrations. Interior replication lets every front-end resolve most
// lookups with local hops; lazy updates keep the replicas cheap.
//
//   $ ./build/examples/kv_directory [processors] [services]
//
// Processors default to min(8, available CPUs). Exits 1 unless every
// registered service is stored.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/core/dbtree.h"
#include "src/util/affinity.h"
#include "src/util/rng.h"
#include "src/util/threading.h"

int main(int argc, char** argv) {
  using namespace lazytree;
  const uint32_t processors =
      argc > 1 ? std::atoi(argv[1]) : std::min(8u, AvailableCpus());
  const size_t services =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 20000;

  ClusterOptions options;
  options.processors = processors;
  options.protocol = ProtocolKind::kSemiSyncSplit;
  options.transport = TransportKind::kThreads;  // real parallelism
  options.tree.max_entries = 32;
  options.tree.track_history = false;  // production mode
  options.piggyback_window = 8;        // batch relays (§1.1)

  DBTree tree(options);
  Rng seeder(42);

  // Phase 1: register services (hash of name -> endpoint id).
  uint64_t t0 = NowNanos();
  std::vector<std::thread> registrars;
  for (uint32_t c = 0; c < processors; ++c) {
    registrars.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (size_t i = c; i < services; i += processors) {
        Key service_id = (static_cast<Key>(i) << 16) | rng.Below(9999);
        tree.InsertAt(c, service_id, /*endpoint=*/rng.Next() >> 32);
      }
    });
  }
  for (auto& t : registrars) t.join();
  tree.cluster().Settle();
  double reg_secs = (NowNanos() - t0) * 1e-9;

  // Phase 2: resolve — read-heavy lookups from every front-end.
  t0 = NowNanos();
  std::atomic<size_t> hits{0}, misses{0};
  std::vector<std::thread> resolvers;
  for (uint32_t c = 0; c < processors; ++c) {
    resolvers.emplace_back([&, c] {
      // Replay the registrar's id stream for exact hits, plus some
      // random misses — a realistic resolve mix.
      Rng replay(1000 + c);
      Rng rng(2000 + c);
      size_t idx = c;
      for (int i = 0; i < 5000; ++i) {
        Key probe;
        if (i % 4 != 0 && idx < services) {
          probe = (static_cast<Key>(idx) << 16) | replay.Below(9999);
          replay.Next();  // the registrar consumed a draw for the endpoint
          idx += processors;
        } else {
          probe = (rng.Below(services) << 16) | rng.Below(9999);
        }
        auto r = tree.SearchAt(c, probe);
        (r.ok() ? hits : misses).fetch_add(1);
      }
    });
  }
  for (auto& t : resolvers) t.join();
  double lookup_secs = (NowNanos() - t0) * 1e-9;

  auto stats = tree.cluster().NetStats();
  std::printf("registered %zu services on %u processors in %.2fs "
              "(%.0f regs/s)\n",
              services, processors, reg_secs, services / reg_secs);
  std::printf("resolved %zu lookups (%zu hits) in %.2fs (%.0f lookups/s)\n",
              hits + misses, hits.load(), lookup_secs,
              (hits + misses) / lookup_secs);
  std::printf("remote messages: %llu (%.2f per op), piggybacked relays "
              "rode along free\n",
              (unsigned long long)stats.remote_messages,
              double(stats.remote_messages) / double(services + hits +
                                                     misses));
  const size_t stored = tree.KeyCount();
  std::printf("stored keys: %zu\n", stored);
  if (stored != services) {
    std::fprintf(stderr, "FAILED: %zu of %zu registered services stored\n",
                 stored, services);
    return 1;
  }
  return 0;
}
