// C6 — §1.1 rationale: "Concurrent B-link tree algorithms have been found
// to provide the highest concurrency of all concurrent B-tree algorithms"
// — why the B-link tree is the right base for a distributed protocol.
//
// google-benchmark microbenchmarks: the shared-memory B-link tree versus
// a single reader-writer-lock tree across thread counts and mixes.

#include <benchmark/benchmark.h>

#include "src/blink/blink_tree.h"
#include "src/blink/lock_tree.h"
#include "src/util/affinity.h"
#include "src/util/rng.h"

namespace lazytree {
namespace {

constexpr size_t kPreload = 100000;

/// One preloaded tree per type, shared by every thread of every run.
template <typename Tree>
Tree& Shared() {
  static Tree* tree = [] {
    auto* t = new Tree();
    Rng rng(7);
    for (size_t i = 0; i < kPreload; ++i) {
      t->Insert(rng.Range(1, 1ull << 40), i);
    }
    return t;
  }();
  return *tree;
}

template <typename Tree>
void Mixed(benchmark::State& state, double insert_fraction) {
  Tree& tree = Shared<Tree>();
  Rng rng(1234 + state.thread_index());
  for (auto _ : state) {
    Key k = rng.Range(1, 1ull << 40);
    if (rng.NextDouble() < insert_fraction) {
      benchmark::DoNotOptimize(tree.Insert(k, 1));
    } else {
      benchmark::DoNotOptimize(tree.Search(k));
    }
  }
  state.SetItemsProcessed(state.iterations());
}

constexpr auto* Blink = &Mixed<BlinkTree>;
constexpr auto* Lock = &Mixed<LockTree>;

// Thread counts 1, 2, 4, ... up to the host's cores: never oversubscribed.
const int kCores = static_cast<int>(AvailableCpus());
BENCHMARK_CAPTURE(Blink, ReadOnly, 0.0)->ThreadRange(1, kCores);
BENCHMARK_CAPTURE(Lock, ReadOnly, 0.0)->ThreadRange(1, kCores);
BENCHMARK_CAPTURE(Blink, Mixed20, 0.2)->ThreadRange(1, kCores);
BENCHMARK_CAPTURE(Lock, Mixed20, 0.2)->ThreadRange(1, kCores);
BENCHMARK_CAPTURE(Blink, WriteHeavy, 0.8)->ThreadRange(1, kCores);
BENCHMARK_CAPTURE(Lock, WriteHeavy, 0.8)->ThreadRange(1, kCores);

}  // namespace
}  // namespace lazytree

BENCHMARK_MAIN();
