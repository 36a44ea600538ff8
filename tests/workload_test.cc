// Workload unit tests: distribution shapes, mix ratios, and the closed-loop
// driver on both transports.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/cluster.h"
#include "src/workload/driver.h"
#include "src/workload/generator.h"

namespace lazytree {
namespace {

using workload::GenOp;
using workload::Generator;
using workload::HotspotDist;
using workload::MakeDistribution;
using workload::OpMix;
using workload::SequentialDist;
using workload::UniformDist;
using workload::ZipfianDist;

TEST(Distributions, UniformCoversTheSpace) {
  UniformDist dist(1000);
  Rng rng(1);
  std::set<Key> seen;
  for (int i = 0; i < 20000; ++i) {
    Key k = dist.Next(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LT(k, 1000u);
    seen.insert(k);
  }
  EXPECT_GT(seen.size(), 950u) << "uniform should touch nearly all keys";
}

TEST(Distributions, SequentialIsStrictlyIncreasing) {
  SequentialDist dist(10, 3);
  Rng rng(1);
  Key prev = 0;
  for (int i = 0; i < 100; ++i) {
    Key k = dist.Next(rng);
    EXPECT_GT(k, prev);
    prev = k;
  }
  EXPECT_EQ(prev, 10u + 99u * 3u);
}

TEST(Distributions, ZipfianIsHeavilySkewed) {
  ZipfianDist dist(10000, 1u << 30, 0.99);
  Rng rng(7);
  std::map<Key, int> counts;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[dist.Next(rng)];
  // The most popular key should dwarf the uniform expectation and the
  // top handful should carry a large share of the traffic.
  int max_count = 0;
  std::vector<int> all;
  for (auto& [k, c] : counts) {
    max_count = std::max(max_count, c);
    all.push_back(c);
  }
  EXPECT_GT(max_count, kSamples / 100)
      << "rank-1 of a 0.99-zipfian carries >1% of traffic";
  std::sort(all.rbegin(), all.rend());
  int top10 = 0;
  for (size_t i = 0; i < 10 && i < all.size(); ++i) top10 += all[i];
  EXPECT_GT(top10, kSamples / 4) << "top-10 keys carry >25%";
}

TEST(Distributions, HotspotRespectsRatios) {
  HotspotDist dist(100000, /*hot_fraction=*/0.05, /*hot_ops=*/0.9);
  Rng rng(3);
  int hot = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (dist.Next(rng) <= 5000) ++hot;
  }
  // 90% targeted + ~5% of the cold traffic falls in the hot span too.
  EXPECT_NEAR(static_cast<double>(hot) / kSamples, 0.9 + 0.1 * 0.05, 0.02);
}

TEST(Distributions, FactoryByName) {
  for (const char* name : {"uniform", "sequential", "zipfian", "hotspot"}) {
    auto dist = MakeDistribution(name, 1u << 20);
    ASSERT_NE(dist, nullptr);
    EXPECT_STREQ(dist->name(), name);
    Rng rng(1);
    EXPECT_GE(dist->Next(rng), 1u);
  }
}

TEST(Generator, MixRatiosApproximatelyHold) {
  OpMix mix;
  mix.insert = 0.4;
  mix.search = 0.4;
  mix.erase = 0.15;
  mix.scan = 0.05;
  UniformDist keys(1u << 20);
  Generator gen(mix, &keys, 11);
  std::map<GenOp::Type, int> counts;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) ++counts[gen.Next().type];
  EXPECT_NEAR(counts[GenOp::Type::kInsert] / double(kOps), 0.4, 0.02);
  EXPECT_NEAR(counts[GenOp::Type::kSearch] / double(kOps), 0.4, 0.02);
  EXPECT_NEAR(counts[GenOp::Type::kDelete] / double(kOps), 0.15, 0.02);
  EXPECT_NEAR(counts[GenOp::Type::kScan] / double(kOps), 0.05, 0.01);
}

TEST(Generator, DeletesTargetPreviouslyInsertedKeysOnce) {
  OpMix mix;
  mix.insert = 0.5;
  mix.search = 0;
  mix.erase = 0.5;
  UniformDist keys(1u << 30);
  Generator gen(mix, &keys, 13);
  std::multiset<Key> inserted;
  std::multiset<Key> deleted;
  for (int i = 0; i < 5000; ++i) {
    GenOp op = gen.Next();
    if (op.type == GenOp::Type::kInsert) inserted.insert(op.key);
    if (op.type == GenOp::Type::kDelete) deleted.insert(op.key);
  }
  for (Key k : deleted) {
    EXPECT_GT(inserted.count(k), 0u) << "delete of never-inserted key";
    EXPECT_LE(deleted.count(k), inserted.count(k));
  }
}

TEST(Generator, DeleteWithNoLiveKeysBecomesSearch) {
  OpMix mix;
  mix.insert = 0;
  mix.search = 0;
  mix.erase = 1;
  UniformDist keys(100);
  Generator gen(mix, &keys, 17);
  EXPECT_EQ(gen.Next().type, GenOp::Type::kSearch);
}

TEST(Generator, ReproducibleBySeed) {
  auto run = [](uint64_t seed) {
    OpMix mix;
    UniformDist dist(1u << 20);
    Generator gen(mix, &dist, seed);
    std::vector<Key> keys;
    for (int i = 0; i < 100; ++i) keys.push_back(gen.Next().key);
    return keys;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Generator, InsertsDrawFreshKeysAndUpdatesDrawKeys) {
  OpMix mix;
  mix.insert = 0.25;
  mix.search = 0;
  mix.update = 0.5;
  mix.rmw = 0.25;
  UniformDist keys(1000);
  SequentialDist fresh(1u << 20);
  Generator gen(mix, &keys, 19, &fresh);
  std::map<GenOp::Type, int> counts;
  size_t fresh_inserts = 0;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    GenOp op = gen.Next();
    ++counts[op.type];
    if (op.key >= (1u << 20)) {
      EXPECT_EQ(op.type, GenOp::Type::kInsert);
      ++fresh_inserts;
    } else {
      EXPECT_LT(op.key, 1000u) << GenOpName(op.type);
    }
  }
  EXPECT_EQ(gen.live_keys(), fresh_inserts) << "only inserts are deletable";
  EXPECT_NEAR(fresh_inserts / double(kOps), 0.25, 0.02);
  EXPECT_NEAR(counts[GenOp::Type::kRmw] / double(kOps), 0.25, 0.02);
  EXPECT_NEAR(counts[GenOp::Type::kInsert] / double(kOps), 0.75, 0.02);
}

ClusterOptions DriveOptions(TransportKind transport) {
  ClusterOptions o;
  o.processors = 4;
  o.protocol = ProtocolKind::kSemiSyncSplit;
  o.transport = transport;
  o.seed = 3;
  o.tree.max_entries = 8;
  o.tree.track_history = false;
  o.check_histories = false;
  if (transport == TransportKind::kSim) {
    o.sim_latency_us = 4;
    o.sim_jitter_us = 1;
  }
  return o;
}

workload::DriveSpec MixedSpec(workload::KeyDistribution* keys,
                              uint64_t ops) {
  workload::DriveSpec spec;
  spec.mix = OpMix{.insert = 0.3, .search = 0.4, .erase = 0.1,
                   .scan = 0.1, .rmw = 0.1};
  spec.keys = keys;
  spec.ops = ops;
  spec.seed = 7;
  return spec;
}

TEST(Drive, SimRunsWithOneSeedAreIdentical) {
  auto run = [] {
    Cluster cluster(DriveOptions(TransportKind::kSim));
    cluster.Start();
    UniformDist keys(1u << 16);
    workload::Load(cluster, MixedSpec(&keys, 500));
    return workload::Drive(cluster, MixedSpec(&keys, 3000));
  };
  const workload::DriveResult a = run();
  const workload::DriveResult b = run();
  EXPECT_TRUE(a.sim_us);
  EXPECT_EQ(a.completed, 3000u);
  EXPECT_EQ(a.lost + a.failed, 0u);
  EXPECT_GT(a.not_found, 0u) << "searches over a sparse key space miss";
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.not_found, b.not_found);
  EXPECT_EQ(a.hops.Summary(), b.hops.Summary());
  EXPECT_GT(a.latency_us.max(), 0u) << "latency mode advances the clock";
  EXPECT_EQ(a.latency_us.Summary(), b.latency_us.Summary());
  EXPECT_EQ(a.net.ToString(), b.net.ToString());
  EXPECT_EQ(a.net.actions_by_kind, b.net.actions_by_kind);
}

/// Uniform keys whose 200th draw crashes processor 2 mid-run. Every op is
/// homed at p0, so the crash never lands on the processor running the
/// completion callback that draws the key.
class CrashingKeys : public UniformDist {
 public:
  explicit CrashingKeys(Cluster* cluster)
      : UniformDist(1u << 16), cluster_(cluster) {}
  Key Next(Rng& rng) override {
    if (++draws_ == 200) cluster_->CrashProcessor(2);
    return UniformDist::Next(rng);
  }

 private:
  Cluster* cluster_;
  int draws_ = 0;
};

TEST(Drive, CrashDuringSimRunIsFailedOrLostNotOk) {
  Cluster cluster(DriveOptions(TransportKind::kSim));
  cluster.Start();
  UniformDist load_keys(1u << 16);
  workload::Load(cluster, MixedSpec(&load_keys, 800));
  CrashingKeys keys(&cluster);
  workload::DriveSpec spec = MixedSpec(&keys, 2000);
  spec.home = 0;
  const workload::DriveResult r = workload::Drive(cluster, spec);
  // Lost ops hold their slots, so the run may stop short of 2000 submits.
  EXPECT_LE(r.ops(), 2000u);
  EXPECT_GT(r.failed + r.lost, 0u)
      << "ops routed through the crashed processor must not count as OK";
  EXPECT_LT(r.completed - r.failed - r.not_found, 2000u);

  // Under the reliable layer each dead link fails every pending op with
  // Unavailable: the whole window, as every op is homed on p0. An rmw
  // whose read half fails must end there, not write and count as OK.
  ClusterOptions o = DriveOptions(TransportKind::kSim);
  o.reliable = true;
  o.reliability.max_retransmits = 3;
  Cluster reliable(o);
  reliable.Start();
  workload::Load(reliable, MixedSpec(&load_keys, 800));
  CrashingKeys rmw_keys(&reliable);
  spec = MixedSpec(&rmw_keys, 2000);
  spec.mix = OpMix{.insert = 0, .search = 0, .rmw = 1};
  spec.home = 0;
  const workload::DriveResult rmw = workload::Drive(reliable, spec);
  EXPECT_GT(rmw.net.link_down, 0u);
  EXPECT_GE(rmw.failed, rmw.net.link_down * spec.window);
}

TEST(Drive, ThreadsAtOnePercentDropLoseNothingUnderReliableLayer) {
  ClusterOptions o = DriveOptions(TransportKind::kThreads);
  o.faults.drop = 0.01;
  o.faults.seed = 29;
  o.reliable = true;
  o.reliability.max_retransmits = 20;
  Cluster cluster(o);
  cluster.Start();
  UniformDist keys(1u << 16);
  workload::Load(cluster, MixedSpec(&keys, 500));
  const workload::DriveResult r =
      workload::Drive(cluster, MixedSpec(&keys, 3000));
  EXPECT_FALSE(r.sim_us);
  EXPECT_EQ(r.completed, 3000u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.net.link_down, 0u);
  EXPECT_GT(cluster.faulty()->dropped(), 0u);
  EXPECT_GT(r.net.retransmits, 0u);
}

}  // namespace
}  // namespace lazytree
