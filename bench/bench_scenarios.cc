// bench_scenarios — the YCSB-grade scenario battery over lazytree::Cluster
// (EXPERIMENTS.md "Scenario battery"; ROADMAP item 2 shape).
//
// Phases per scenario: a load phase (records pre-inserted, not measured)
// and a timed run phase driving the standard A–F mixes plus two stressors
// of our own (hotspot-shift, delete-heavy churn) on both transports:
//
//   ycsb-a  50% read / 50% update            zipfian
//   ycsb-b  95% read /  5% update            zipfian
//   ycsb-c  100% read                        zipfian  (the scaling story)
//   ycsb-d  95% read /  5% insert            latest (completed-insert ring)
//   ycsb-e  95% scan /  5% insert            zipfian, scan limit 16
//   ycsb-f  50% read / 50% read-modify-write zipfian
//   hotspot-shift  95/5 read/update, hot 5% region jumps mid-run
//   churn   50% read / 25% insert / 25% delete over a small key space
//
// Reported per row: ops/sec, p50/p95/p99/p999 latency (µs — wall clock on
// threads, simulated time on sim), remote msgs/op, combined actions/op,
// fast-path hops/op, not_found/failed counts. `--json PATH` additionally
// emits the machine-readable battery (bench_scenarios.json in the build
// directory via the `lazytree_bench` target) including the 1→16-thread
// ycsb-c scaling grid. `--smoke` is the CI-sized run. Either run fails if
// a hotspot-shift row finds more than 1% of its reads missing: its keys
// are all loaded, so misses mean it measures the wrong path.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/util/affinity.h"
#include "src/workload/distributions.h"

namespace lazytree::bench {
namespace {

constexpr Key kSpace = 1ull << 30;

struct Spec {
  const char* name;
  double read, update, insert, rmw, scan, del;
  const char* dist;  // zipfian | latest | uniform | hotspot-shift
};

const Spec kSpecs[] = {
    {"ycsb-a", 0.50, 0.50, 0.00, 0.00, 0.00, 0.00, "zipfian"},
    {"ycsb-b", 0.95, 0.05, 0.00, 0.00, 0.00, 0.00, "zipfian"},
    {"ycsb-c", 1.00, 0.00, 0.00, 0.00, 0.00, 0.00, "zipfian"},
    {"ycsb-d", 0.95, 0.00, 0.05, 0.00, 0.00, 0.00, "latest"},
    {"ycsb-e", 0.00, 0.00, 0.05, 0.00, 0.95, 0.00, "zipfian"},
    {"ycsb-f", 0.50, 0.00, 0.00, 0.50, 0.00, 0.00, "zipfian"},
    {"hotspot-shift", 0.95, 0.05, 0.00, 0.00, 0.00, 0.00,
     "hotspot-shift"},
    {"churn", 0.50, 0.00, 0.25, 0.00, 0.00, 0.25, "uniform"},
};

/// Hotspot whose hot 5% window of the loaded records jumps to the far
/// half of them once half the run's operations have completed — the
/// skew-migration stressor (ROADMAP item 2): the replicas that were hot go
/// cold and a cold path must absorb the herd. The window is drawn over
/// the zipfian ranks the load phase inserted (`zipf.KeyForRank`), so
/// every read addresses a loaded record.
class ShiftingHotspotDist : public workload::KeyDistribution {
 public:
  ShiftingHotspotDist(const workload::ZipfianDist* zipf, uint64_t records,
                      const std::atomic<uint64_t>* progress,
                      uint64_t total_ops)
      : zipf_(zipf),
        records_(records),
        progress_(progress),
        total_ops_(total_ops) {}
  Key Next(Rng& rng) override {
    const uint64_t span = std::max<uint64_t>(1, records_ / 20);
    const bool shifted =
        progress_->load(std::memory_order_relaxed) >= total_ops_ / 2;
    const uint64_t base = shifted ? records_ / 2 + 1 : 1;
    const uint64_t rank = rng.Chance(0.9) ? base + rng.Below(span)
                                          : 1 + rng.Below(records_);
    return zipf_->KeyForRank(rank);
  }
  const char* name() const override { return "hotspot-shift"; }

 private:
  const workload::ZipfianDist* zipf_;
  uint64_t records_;
  const std::atomic<uint64_t>* progress_;
  uint64_t total_ops_;
};

/// Everything one scenario's clients share. The distribution objects are
/// stateless per call (or internally atomic, for LatestDist), so client
/// threads share them with private Rngs.
struct ScenarioCtx {
  const Spec* spec;
  size_t records;
  size_t ops;
  Key churn_space;
  workload::ZipfianDist zipf;
  workload::LatestDist latest;
  workload::UniformDist uniform;
  ShiftingHotspotDist shift;
  std::atomic<uint64_t> progress{0};

  ScenarioCtx(const Spec& s, size_t rec, size_t n)
      : spec(&s),
        records(rec),
        ops(n),
        churn_space(rec * 2),
        zipf(rec, kSpace),
        latest(kSpace),
        uniform(s.dist == std::string("uniform") ? rec * 2 : kSpace),
        shift(&zipf, rec, &progress, n) {}

  Key NextKey(Rng& rng) {
    if (std::strcmp(spec->dist, "zipfian") == 0) return zipf.Next(rng);
    if (std::strcmp(spec->dist, "latest") == 0) return latest.Next(rng);
    if (std::strcmp(spec->dist, "hotspot-shift") == 0)
      return shift.Next(rng);
    return uniform.Next(rng);
  }

  Key LoadKey(size_t i, Rng& rng) {
    if (std::strcmp(spec->dist, "zipfian") == 0 ||
        std::strcmp(spec->dist, "hotspot-shift") == 0) {
      // Loaded keys are exactly the zipfian rank universe, so run-phase
      // reads always address loaded records.
      return zipf.KeyForRank(1 + (i % records));
    }
    if (std::strcmp(spec->dist, "uniform") == 0) {
      return 1 + rng.Below(churn_space - 1);
    }
    return 1 + rng.Below(kSpace - 1);
  }

  /// Fresh key for a run-phase insert.
  Key InsertKey(Rng& rng) {
    if (std::strcmp(spec->dist, "uniform") == 0) {
      return 1 + rng.Below(churn_space - 1);
    }
    return 1 + rng.Below(kSpace - 1);
  }
};

struct Totals {
  Histogram lat_us;
  uint64_t not_found = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;

  void Count(const Status& st) {
    ++completed;
    if (st.ok()) return;
    if (st.IsNotFound()) {
      ++not_found;
    } else if (!st.IsAlreadyExists()) {
      ++failed;
    }
  }
  void Absorb(const Totals& o) {
    lat_us.Merge(o.lat_us);
    not_found += o.not_found;
    failed += o.failed;
    completed += o.completed;
  }
};

struct Row {
  std::string scenario;
  std::string transport;
  double ops_per_sec = 0;
  double p50 = 0, p95 = 0, p99 = 0, p999 = 0;
  double remote_per_op = 0;
  double combined_per_op = 0;
  double fastpath_per_op = 0;
  double load_seconds = 0;
  uint64_t completed = 0, not_found = 0, failed = 0;
};

ClusterOptions MakeOptions(bool threads, uint32_t procs, uint64_t seed) {
  ClusterOptions o;
  o.processors = procs;
  o.protocol = ProtocolKind::kSemiSyncSplit;
  o.transport = threads ? TransportKind::kThreads : TransportKind::kSim;
  o.seed = seed;
  o.tree.max_entries = 8;
  o.tree.track_history = false;  // bench mode: no §3 bookkeeping
  o.check_histories = false;
  o.tree.upsert = true;  // YCSB updates are overwrites
  if (!threads) {
    // Timestamped sim: 4µs one-way remote latency, 1µs jitter, so the
    // latency columns mean something (simulated µs).
    o.sim_latency_us = 4;
    o.sim_jitter_us = 1;
  }
  return o;
}

double LoadPhase(Cluster& cluster, ScenarioCtx& ctx, uint64_t seed) {
  const uint64_t t0 = NowNanos();
  Rng rng(seed ^ 0x10adull);
  std::vector<Key> recent;  // tail of the load, seeds the latest-ring
  const bool is_latest = std::strcmp(ctx.spec->dist, "latest") == 0;
  for (size_t i = 0; i < ctx.records; ++i) {
    Key k = ctx.LoadKey(i, rng);
    cluster.InsertAsync(static_cast<ProcessorId>(i % cluster.size()), k,
                        static_cast<Value>(i), [](const OpResult&) {});
    if (is_latest) {
      recent.push_back(k);
      if (recent.size() > 2048) recent.erase(recent.begin());
    }
    // Periodic drains keep early inserts from chasing every split that
    // "later" inserts cause (and bound the threads-transport queues).
    if (i % 512 == 511) cluster.Settle(std::chrono::milliseconds(120000));
  }
  cluster.Settle(std::chrono::milliseconds(120000));
  // Everything above is settled, hence completed: publishing the tail is
  // exactly "completed inserts" semantics.
  for (Key k : recent) ctx.latest.Publish(k);
  return (NowNanos() - t0) * 1e-9;
}

// --- threads transport: synchronous client threads -----------------------

void ThreadClientLoop(Cluster& cluster, ScenarioCtx& ctx, int client,
                      size_t my_ops, uint64_t seed, Totals& t) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(client));
  const Spec& s = *ctx.spec;
  for (size_t i = 0; i < my_ops; ++i) {
    const ProcessorId home = static_cast<ProcessorId>(
        (static_cast<size_t>(client) + i) % cluster.size());
    const double u = rng.NextDouble();
    const uint64_t t0 = NowNanos();
    if (u < s.read) {
      StatusOr<Value> r = cluster.Search(home, ctx.NextKey(rng));
      t.Count(r.status());
    } else if (u < s.read + s.update) {
      t.Count(cluster.Insert(home, ctx.NextKey(rng), i));
    } else if (u < s.read + s.update + s.insert) {
      Key k = ctx.InsertKey(rng);
      Status st = cluster.Insert(home, k, i);
      if (st.ok() && std::strcmp(s.dist, "latest") == 0) {
        ctx.latest.Publish(k);
      }
      t.Count(st);
    } else if (u < s.read + s.update + s.insert + s.rmw) {
      Key k = ctx.NextKey(rng);
      StatusOr<Value> r = cluster.Search(home, k);
      Status st = cluster.Insert(home, k, r.ok() ? *r + 1 : 1);
      t.Count(st);
    } else if (u < s.read + s.update + s.insert + s.rmw + s.scan) {
      StatusOr<std::vector<Entry>> r =
          cluster.Scan(home, ctx.NextKey(rng), 16);
      t.Count(r.status());
    } else {
      Status st = cluster.Delete(home, ctx.NextKey(rng));
      t.Count(st);
    }
    t.lat_us.Record((NowNanos() - t0) / 1000);
    ctx.progress.fetch_add(1, std::memory_order_relaxed);
  }
}

Row RunThreadsScenario(const Spec& spec, size_t records, size_t ops,
                       uint32_t procs, uint64_t seed) {
  Cluster cluster(MakeOptions(true, procs, seed));
  cluster.Start();
  ScenarioCtx ctx(spec, records, ops);
  Row row;
  row.scenario = spec.name;
  row.transport = "threads";
  row.load_seconds = LoadPhase(cluster, ctx, seed);

  const int clients = static_cast<int>(procs);
  std::vector<Totals> per(clients);
  auto before = cluster.NetStats();
  std::vector<std::thread> workers;
  const uint64_t t0 = NowNanos();
  for (int c = 0; c < clients; ++c) {
    const size_t my_ops =
        ops / clients + (static_cast<size_t>(c) < ops % clients ? 1 : 0);
    workers.emplace_back([&, c, my_ops] {
      ThreadClientLoop(cluster, ctx, c, my_ops, seed, per[c]);
    });
  }
  for (auto& w : workers) w.join();
  const double seconds = (NowNanos() - t0) * 1e-9;
  cluster.Settle(std::chrono::milliseconds(120000));
  auto net = cluster.NetStats() - before;

  Totals totals;
  for (const Totals& t : per) totals.Absorb(t);
  row.ops_per_sec = seconds > 0 ? ops / seconds : 0;
  row.p50 = totals.lat_us.P50();
  row.p95 = totals.lat_us.P95();
  row.p99 = totals.lat_us.P99();
  row.p999 = totals.lat_us.P999();
  row.remote_per_op = static_cast<double>(net.remote_messages) / ops;
  row.combined_per_op = static_cast<double>(net.combined_actions) / ops;
  row.fastpath_per_op = static_cast<double>(net.fastpath_reads) / ops;
  row.completed = totals.completed;
  row.not_found = totals.not_found;
  row.failed = totals.failed;
  return row;
}

// --- sim transport: closed-loop async driver ------------------------------

struct SimScenarioDriver {
  Cluster* cluster;
  ScenarioCtx* ctx;
  Rng rng;
  size_t remaining;
  Totals* totals;

  void Finish(uint64_t t0, const Status& st) {
    totals->lat_us.Record(cluster->sim()->NowUs() - t0);
    totals->Count(st);
    ctx->progress.fetch_add(1, std::memory_order_relaxed);
    LaunchOne();
  }

  void LaunchOne() {
    if (remaining == 0) return;
    --remaining;
    const Spec& s = *ctx->spec;
    const ProcessorId home =
        static_cast<ProcessorId>(rng.Below(cluster->size()));
    const double u = rng.NextDouble();
    const uint64_t t0 = cluster->sim()->NowUs();
    if (u < s.read) {
      cluster->SearchAsync(home, ctx->NextKey(rng),
                           [this, t0](const OpResult& r) {
                             Finish(t0, r.status);
                           });
    } else if (u < s.read + s.update) {
      cluster->InsertAsync(home, ctx->NextKey(rng), 1,
                           [this, t0](const OpResult& r) {
                             Finish(t0, r.status);
                           });
    } else if (u < s.read + s.update + s.insert) {
      const Key k = ctx->InsertKey(rng);
      const bool publish = std::strcmp(s.dist, "latest") == 0;
      cluster->InsertAsync(home, k, 1,
                           [this, t0, k, publish](const OpResult& r) {
                             if (publish && r.status.ok()) {
                               ctx->latest.Publish(k);
                             }
                             Finish(t0, r.status);
                           });
    } else if (u < s.read + s.update + s.insert + s.rmw) {
      const Key k = ctx->NextKey(rng);
      cluster->SearchAsync(
          home, k, [this, t0, k, home](const OpResult& r) {
            const Value next = r.status.ok() ? r.value + 1 : 1;
            cluster->InsertAsync(home, k, next,
                                 [this, t0](const OpResult& r2) {
                                   Finish(t0, r2.status);
                                 });
          });
    } else if (u < s.read + s.update + s.insert + s.rmw + s.scan) {
      cluster->ScanAsync(home, ctx->NextKey(rng), 16,
                         [this, t0](const OpResult& r) {
                           Finish(t0, r.status);
                         });
    } else {
      cluster->DeleteAsync(home, ctx->NextKey(rng),
                           [this, t0](const OpResult& r) {
                             Finish(t0, r.status);
                           });
    }
  }
};

Row RunSimScenario(const Spec& spec, size_t records, size_t ops,
                   uint32_t procs, uint64_t seed) {
  Cluster cluster(MakeOptions(false, procs, seed));
  cluster.Start();
  ScenarioCtx ctx(spec, records, ops);
  Row row;
  row.scenario = spec.name;
  row.transport = "sim";
  row.load_seconds = LoadPhase(cluster, ctx, seed);

  Totals totals;
  auto before = cluster.NetStats();
  SimScenarioDriver driver{&cluster, &ctx, Rng(seed * 31 + 7), ops,
                           &totals};
  const uint64_t t0 = NowNanos();
  for (size_t i = 0; i < 32 && i < ops; ++i) driver.LaunchOne();
  cluster.Settle(std::chrono::milliseconds(240000));
  const double seconds = (NowNanos() - t0) * 1e-9;
  auto net = cluster.NetStats() - before;

  row.ops_per_sec = seconds > 0 ? ops / seconds : 0;
  row.p50 = totals.lat_us.P50();
  row.p95 = totals.lat_us.P95();
  row.p99 = totals.lat_us.P99();
  row.p999 = totals.lat_us.P999();
  row.remote_per_op = static_cast<double>(net.remote_messages) / ops;
  row.combined_per_op = static_cast<double>(net.combined_actions) / ops;
  row.fastpath_per_op = static_cast<double>(net.fastpath_reads) / ops;
  row.completed = totals.completed;
  row.not_found = totals.not_found;
  row.failed = totals.failed;
  return row;
}

// --- output ---------------------------------------------------------------

void PrintRows(const std::vector<Row>& rows) {
  Table table({"scenario", "transport", "ops/sec", "p50µs", "p95µs",
               "p99µs", "p999µs", "rmsg/op", "comb/op", "fast/op",
               "not_found"});
  table.Header();
  for (const Row& r : rows) {
    table.Row({r.scenario, r.transport, Fmt("%.0f", r.ops_per_sec),
               Fmt("%.1f", r.p50), Fmt("%.1f", r.p95), Fmt("%.1f", r.p99),
               Fmt("%.1f", r.p999), Fmt("%.2f", r.remote_per_op),
               Fmt("%.2f", r.combined_per_op),
               Fmt("%.2f", r.fastpath_per_op), FmtU(r.not_found)});
  }
  std::printf("\n");
}

void AppendRowJson(std::string& out, const Row& r, const char* extra_key,
                   uint64_t extra_val, bool has_extra) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"scenario\": \"%s\", \"transport\": \"%s\", "
      "\"ops_per_sec\": %.0f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
      "\"p99_us\": %.1f, \"p999_us\": %.1f,\n     "
      "\"remote_msgs_per_op\": %.2f, \"combined_actions_per_op\": %.2f, "
      "\"fastpath_hops_per_op\": %.2f, \"load_seconds\": %.2f, "
      "\"completed\": %llu, \"not_found\": %llu, \"failed\": %llu",
      r.scenario.c_str(), r.transport.c_str(), r.ops_per_sec, r.p50,
      r.p95, r.p99, r.p999, r.remote_per_op, r.combined_per_op,
      r.fastpath_per_op, r.load_seconds,
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.not_found),
      static_cast<unsigned long long>(r.failed));
  out += buf;
  if (has_extra) {
    std::snprintf(buf, sizeof(buf), ", \"%s\": %llu", extra_key,
                  static_cast<unsigned long long>(extra_val));
    out += buf;
  }
  out += "}";
}

struct BatteryResult {
  std::vector<Row> battery;
  std::vector<Row> scaling;   // ycsb-c threads, varying processors
  std::vector<uint32_t> scaling_procs;
};

void WriteJson(const std::string& path, const BatteryResult& result,
               size_t records, size_t ops, uint32_t procs, uint64_t seed) {
  std::string out = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"bench\": \"PR7 scenario battery\",\n"
                "  \"seed\": %llu,\n  \"records\": %zu,\n"
                "  \"ops\": %zu,\n  \"processors\": %u,\n"
                "  \"protocol\": \"semisync\",\n"
                "  \"hardware_threads\": %u,\n",
                static_cast<unsigned long long>(seed), records, ops, procs,
                AvailableCpus());
  out += buf;
  out += "  \"scenarios\": [\n";
  for (size_t i = 0; i < result.battery.size(); ++i) {
    AppendRowJson(out, result.battery[i], nullptr, 0, false);
    out += i + 1 < result.battery.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"scaling_ycsb_c_threads\": [\n";
  for (size_t i = 0; i < result.scaling.size(); ++i) {
    AppendRowJson(out, result.scaling[i], "threads",
                  result.scaling_procs[i], true);
    out += i + 1 < result.scaling.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

int Run(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  size_t records = 50000;
  size_t ops = 30000;
  uint32_t procs = 8;
  const uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
      procs = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--smoke] [--records N] "
                   "[--ops N] [--procs N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    records = 2000;
    ops = 2000;
    procs = 4;
  }

  Banner("E-YCSB", "scenario battery (ROADMAP item 2)",
         "A-F mixes + hotspot-shift + churn on both transports; ycsb-c "
         "thread-scaling grid.");
  std::printf("records=%zu ops=%zu processors=%u hardware_threads=%u\n\n",
              records, ops, procs, AvailableCpus());

  BatteryResult result;
  const Spec* smoke_specs[] = {&kSpecs[0], &kSpecs[2], &kSpecs[3],
                               &kSpecs[6]};
  const size_t n_specs = smoke ? sizeof(smoke_specs) / sizeof(smoke_specs[0])
                               : sizeof(kSpecs) / sizeof(kSpecs[0]);
  for (size_t i = 0; i < n_specs; ++i) {
    const Spec& spec = smoke ? *smoke_specs[i] : kSpecs[i];
    result.battery.push_back(
        RunSimScenario(spec, records, ops, procs, seed));
    result.battery.push_back(
        RunThreadsScenario(spec, records, ops, procs, seed));
    std::printf("%s done\n", spec.name);
  }
  std::printf("\n");
  PrintRows(result.battery);

  // Scaling grid: search-heavy ycsb-c, threads transport, 1 -> 16
  // processor threads (one client per processor).
  const Spec& ycsb_c = kSpecs[2];
  std::vector<uint32_t> grid =
      smoke ? std::vector<uint32_t>{1, 2}
            : std::vector<uint32_t>{1, 2, 4, 8, 16};
  for (uint32_t p : grid) {
    result.scaling.push_back(
        RunThreadsScenario(ycsb_c, records, ops, p, seed));
    result.scaling_procs.push_back(p);
  }
  std::printf("ycsb-c threads scaling (1 hardware thread available: %u)\n",
              AvailableCpus());
  Table sc({"threads", "ops/sec", "speedup", "rmsg/op", "p99µs"});
  sc.Header();
  for (size_t i = 0; i < result.scaling.size(); ++i) {
    sc.Row({FmtU(result.scaling_procs[i]),
            Fmt("%.0f", result.scaling[i].ops_per_sec),
            Fmt("%.2f", result.scaling[i].ops_per_sec /
                            result.scaling[0].ops_per_sec),
            Fmt("%.2f", result.scaling[i].remote_per_op),
            Fmt("%.1f", result.scaling[i].p99)});
  }
  std::printf("\n");

  if (!json_path.empty()) {
    WriteJson(json_path, result, records, ops, procs, seed);
    std::printf("wrote %s\n", json_path.c_str());
  }
  // hotspot-shift reads only loaded keys: a miss rate above 1% means the
  // row measures the miss path instead of the hotspot.
  int bad_rows = 0;
  for (const Row& r : result.battery) {
    if (r.scenario != "hotspot-shift") continue;
    const double miss = r.completed > 0 ? static_cast<double>(r.not_found) /
                                              static_cast<double>(r.completed)
                                        : 1.0;
    if (miss > 0.01) {
      std::fprintf(stderr, "FAILED: hotspot-shift/%s not_found %.1f%%\n",
                   r.transport.c_str(), miss * 100);
      ++bad_rows;
    }
  }
  return bad_rows > 0 ? 1 : 0;
}

}  // namespace
}  // namespace lazytree::bench

int main(int argc, char** argv) {
  return lazytree::bench::Run(argc, argv);
}
