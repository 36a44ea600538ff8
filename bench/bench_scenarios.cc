// bench_scenarios — every bench row that drives generic traffic, as one
// row table over workload::Drive (EXPERIMENTS.md S1 and S2).
//
// A row is {group, mix, transport, protocol, processors, k, drop,
// reliable}. RunRow loads `--records` keys, then times `--ops` operations
// with k of them outstanding. The groups:
//
//   ycsb       the mixes below on both transports, semisync, 4 processors
//   loss       insert-search: a raw anchor row (no reliable layer) plus
//              0 / 0.1 / 1 / 5% per-link drop under the reliable layer,
//              on both transports, 4 processors
//   protocols  insert-search on threads: naive, sync and semisync
//   scaling    ycsb-c on threads: k = 1…64 at processors = cores, and
//              processors 1…cores at k = 32
//
//   ycsb-a  50% read / 50% update            zipfian over the records
//   ycsb-b  95% read /  5% update            zipfian
//   ycsb-c  100% read                        zipfian
//   ycsb-d  95% read /  5% insert            latest (completed inserts)
//   ycsb-e  95% scan /  5% insert            zipfian, scans of 1-32 keys
//   ycsb-f  50% read / 50% read-modify-write zipfian
//   hotspot-shift  95/5 read/update, the hot 5% window jumps mid-run
//   churn   50% read / 25% insert / 25% delete, uniform over 2x records
//   insert-search  50% insert / 50% read, uniform over 2x records
//
// Positional group names pick the groups (default: all of them);
// `--smoke` shrinks the sizes for CI and `--json PATH` writes every row.
// Sim rows report simulated µs (sim_p50_us…), threads rows wall-clock µs
// (p50_us…), never in one column. The fault counters (dropped, rexmit,
// linkdown) and the lost and failed counts cover the load and the run.
// The run fails if any row loses or fails an op or takes a link down, if
// a lossy row shows no drops or no retransmits, if a lossy sim row
// retransmits more than twice per drop (selective repeat resends the
// holes only), or if a hotspot-shift row misses more than 1% of its reads
// (all its keys are loaded, so misses mean it measures the wrong path).
// Threads rows are exempt from the per-drop bound: a worker descheduled
// past the retransmission timeout resends frames that were never lost.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/affinity.h"

namespace lazytree::bench {
namespace {

constexpr Key kSpace = 1ull << 30;
/// The ycsb and loss rows' processors and `--smoke`'s: fixed, so sim rows
/// are host-independent and every loss row has remote links to fault.
constexpr uint32_t kFixedProcessors = 4;

enum class KeyModel { kZipfian, kLatest, kShift, kUniform };

struct Mix {
  const char* name;
  workload::OpMix ops;
  KeyModel keys;
};

const Mix kYcsb[] = {
    {"ycsb-a", {.insert = 0, .search = 0.5, .update = 0.5},
     KeyModel::kZipfian},
    {"ycsb-b", {.insert = 0, .search = 0.95, .update = 0.05},
     KeyModel::kZipfian},
    {"ycsb-c", {.insert = 0, .search = 1}, KeyModel::kZipfian},
    {"ycsb-d", {.insert = 0.05, .search = 0.95}, KeyModel::kLatest},
    {"ycsb-e", {.insert = 0.05, .search = 0, .scan = 0.95},
     KeyModel::kZipfian},
    {"ycsb-f", {.insert = 0, .search = 0.5, .rmw = 0.5}, KeyModel::kZipfian},
    {"hotspot-shift", {.insert = 0, .search = 0.95, .update = 0.05},
     KeyModel::kShift},
    {"churn", {.insert = 0.25, .search = 0.5, .erase = 0.25},
     KeyModel::kUniform},
};
const Mix* const kYcsbC = &kYcsb[2];
/// The loss and protocol rows' mix.
const Mix kInsertSearch = {"insert-search", {.insert = 0.5, .search = 0.5},
                           KeyModel::kUniform};

/// The loaded records in rank order: the load phase of the zipfian mixes,
/// so run-phase reads always address loaded records.
class RecordWalk : public workload::KeyDistribution {
 public:
  explicit RecordWalk(uint64_t records)
      : zipf_(records, kSpace), records_(records) {}
  Key Next(Rng&) override { return zipf_.KeyForRank(1 + next_++ % records_); }
  const char* name() const override { return "records"; }

 private:
  workload::ZipfianDist zipf_;
  uint64_t records_;
  uint64_t next_ = 0;
};

/// Hotspot whose hot 5% window of the loaded records jumps to the far half
/// of them after `shift_after` draws — the skew-migration stressor: the
/// replicas that were hot go cold and a cold path must absorb the herd.
/// The window is drawn over the loaded zipfian ranks, so every read
/// addresses a loaded record.
class ShiftingHotspot : public workload::KeyDistribution {
 public:
  ShiftingHotspot(uint64_t records, uint64_t shift_after)
      : zipf_(records, kSpace), records_(records), shift_after_(shift_after) {}
  Key Next(Rng& rng) override {
    const uint64_t span = std::max<uint64_t>(1, records_ / 20);
    const uint64_t base = ++draws_ > shift_after_ ? records_ / 2 + 1 : 1;
    const uint64_t rank = rng.Chance(0.9) ? base + rng.Below(span)
                                          : 1 + rng.Below(records_);
    return zipf_.KeyForRank(rank);
  }
  const char* name() const override { return "hotspot-shift"; }

 private:
  workload::ZipfianDist zipf_;
  uint64_t records_;
  uint64_t shift_after_;
  uint64_t draws_ = 0;
};

/// One row's key streams: `load` fills the tree, `run` addresses reads,
/// updates, scans and rmws, and `fresh` supplies run-phase inserts.
struct Keys {
  std::unique_ptr<workload::KeyDistribution> load, run, fresh;
};

Keys MakeKeys(KeyModel model, uint64_t records, uint64_t ops) {
  auto uniform = [](Key space) {
    return std::make_unique<workload::UniformDist>(space);
  };
  switch (model) {
    case KeyModel::kUniform:
      return {uniform(records * 2), uniform(records * 2),
              uniform(records * 2)};
    case KeyModel::kLatest:
      return {uniform(kSpace), std::make_unique<workload::LatestDist>(kSpace),
              uniform(kSpace)};
    case KeyModel::kShift:
      return {std::make_unique<RecordWalk>(records),
              std::make_unique<ShiftingHotspot>(records, ops / 2),
              uniform(kSpace)};
    case KeyModel::kZipfian:
      break;
  }
  return {std::make_unique<RecordWalk>(records),
          std::make_unique<workload::ZipfianDist>(records, kSpace),
          uniform(kSpace)};
}

struct RowSpec {
  const char* group;
  const Mix* mix;
  bool threads;
  ProtocolKind protocol;
  uint32_t processors;
  uint32_t window;  ///< k
  double drop;
  bool reliable;
};

struct Row {
  RowSpec spec;
  workload::DriveResult load, run;
  net::StatsSnapshot total;  ///< the cluster's counters over load and run
  uint64_t dropped = 0;      ///< messages the fault plan ate, load and run

  uint64_t lost() const { return load.lost + run.lost; }
  uint64_t failed() const { return load.failed + run.failed; }
};

Row RunRow(const RowSpec& spec, uint64_t records, uint64_t ops,
           uint64_t seed) {
  ClusterOptions o;
  o.processors = spec.processors;
  o.protocol = spec.protocol;
  o.transport = spec.threads ? TransportKind::kThreads : TransportKind::kSim;
  o.seed = seed;
  o.tree.max_entries = 8;
  o.tree.track_history = false;  // bench mode: no §3 bookkeeping
  o.check_histories = false;
  o.tree.upsert = true;  // YCSB updates are overwrites
  if (!spec.threads) {
    // Timestamped sim: 4µs one-way remote latency, 1µs jitter, so the
    // sim latency columns mean something (simulated µs).
    o.sim_latency_us = 4;
    o.sim_jitter_us = 1;
  }
  o.reliable = spec.reliable ? 1 : 0;
  if (spec.drop > 0) {
    o.faults.drop = spec.drop;
    o.faults.seed = 29;
  }
  // At 5% loss a frame's k-th retransmit is still lost with probability
  // 0.05^k, so links need a budget that survives the whole run.
  o.reliability.max_retransmits = 20;
  Cluster cluster(o);
  cluster.Start();

  Keys keys = MakeKeys(spec.mix->keys, records, ops);
  workload::DriveSpec d = InsertSearch(keys.run.get(), records, 1.0,
                                       seed ^ 0x10adull, spec.window);
  d.fresh = keys.load.get();  // keys.run learns of them (ycsb-d's ring)
  Row row;
  row.spec = spec;
  row.load = workload::Load(cluster, d);

  d.mix = spec.mix->ops;
  d.fresh = keys.fresh.get();
  d.ops = ops;
  d.seed = seed;
  row.run = workload::Drive(cluster, d);
  row.total = cluster.NetStats();
  if (cluster.faulty() != nullptr) row.dropped = cluster.faulty()->dropped();
  return row;
}

std::vector<RowSpec> Rows(const std::vector<std::string>& groups,
                          uint32_t cores) {
  auto wanted = [&](const char* g) {
    return groups.empty() ||
           std::find(groups.begin(), groups.end(), g) != groups.end();
  };
  const ProtocolKind semi = ProtocolKind::kSemiSyncSplit;
  std::vector<RowSpec> rows;
  if (wanted("ycsb")) {
    for (const Mix& mix : kYcsb) {
      for (bool threads : {false, true}) {
        rows.push_back(
            {"ycsb", &mix, threads, semi, kFixedProcessors, 32, 0, false});
      }
    }
  }
  if (wanted("loss")) {
    for (bool threads : {false, true}) {
      rows.push_back({"loss", &kInsertSearch, threads, semi,
                      kFixedProcessors, 32, 0, false});
      for (double drop : {0.0, 0.001, 0.01, 0.05}) {
        rows.push_back({"loss", &kInsertSearch, threads, semi,
                        kFixedProcessors, 32, drop, true});
      }
    }
  }
  if (wanted("protocols")) {
    for (ProtocolKind p : {ProtocolKind::kNaive, ProtocolKind::kSyncSplit,
                           semi}) {
      rows.push_back(
          {"protocols", &kInsertSearch, true, p, cores, 32, 0, false});
    }
  }
  if (wanted("scaling")) {
    for (uint32_t k : {1u, 4u, 16u, 32u, 64u}) {
      rows.push_back({"scaling", kYcsbC, true, semi, cores, k, 0, false});
    }
    for (uint32_t p = 1; p < cores; p *= 2) {
      rows.push_back({"scaling", kYcsbC, true, semi, p, 32, 0, false});
    }
    rows.push_back({"scaling", kYcsbC, true, semi, cores, 32, 0, false});
  }
  return rows;
}

/// The gate failures of one row (empty when it passes).
std::string CheckRow(const Row& r) {
  std::string why;
  auto fail = [&why](const std::string& what) { why += " " + what + ";"; };
  if (r.lost() > 0) fail(std::to_string(r.lost()) + " ops lost");
  if (r.failed() > 0) fail(std::to_string(r.failed()) + " ops failed");
  if (r.total.link_down > 0) fail("a link went down");
  if (r.spec.drop > 0 && (r.dropped == 0 || r.total.retransmits == 0)) {
    fail("loss without drops or retransmissions");
  }
  if (!r.spec.threads && r.spec.drop > 0 &&
      r.total.retransmits > 2 * r.dropped) {
    fail(std::to_string(r.total.retransmits) + " retransmits for " +
         std::to_string(r.dropped) + " drops (> 2 per drop)");
  }
  if (std::strcmp(r.spec.mix->name, "hotspot-shift") == 0 &&
      r.run.not_found * 100 > r.run.completed) {
    fail("hotspot-shift not_found " + std::to_string(r.run.not_found) +
         " > 1%");
  }
  return why;
}

std::string Latency(const Row& r, bool sim, double p) {
  return r.run.sim_us == sim ? Fmt("%.1f", r.run.latency_us.Percentile(p))
                             : "-";
}

void PrintRows(const std::vector<Row>& rows) {
  // Wall-clock and simulated percentiles get separate columns.
  Table table({"mix          ", "transport", "protocol", "P", "k", "drop%",
               "rel", "ops/s", "p50us", "p99us", "sim_p50us", "sim_p99us",
               "rmsg/op", "comb/op", "fast/op", "not_found", "failed",
               "lost", "dropped", "rexmit", "pureack", "linkdown"});
  const char* group = "";
  for (const Row& r : rows) {
    if (std::strcmp(group, r.spec.group) != 0) {
      group = r.spec.group;
      std::printf("\n[%s]\n", group);
      table.Header();
    }
    const net::StatsSnapshot& n = r.run.net;
    table.Row({r.spec.mix->name, r.spec.threads ? "threads" : "sim",
               ProtocolKindName(r.spec.protocol), FmtU(r.spec.processors),
               FmtU(r.spec.window), Fmt("%.1f", r.spec.drop * 100),
               r.spec.reliable ? "yes" : "no",
               Fmt("%.0f", r.run.OpsPerSec()), Latency(r, false, 50),
               Latency(r, false, 99), Latency(r, true, 50),
               Latency(r, true, 99),
               Fmt("%.2f", r.run.PerOp(n.remote_messages)),
               Fmt("%.2f", r.run.PerOp(n.combined_actions)),
               Fmt("%.2f", r.run.PerOp(n.fastpath_reads)),
               FmtU(r.run.not_found), FmtU(r.failed()), FmtU(r.lost()),
               FmtU(r.dropped), FmtU(r.total.retransmits),
               FmtU(r.total.pure_acks), FmtU(r.total.link_down)});
  }
  std::printf("\n");
}

void WriteJson(const std::string& path, const std::vector<Row>& rows,
               uint64_t records, uint64_t ops, uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"scenario rows\",\n  \"seed\": %llu,\n"
               "  \"records\": %llu,\n  \"ops\": %llu,\n"
               "  \"hardware_threads\": %u,\n  \"rows\": [\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(records),
               static_cast<unsigned long long>(ops), AvailableCpus());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const net::StatsSnapshot& n = r.run.net;
    const Histogram& lat = r.run.latency_us;
    const char* p = r.run.sim_us ? "sim_" : "";
    std::fprintf(
        f,
        "    {\"group\": \"%s\", \"mix\": \"%s\", \"transport\": \"%s\", "
        "\"protocol\": \"%s\", \"processors\": %u, \"window\": %u, "
        "\"drop_pct\": %.1f, \"reliable\": %s,\n     \"ops_per_sec\": %.0f, "
        "\"%sp50_us\": %.1f, \"%sp95_us\": %.1f, \"%sp99_us\": %.1f, "
        "\"%sp999_us\": %.1f,\n     \"remote_msgs_per_op\": %.2f, "
        "\"combined_actions_per_op\": %.2f, \"fastpath_hops_per_op\": %.2f, "
        "\"load_seconds\": %.2f,\n     \"completed\": %llu, "
        "\"not_found\": %llu, \"failed\": %llu, \"lost\": %llu, "
        "\"messages_dropped\": %llu, \"retransmits\": %llu, "
        "\"duplicates_dropped\": %llu, \"acks_piggybacked\": %llu, "
        "\"pure_acks\": %llu, \"link_down\": %llu}%s\n",
        r.spec.group, r.spec.mix->name, r.spec.threads ? "threads" : "sim",
        ProtocolKindName(r.spec.protocol), r.spec.processors, r.spec.window,
        r.spec.drop * 100, r.spec.reliable ? "true" : "false",
        r.run.OpsPerSec(), p, lat.P50(), p, lat.P95(), p, lat.P99(), p,
        lat.P999(), r.run.PerOp(n.remote_messages),
        r.run.PerOp(n.combined_actions), r.run.PerOp(n.fastpath_reads),
        r.load.seconds, static_cast<unsigned long long>(r.run.completed),
        static_cast<unsigned long long>(r.run.not_found),
        static_cast<unsigned long long>(r.failed()),
        static_cast<unsigned long long>(r.lost()),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.total.retransmits),
        static_cast<unsigned long long>(r.total.duplicates_dropped),
        static_cast<unsigned long long>(r.total.acks_piggybacked),
        static_cast<unsigned long long>(r.total.pure_acks),
        static_cast<unsigned long long>(r.total.link_down),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run(int argc, char** argv) {
  std::string json_path;
  uint64_t records = 50000;
  uint64_t ops = 30000;
  uint32_t procs = AvailableCpus();  // the protocols and scaling rows
  const uint64_t seed = 1;
  std::vector<std::string> groups;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      procs = kFixedProcessors;
      records = 2000;
      ops = 2000;
    } else if (arg == "--records" && i + 1 < argc) {
      records = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--ops" && i + 1 < argc) {
      ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--procs" && i + 1 < argc) {
      procs = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "ycsb" || arg == "loss" || arg == "protocols" ||
               arg == "scaling") {
      groups.push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--smoke] [--records N] "
                   "[--ops N] [--procs N] [ycsb|loss|protocols|scaling]...\n",
                   argv[0]);
      return 2;
    }
  }

  Banner("E-YCSB", "scenario rows over workload::Drive",
         "YCSB A-F + hotspot-shift + churn on both transports, the loss\n"
         "sweep, the protocol rows and the two-axis scaling grid.");
  std::printf("records=%llu ops=%llu processors: ycsb/loss %u, "
              "protocols/scaling %u; hardware_threads=%u\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops), kFixedProcessors, procs,
              AvailableCpus());

  std::vector<Row> rows;
  int bad_rows = 0;
  for (const RowSpec& spec : Rows(groups, procs)) {
    rows.push_back(RunRow(spec, records, ops, seed));
    const std::string why = CheckRow(rows.back());
    if (!why.empty()) {
      std::fprintf(stderr, "FAILED: %s %s/%s P=%u k=%u drop=%.1f%%:%s\n",
                   spec.group, spec.mix->name,
                   spec.threads ? "threads" : "sim", spec.processors,
                   spec.window, spec.drop * 100, why.c_str());
      ++bad_rows;
    }
  }
  PrintRows(rows);
  if (!json_path.empty()) {
    WriteJson(json_path, rows, records, ops, seed);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return bad_rows > 0 ? 1 : 0;
}

}  // namespace
}  // namespace lazytree::bench

int main(int argc, char** argv) {
  return lazytree::bench::Run(argc, argv);
}
