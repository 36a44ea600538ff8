// Transport microbenchmark: the raw ThreadNetwork message hot path.
//
// Measures msgs/sec,
// actions/sec and delivery latency (p50/p99) of zero-copy delivery, over
// three coalesced-message mixes shaped like what the processors' outboxes
// hand the transport: pure relayed-insert batches, a mixed stream with
// occasional snapshot-bearing split relays, and a split-heavy stream
// where every action carries a node snapshot (the |copies(n)| relay
// traffic the paper's lazy protocols generate). End-to-end protocol
// throughput lives in bench_scenarios' `protocols` rows.
//
// `--json PATH` writes the full result set (bench_transport.json in the
// build directory via the `lazytree_bench` target); `--smoke` runs only the
// 2-second microbenchmark as a perf-path compile regression check
// (`ctest -L bench`). Build with -DCMAKE_BUILD_TYPE=Release for numbers
// worth recording.

#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench/bench_util.h"
#include "src/net/thread_network.h"
#include "src/util/histogram.h"
#include "src/util/logging.h"
#include "src/util/threading.h"

namespace lazytree {
namespace {

/// Per-station sink: timestamps carried in Action::value become delivery
/// latency samples. Each station's histogram is touched only by its own
/// worker thread; merged after Stop.
class LatencySink : public net::Receiver {
 public:
  void Deliver(Message m) override {
    ++delivered_msgs_;
    delivered_actions_ += m.actions.size();
    // Blast mode sends value==0 (untimed): saturated-queue latency is a
    // queue-depth artifact, so only paced sends carry timestamps.
    if (!m.actions.empty() && m.actions[0].value != 0) {
      latency_us_.Record((NowNanos() - m.actions[0].value) / 1000);
    }
  }
  Histogram latency_us_;
  uint64_t delivered_msgs_ = 0;
  uint64_t delivered_actions_ = 0;
};

struct TransportResult {
  uint64_t messages = 0;
  uint64_t actions = 0;
  double msgs_per_sec = 0;
  double actions_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// A coalesced-message shape: `actions_per_msg` actions per message,
/// every `split_every`-th action a kRelayedSplit carrying a
/// `split_entries`-entry node snapshot (the rest are kRelayedInsert).
/// `split_every` larger than `actions_per_msg` means no snapshots.
struct MixSpec {
  const char* name;
  int actions_per_msg;
  int split_every;
  int split_entries;
};

constexpr MixSpec kMixes[] = {
    // Bare coalesced inserts: per-message overhead dominates.
    {"inserts", 8, 1 << 20, 0},
    // Occasional split relay riding an insert batch.
    {"mixed", 8, 4, 24},
    // All-split relay stream (node snapshots at the repo's max_entries):
    // per-action serialization cost dominates. Headline mix.
    {"splits", 16, 1, 24},
};

/// `senders` producer threads blast coalesced messages at `stations`
/// receivers for `seconds`; the clock stops at quiescence so the rate
/// counts fully handled messages, not enqueues. Every burst ends with
/// WaitQuiescent, which bounds inbox depth (the queues are unbounded)
/// without putting any per-message synchronization on the measured path.
/// In `paced` mode a single sender uses small bursts, so the latency
/// percentiles measure per-message delivery cost instead of saturated
/// queue depth.
///
TransportResult RunTransportBench(const MixSpec& mix, int stations,
                                  int senders, double seconds,
                                  bool paced = false) {
  if (paced) senders = 1;
  const int actions_per_msg = mix.actions_per_msg;
  const int split_every = mix.split_every;
  const int split_entries = mix.split_entries;
  net::ThreadNetwork net;
  std::vector<std::unique_ptr<LatencySink>> sinks;
  for (ProcessorId id = 0; id < static_cast<ProcessorId>(stations); ++id) {
    sinks.push_back(std::make_unique<LatencySink>());
    net.Register(id, sinks.back().get());
  }
  net.Start();

  NodeSnapshot split_snapshot;
  split_snapshot.id = NodeId::Make(1, 42);
  split_snapshot.range = {1000, 1000 + static_cast<Key>(split_entries)};
  split_snapshot.copies = {0, 1, 2};
  split_snapshot.pc = 0;
  for (Key k = 1000; k < 1000 + static_cast<Key>(split_entries); ++k) {
    split_snapshot.entries.push_back({k, k});
  }

  std::atomic<uint64_t> sent_msgs{0};
  std::atomic<uint64_t> sent_actions{0};
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t t0 = NowNanos();
  std::vector<std::thread> producers;
  for (int s = 0; s < senders; ++s) {
    producers.emplace_back([&, s] {
      uint64_t msgs = 0;
      uint64_t actions = 0;
      ProcessorId to = static_cast<ProcessorId>(s % stations);
      const int burst_size = paced ? 16 : 256;
      while (NowNanos() < deadline) {
        for (int burst = 0; burst < burst_size; ++burst) {
          Message m;
          m.from = static_cast<ProcessorId>(s % stations);
          to = static_cast<ProcessorId>((to + 1) % stations);
          m.to = to;
          m.actions.reserve(actions_per_msg);
          const uint64_t stamp = paced ? NowNanos() : 0;
          for (int i = 0; i < actions_per_msg; ++i) {
            Action a;
            if (i % split_every == split_every - 1) {
              a.kind = ActionKind::kRelayedSplit;
              a.snapshot = split_snapshot;
            } else {
              a.kind = ActionKind::kRelayedInsert;
            }
            a.key = actions + static_cast<uint64_t>(i);
            a.value = stamp;
            m.actions.push_back(std::move(a));
          }
          actions += m.actions.size();
          net.Send(std::move(m));
          ++msgs;
        }
        net.WaitQuiescent(std::chrono::milliseconds(paced ? 100 : 10000));
      }
      sent_msgs.fetch_add(msgs);
      sent_actions.fetch_add(actions);
    });
  }
  for (auto& t : producers) t.join();
  bool quiesced = net.WaitQuiescent(std::chrono::milliseconds(60000));
  const double elapsed = (NowNanos() - t0) * 1e-9;
  net.Stop();
  LAZYTREE_CHECK(quiesced) << "transport bench did not quiesce";

  Histogram merged;
  uint64_t delivered_msgs = 0;
  uint64_t delivered_actions = 0;
  for (auto& sink : sinks) {
    merged.Merge(sink->latency_us_);
    delivered_msgs += sink->delivered_msgs_;
    delivered_actions += sink->delivered_actions_;
  }
  LAZYTREE_CHECK(delivered_msgs == sent_msgs.load() &&
                 delivered_actions == sent_actions.load())
      << "lost messages: sent " << sent_msgs.load() << " delivered "
      << delivered_msgs;

  TransportResult r;
  r.messages = sent_msgs.load();
  r.actions = sent_actions.load();
  r.msgs_per_sec = r.messages / elapsed;
  r.actions_per_sec = r.actions / elapsed;
  r.p50_us = merged.P50();
  r.p99_us = merged.P99();
  return r;
}

// --- driver ---

struct MixResult {
  const MixSpec* mix;
  TransportResult result;
};

void WriteJson(const std::string& path,
               const std::vector<MixResult>& mixes) {
  std::ofstream out(path);
  LAZYTREE_CHECK(out.good()) << "cannot write " << path;
  char buf[512];
  out << "{\n  \"bench\": \"transport hot path\",\n";
  std::snprintf(buf, sizeof(buf), "  \"hardware_threads\": %u,\n",
                std::thread::hardware_concurrency());
  out << buf;
  out << "  \"mixes\": [\n";
  for (size_t i = 0; i < mixes.size(); ++i) {
    const MixResult& m = mixes[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mix\": \"%s\", \"actions_per_msg\": %d, \"messages\": %llu, "
        "\"msgs_per_sec\": %.0f, \"actions_per_sec\": %.0f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
        m.mix->name, m.mix->actions_per_msg,
        static_cast<unsigned long long>(m.result.messages),
        m.result.msgs_per_sec, m.result.actions_per_sec, m.result.p50_us,
        m.result.p99_us, i + 1 < mixes.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int Run(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  double seconds = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--smoke] [--seconds N]\n",
                   argv[0]);
      return 2;
    }
  }
#ifndef NDEBUG
  std::printf(
      "WARNING: assertions are enabled (Debug/Sanitize build); use\n"
      "  cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release\n"
      "for numbers worth recording.\n\n");
#endif

  bench::Banner(
      "T1", "transport hot path — zero-copy delivery",
      "msgs/sec, actions/sec and delivery latency through ThreadNetwork\n"
      "for three coalesced-message mixes (4 senders -> 4 stations):\n"
      "  inserts  8 relayed inserts per message, no snapshots\n"
      "  mixed    8 actions per message, every 4th a 24-entry split relay\n"
      "  splits   16 split relays per message, 24-entry snapshots each");

  if (smoke) {
    // Perf-path compile regression check: just prove the transport moves
    // messages end to end at a sane rate.
    TransportResult fast = RunTransportBench(kMixes[1], 4, 4, seconds);
    std::printf("smoke: %llu msgs, %.0f msgs/sec, p50 %.1fµs p99 %.1fµs\n",
                static_cast<unsigned long long>(fast.messages),
                fast.msgs_per_sec, fast.p50_us, fast.p99_us);
    LAZYTREE_CHECK(fast.messages > 0) << "no messages delivered";
    return 0;
  }

  // Throughput from the saturating blast; latency from a paced run where
  // queues stay shallow.
  auto measure = [&](const MixSpec& mix) {
    TransportResult r = RunTransportBench(mix, 4, 4, seconds);
    TransportResult paced =
        RunTransportBench(mix, 4, 1, seconds / 4, /*paced=*/true);
    r.p50_us = paced.p50_us;
    r.p99_us = paced.p99_us;
    return r;
  };
  std::vector<MixResult> mixes;
  bench::Table table(
      {"mix", "msgs/sec", "actions/sec", "p50 µs", "p99 µs"});
  table.Header();
  for (const MixSpec& mix : kMixes) {
    MixResult m{&mix, measure(mix)};
    table.Row({mix.name, bench::Fmt("%.0f", m.result.msgs_per_sec),
               bench::Fmt("%.0f", m.result.actions_per_sec),
               bench::Fmt("%.1f", m.result.p50_us),
               bench::Fmt("%.1f", m.result.p99_us)});
    mixes.push_back(m);
  }

  if (!json_path.empty()) {
    WriteJson(json_path, mixes);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace lazytree

int main(int argc, char** argv) { return lazytree::Run(argc, argv); }
