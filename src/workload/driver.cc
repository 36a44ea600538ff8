#include "src/workload/driver.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/util/logging.h"
#include "src/util/threading.h"

namespace lazytree::workload {

namespace {

struct Slot {
  // Written on the submitting thread.
  GenOp op;
  ProcessorId home = 0;
  uint64_t start_us = 0;
  bool reading = false;  ///< an rmw whose search half is outstanding
  // Written by the completion callback, read after `done`.
  Status status;
  Value value = 0;
  uint32_t hops = 0;
  std::atomic<bool> done{false};
};

/// One run. Every callback holds a reference, so an op that completes
/// after Drive declared it lost still writes into live memory.
class Run : public std::enable_shared_from_this<Run> {
 public:
  Run(Cluster& cluster, const DriveSpec& spec)
      : cluster_(cluster),
        spec_(spec),
        gen_(spec.mix, spec.keys, spec.seed, spec.fresh),
        rng_(spec.seed ^ 0x686f6d65ull),
        slots_(spec.ops < spec.window ? spec.ops : spec.window) {
    LAZYTREE_CHECK(spec.window > 0) << "drive window must be positive";
    result_.sim_us = cluster.sim() != nullptr;
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  DriveResult Go() {
    const net::StatsSnapshot before = cluster_.NetStats();
    const uint64_t t0 = NowNanos();
    for (size_t i = 0; i < slots_.size(); ++i) Launch(i);
    if (!result_.sim_us) PollThreads();
    // On the sim this runs every callback, so every op.
    cluster_.Settle(kDriveTimeout);
    finished_ = true;  // a later Settle must not resume the stream
    result_.seconds = static_cast<double>(NowNanos() - t0) * 1e-9;
    result_.lost = outstanding_;
    result_.net = cluster_.NetStats() - before;
    return result_;
  }

 private:
  uint64_t NowUs() const {
    return result_.sim_us ? cluster_.sim()->NowUs() : NowNanos() / 1000;
  }

  /// Draws the next op into slot `i` and submits it, unless the run has
  /// issued all its ops.
  void Launch(size_t i) {
    if (issued_ == spec_.ops) return;
    ++issued_;
    ++outstanding_;
    Slot& s = slots_[i];
    s.op = gen_.Next();
    s.home = spec_.home.has_value()
                 ? *spec_.home
                 : static_cast<ProcessorId>(rng_.Below(cluster_.size()));
    s.reading = s.op.type == GenOp::Type::kRmw;
    s.hops = 0;
    s.start_us = NowUs();
    Submit(i, s.op.value);
  }

  void Submit(size_t i, Value value) {
    Slot& s = slots_[i];
    auto cb = [self = shared_from_this(), i](const OpResult& r) {
      self->OnComplete(i, r);
    };
    switch (s.reading ? GenOp::Type::kSearch : s.op.type) {
      case GenOp::Type::kInsert:
      case GenOp::Type::kRmw:
        cluster_.InsertAsync(s.home, s.op.key, value, std::move(cb));
        break;
      case GenOp::Type::kSearch:
        cluster_.SearchAsync(s.home, s.op.key, std::move(cb));
        break;
      case GenOp::Type::kDelete:
        cluster_.DeleteAsync(s.home, s.op.key, std::move(cb));
        break;
      case GenOp::Type::kScan:
        cluster_.ScanAsync(s.home, s.op.key, s.op.scan_limit,
                           std::move(cb));
        break;
    }
  }

  /// Any thread on the threads transport; inside Settle on the sim.
  void OnComplete(size_t i, const OpResult& r) {
    Slot& s = slots_[i];
    s.status = r.status;
    s.value = r.value;
    s.hops += r.hops;
    if (!result_.sim_us) {
      s.done.store(true, std::memory_order_release);
    } else if (!finished_) {
      Finish(i);
    }
  }

  /// Submitting thread: accounts a completed op and refills its slot.
  void Finish(size_t i) {
    Slot& s = slots_[i];
    // The rmw's write half; a read half that failed ends the rmw with
    // its own status.
    if (s.reading && (s.status.ok() || s.status.IsNotFound())) {
      s.reading = false;
      Submit(i, s.status.ok() ? s.value + 1 : 1);
      return;
    }
    ++result_.completed;
    result_.hops.Record(s.hops);
    result_.latency_us.Record(NowUs() - s.start_us);
    if (s.status.IsNotFound()) {
      ++result_.not_found;
    } else if (!s.status.ok() && !s.status.IsAlreadyExists()) {
      ++result_.failed;
    } else if (s.status.ok() && (s.op.type == GenOp::Type::kInsert ||
                                 s.op.type == GenOp::Type::kRmw)) {
      spec_.keys->Completed(s.op.key);
    }
    --outstanding_;
    Launch(i);
  }

  void PollThreads() {
    uint64_t last_progress = NowNanos();
    const uint64_t stall_ns =
        std::chrono::nanoseconds(kDriveTimeout).count();
    while (outstanding_ > 0) {
      bool progressed = false;
      for (size_t i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (!s.done.load(std::memory_order_acquire)) continue;
        s.done.store(false, std::memory_order_relaxed);
        progressed = true;
        Finish(i);
      }
      const uint64_t now = NowNanos();
      if (progressed) {
        last_progress = now;
      } else if (now - last_progress > stall_ns) {
        return;  // the outstanding ops are lost
      } else if (now - last_progress > 1000000) {
        // A millisecond without completions: stop competing for a core.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else {
        std::this_thread::yield();
      }
    }
  }

  Cluster& cluster_;
  DriveSpec spec_;
  Generator gen_;
  Rng rng_;  ///< home processors, apart from the op stream
  std::vector<Slot> slots_;
  uint64_t issued_ = 0;
  uint64_t outstanding_ = 0;
  bool finished_ = false;  ///< read on the sim only: Go returned
  DriveResult result_;
};

}  // namespace

DriveResult Drive(Cluster& cluster, const DriveSpec& spec) {
  return std::make_shared<Run>(cluster, spec)->Go();
}

DriveResult Load(Cluster& cluster, DriveSpec spec) {
  spec.mix = OpMix{.insert = 1, .search = 0};
  return Drive(cluster, spec);
}

}  // namespace lazytree::workload
