// Replayable schedule traces.
//
// A trace is the complete record of every nondeterministic decision one
// sim episode made: which channel delivered at each step, whether the
// message was delivered / dropped / duplicated, and where crash/restart
// events interleaved. The key-value header is the serialized
// EpisodeConfig (EpisodeHeader / ParseEpisodeHeader in explorer.h), plus
// the provenance keys `result`, `failure` and `minimized`. Because the
// workload is itself a pure function of that config, a trace alone
// replays the episode bit-for-bit — including the checker violation a
// failing episode found.
//
// Text format: the header, `--`, then one decision per line:
//
//   # lazytree schedule trace v1
//   protocol semisync
//   strategy pct
//   seed 42
//   ...
//   --
//   D 0 3     <- delivered the head of channel (0 -> 3)
//   X 2 4     <- dropped it (injected fault or crashed destination)
//   U 1 0     <- delivered it twice (duplication fault)
//   C 2       <- processor 2 crashed here
//   R 2       <- processor 2 restarted here
//
// The minimizer (minimize.h) edits traces — un-faulting X/U lines and
// deleting C/R pairs — and checks each candidate still fails by replay.

#ifndef LAZYTREE_SIM_TRACE_H_
#define LAZYTREE_SIM_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/net/schedule_hook.h"
#include "src/util/statusor.h"

namespace lazytree::sim {

struct TraceEvent {
  enum class Kind : uint8_t {
    kDeliver = 0,    // D from to
    kDrop = 1,       // X from to
    kDuplicate = 2,  // U from to
    kCrash = 3,      // C proc   (stored in `to`)
    kRestart = 4,    // R proc   (stored in `to`)
  };
  Kind kind = Kind::kDeliver;
  ProcessorId from = 0;
  ProcessorId to = 0;

  bool is_control() const {
    return kind == Kind::kCrash || kind == Kind::kRestart;
  }
  bool is_fault() const {
    return kind == Kind::kDrop || kind == Kind::kDuplicate;
  }
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct ScheduleTrace {
  /// The header: EpisodeHeader(config) plus provenance. Sorted map so
  /// serialization is canonical: identical episodes produce identical
  /// bytes, which the regression test relies on.
  std::map<std::string, std::string> meta;
  std::vector<TraceEvent> events;

  size_t FaultCount() const;
  size_t ControlCount() const;

  std::string Serialize() const;
  static StatusOr<ScheduleTrace> Parse(const std::string& text);

  Status SaveFile(const std::string& path) const;
  static StatusOr<ScheduleTrace> LoadFile(const std::string& path);
};

/// Records one episode's decisions (attach via SimNetwork::SetObserver).
class TraceRecorder : public net::DeliveryObserver {
 public:
  void OnDelivery(const Message& m, net::DeliveryOutcome outcome) override;
  void OnCrash(ProcessorId p) override;
  void OnRestart(ProcessorId p) override;

  ScheduleTrace& trace() { return trace_; }
  const ScheduleTrace& trace() const { return trace_; }

 private:
  ScheduleTrace trace_;
};

/// Drives SimNetwork down a recorded schedule.
///
/// Delivery events are consumed by PickChannel/ForceOutcome; control
/// events (crash/restart) must be consumed by the episode driver via
/// PeekControl/AdvanceControl *before* the next Step, since applying them
/// needs Cluster. After the trace is exhausted — or an edited trace
/// diverges from what the system actually does — the replayer falls back
/// to a deterministic drain: lowest channel first, always deliver.
class ReplayStrategy : public net::ScheduleStrategy {
 public:
  explicit ReplayStrategy(const ScheduleTrace& trace) : trace_(trace) {}

  const char* name() const override { return "replay"; }
  size_t PickChannel(const std::vector<net::ChannelView>& channels) override;
  std::optional<net::DeliveryOutcome> ForceOutcome() override {
    return forced_;
  }

  /// Next unconsumed event iff it is a crash/restart, else nullptr.
  const TraceEvent* PeekControl() const;
  void AdvanceControl();

  /// Events that could not be matched to a live channel, plus those never
  /// reached (> 0 means the trace was edited or the config does not
  /// match).
  uint64_t diverged() const {
    return diverged_ + (trace_.events.size() - cursor_);
  }

 private:
  const ScheduleTrace& trace_;
  size_t cursor_ = 0;
  uint64_t diverged_ = 0;
  std::optional<net::DeliveryOutcome> forced_;
};

}  // namespace lazytree::sim

#endif  // LAZYTREE_SIM_TRACE_H_
