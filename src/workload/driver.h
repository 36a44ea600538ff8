// Closed-loop workload driver: keeps `window` operations outstanding
// against a Cluster on either transport and reports how every one of
// them ended.
//
// Ops come from a Generator drawn on the calling thread only, so one
// seed gives one op stream on either transport. On the sim each
// completion callback submits the next op from inside Settle (the sim's
// execution loop). On threads the caller polls per-slot done flags and
// submits from its own thread, as perfbench's driver does. Keeping k ops
// outstanding per client is SMART's run_coroutine(..., coro_cnt) idea.

#ifndef LAZYTREE_WORKLOAD_DRIVER_H_
#define LAZYTREE_WORKLOAD_DRIVER_H_

#include <chrono>
#include <optional>

#include "src/net/stats.h"
#include "src/util/histogram.h"
#include "src/workload/generator.h"

namespace lazytree {
class Cluster;
}  // namespace lazytree

namespace lazytree::workload {

/// Sim: the Settle budget. Threads: the longest wait for any completion
/// before the outstanding ops are declared lost.
inline constexpr std::chrono::seconds kDriveTimeout{30};

struct DriveSpec {
  OpMix mix;
  /// Keys for searches, updates, scans and rmws; told of every write
  /// that completes OK (KeyDistribution::Completed). Required.
  KeyDistribution* keys = nullptr;
  /// Keys for inserts; null draws them from `keys`.
  KeyDistribution* fresh = nullptr;
  uint64_t ops = 0;
  uint32_t window = 32;  ///< k: operations kept outstanding
  uint64_t seed = 1;
  /// Submit every op at this processor; unset spreads them uniformly.
  std::optional<ProcessorId> home;
};

struct DriveResult {
  uint64_t completed = 0;  ///< ops whose callback ran, whatever the status
  uint64_t not_found = 0;
  uint64_t failed = 0;  ///< status other than OK, NotFound, AlreadyExists
  uint64_t lost = 0;    ///< never completed before kDriveTimeout
  double seconds = 0;   ///< wall time from the first submit to quiescence
  Histogram hops;       ///< node visits per op
  /// Submit-to-completion latency: simulated µs when `sim_us` (sim
  /// transport), wall-clock µs otherwise. Never mix the two.
  Histogram latency_us;
  bool sim_us = false;
  net::StatsSnapshot net;  ///< delta over the run, after a final Settle

  /// Ops submitted: short of DriveSpec::ops once lost ops hold every slot.
  uint64_t ops() const { return completed + lost; }
  double OpsPerSec() const {
    return seconds > 0 ? static_cast<double>(ops()) / seconds : 0;
  }
  /// `count` per op, e.g. PerOp(net.remote_messages).
  double PerOp(uint64_t count) const {
    return ops() ? static_cast<double>(count) / static_cast<double>(ops())
                 : 0;
  }
};

/// Runs `spec.ops` operations with `spec.window` outstanding and returns
/// once every op completed or was declared lost; never hangs.
DriveResult Drive(Cluster& cluster, const DriveSpec& spec);

/// Insert-only traffic through the same loop (`spec.mix` is ignored):
/// the load phase before a measured run.
DriveResult Load(Cluster& cluster, DriveSpec spec);

}  // namespace lazytree::workload

#endif  // LAZYTREE_WORKLOAD_DRIVER_H_
