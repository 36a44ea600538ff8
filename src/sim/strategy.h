// Delivery strategies for schedule exploration.
//
// Three policies over SimNetwork's per-step channel choice:
//
//   * UniformStrategy — the simulator's historical behavior, made explicit
//     so every explorer episode flows through the same hook.
//   * PctStrategy — PCT-style priority scheduling (Burckhardt et al.,
//     "A Randomized Scheduler with Probabilistic Guarantees of Finding
//     Bugs"). Each channel gets a random priority on first sight; the
//     highest-priority non-empty channel always delivers next, except at
//     d-1 random change points where the running channel's priority drops
//     below everything. Small depths d reach deep reorderings (a starved
//     relay overtaking a split) with probability >= 1/(n * k^(d-1)) —
//     far better odds than uniform sampling.
//   * StarvationStrategy — targeted adversary: all channels into one
//     victim processor are starved while any other channel has work,
//     modeling one arbitrarily slow link (the §4.1.2/§4.3 races are all
//     "relay delayed past a structure change"). A fairness cap bounds the
//     starvation window so episodes still quiesce.
//
// Strategies are deterministic functions of (seed, observed call
// sequence); a (strategy, seed, workload) triple therefore names a
// schedule exactly, and the recorded trace (trace.h) replays it.

#ifndef LAZYTREE_SIM_STRATEGY_H_
#define LAZYTREE_SIM_STRATEGY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/schedule_hook.h"
#include "src/util/rng.h"

namespace lazytree::sim {

enum class StrategyKind : uint8_t {
  kUniform = 0,
  kPct = 1,
  kStarve = 2,
};

const char* StrategyKindName(StrategyKind kind);

/// Parses "uniform" / "pct" / "starve"; returns false on unknown names.
bool ParseStrategyKind(const std::string& name, StrategyKind* out);

/// Uniform-random channel choice (the legacy SimNetwork policy).
class UniformStrategy : public net::ScheduleStrategy {
 public:
  explicit UniformStrategy(uint64_t seed) : rng_(seed) {}

  const char* name() const override { return "uniform"; }
  size_t PickChannel(const std::vector<net::ChannelView>& channels) override {
    return rng_.Below(channels.size());
  }

 private:
  Rng rng_;
};

/// PCT-style priority scheduler over channels.
class PctStrategy : public net::ScheduleStrategy {
 public:
  /// `depth` is the PCT bug depth d (number of ordering constraints the
  /// schedule can force; d-1 change points are sampled). `expected_events`
  /// is the k the change points are sampled from — an upper estimate of
  /// the episode's delivery count.
  PctStrategy(uint64_t seed, uint32_t depth, uint64_t expected_events);

  const char* name() const override { return "pct"; }
  size_t PickChannel(const std::vector<net::ChannelView>& channels) override;

  uint64_t change_points_hit() const { return change_points_hit_; }

 private:
  using ChannelKey = std::pair<ProcessorId, ProcessorId>;
  uint64_t PriorityOf(const ChannelKey& key);

  Rng rng_;
  std::vector<uint64_t> change_points_;  // descending; back() is next
  std::map<ChannelKey, uint64_t> priorities_;
  uint64_t steps_ = 0;
  // Demoted priorities count down from kDemotedBase so each demotion lands
  // strictly below every earlier one; initial priorities sit above.
  static constexpr uint64_t kDemotedBase = 1ull << 32;
  uint64_t next_demoted_ = kDemotedBase;
  uint64_t change_points_hit_ = 0;
};

/// Starves every channel into one victim processor.
class StarvationStrategy : public net::ScheduleStrategy {
 public:
  StarvationStrategy(uint64_t seed, ProcessorId victim,
                     uint32_t max_starve = 128);

  const char* name() const override { return "starve"; }
  size_t PickChannel(const std::vector<net::ChannelView>& channels) override;

  ProcessorId victim() const { return victim_; }

 private:
  Rng rng_;
  ProcessorId victim_;
  uint32_t max_starve_;   // fairness cap: forced victim delivery after this
  uint32_t starved_run_ = 0;
  std::vector<size_t> candidates_;  // scratch
};

/// Parameters for MakeStrategy.
struct StrategyOptions {
  StrategyKind kind = StrategyKind::kUniform;
  uint64_t seed = 1;
  uint32_t pct_depth = 3;
  uint64_t pct_expected_events = 4096;
  ProcessorId starve_victim = 0;
  uint32_t starve_cap = 128;
  friend bool operator==(const StrategyOptions&, const StrategyOptions&) =
      default;
};

std::unique_ptr<net::ScheduleStrategy> MakeStrategy(
    const StrategyOptions& options);

}  // namespace lazytree::sim

#endif  // LAZYTREE_SIM_STRATEGY_H_
