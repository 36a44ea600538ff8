#include "src/sim/exhaustive.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/core/cluster.h"
#include "src/net/sim_network.h"
#include "src/sim/minimize.h"
#include "src/util/logging.h"

namespace lazytree::sim {
namespace {

using ChannelKey = std::pair<ProcessorId, ProcessorId>;

/// One DFS decision: deliver the head of `channel`, or (bounded-drop mode)
/// pop and discard it, leaving recovery to the reliable layer's
/// retransmission timers. Drops are ordinary tree branches — deterministic,
/// replayable, and counted against VerifyConfig::drop_budget.
struct Choice {
  ChannelKey channel;
  bool drop = false;
};

inline bool operator==(const Choice& a, const Choice& b) {
  return a.channel == b.channel && a.drop == b.drop;
}

/// Canonical fingerprint of the complete configuration at a decision
/// point: every processor's store / op tracker / AAS registry / protocol
/// handler, the shared history log, all in-flight messages, and the
/// episode's progress counters (round, deliveries-this-round, completed
/// operation outcomes). Two states with equal fingerprints are treated as
/// identical by the dedup cache, so every canonicalization rule lives in
/// the MixState implementations this composes.
uint64_t StateFingerprint(Cluster& cluster, net::SimNetwork& sim,
                          const std::vector<EpisodeOp>& ops, uint32_t round,
                          uint64_t picks, uint64_t drops) {
  Fingerprint fp;
  for (ProcessorId p = 0; p < cluster.size(); ++p) {
    Processor& proc = cluster.processor(p);
    fp.Mix(p);
    fp.Mix(proc.crashed() ? 1 : 0);
    fp.Mix(proc.crash_epoch());
    fp.Mix(proc.next_node_seq());
    fp.Mix(proc.next_update_seq());
    proc.store().MixState(fp);
    proc.ops().MixState(fp);
    proc.aas().MixState(fp);
    if (proc.handler() != nullptr) proc.handler()->MixState(fp);
  }
  cluster.history_log().MixState(fp);
  // Reliable-layer windows and timers are part of the configuration: two
  // states equal in tree/history terms but differing in unacked frames or
  // armed retransmit deadlines evolve differently once the pump fires.
  if (cluster.reliable() != nullptr) cluster.reliable()->MixState(fp);
  sim.MixPending(fp);
  fp.Mix(round);
  fp.Mix(picks);
  // Remaining drop budget distinguishes states: a state that can still
  // drop has successors a budget-exhausted twin lacks.
  fp.Mix(drops);
  fp.Mix(ops.size());
  for (const EpisodeOp& op : ops) {
    fp.Mix(op.done ? 1 : 0);
    if (op.done) {
      fp.Mix(static_cast<uint64_t>(op.result.status.code()));
      fp.Mix(op.result.value);
    }
  }
  return fp.digest();
}

/// True when delivering the head messages of `c1` and `c2` in either order
/// provably reaches the same state: the destinations are distinct
/// processors (a delivery mutates only its destination's local state), and
/// every cross pair of carried actions either commutes per the §3.1 table
/// or addresses different nodes. The action check is deliberately redundant
/// with the destination check today — it keeps the reduction sound if a
/// handler ever grows cross-processor shared state, and it is the
/// "commutativity-guided" half the cross-check below validates at runtime.
bool IndependentHeads(const net::SimNetwork& sim, const ChannelKey& c1,
                      const ChannelKey& c2) {
  if (c1.second == c2.second) return false;
  const Message& m1 = sim.PeekChannel(c1.first, c1.second);
  const Message& m2 = sim.PeekChannel(c2.first, c2.second);
  for (const Action& a : m1.actions) {
    for (const Action& b : m2.actions) {
      if (!ActionsCommute(a.kind, b.kind) && a.target == b.target) {
        return false;
      }
    }
  }
  return true;
}

/// One sampled independence decision, re-executed in both orders after the
/// main exploration to confirm the states converge.
struct CrossCheckRequest {
  std::vector<Choice> prefix;  ///< choices leading to the frame
  ChannelKey t1;
  ChannelKey t2;
};

constexpr uint32_t kNoViolationRound = 0xFFFFFFFF;

/// The DFS engine. One instance persists across all executions of a
/// VerifyExhaustive call: each execution replays the decision prefix held
/// in `stack_` (checking determinism against recorded fingerprints),
/// extends it with fresh frames until the episode completes, and the
/// driver then advances the deepest frame with an untried candidate.
class ExhaustiveStrategy : public net::ScheduleStrategy {
 public:
  ExhaustiveStrategy(const VerifyConfig& config, VerifyStats* stats)
      : config_(config), stats_(stats) {}

  const char* name() const override { return "exhaustive"; }

  EpisodeHooks hooks() {
    EpisodeHooks h;
    h.on_start = [this](Cluster& c, net::SimNetwork& n,
                        const std::vector<EpisodeOp>& ops) {
      cluster_ = &c;
      sim_ = &n;
      ops_ = &ops;
      depth_ = 0;
      cut_ = false;
      round_ = 0;
      picks_this_round_ = 0;
      drops_used_ = 0;
      pending_sleep_.clear();
    };
    h.on_quiescent = [this](Cluster& c, uint32_t round) {
      round_ = round + 1;
      picks_this_round_ = 0;
      if (round == config_.episode.rounds && sim_->mutation_applied()) {
        ++stats_->mutation_fired;
      }
      if (config_.check_each_quiescence &&
          first_violation_round_ == kNoViolationRound &&
          !c.VerifyHistories().violations.empty()) {
        first_violation_round_ = round;
      }
    };
    return h;
  }

  size_t PickChannel(const std::vector<net::ChannelView>& views) override {
    ++stats_->transitions;
    drop_next_ = false;
    size_t index;
    if (cut_) {
      index = 0;  // deterministic drain: lowest channel first
    } else if (depth_ < stack_.size()) {
      index = ReplayPrefix(views);
    } else {
      index = Extend(views);
    }
    ++picks_this_round_;
    return index;
  }

  /// Pins every outcome: the message just picked is delivered unless the
  /// current DFS choice is a scripted drop. Never nullopt — the verifier
  /// must own all delivery nondeterminism.
  std::optional<net::DeliveryOutcome> ForceOutcome() override {
    return drop_next_ ? net::DeliveryOutcome::kDrop
                      : net::DeliveryOutcome::kDeliver;
  }

  /// Advances to the next unexplored schedule; false when the space is
  /// exhausted.
  bool Backtrack() {
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.next + 1 < f.candidates.size()) {
        ++f.next;
        return true;
      }
      stack_.pop_back();
    }
    return false;
  }

  bool cut() const { return cut_; }
  uint32_t first_violation_round() const { return first_violation_round_; }
  std::vector<CrossCheckRequest> TakeCrossChecks() {
    return std::move(cross_checks_);
  }

 private:
  struct Frame {
    std::vector<Choice> candidates;  ///< deliver choices, then drop choices
    std::vector<ChannelKey> sleep;   ///< deliveries pruned here (POR)
    size_t next = 0;                 ///< candidate explored this pass
    uint64_t entry_fp = 0;           ///< state fingerprint on entry
    bool fence = false;  ///< crash-plan event within 2 deliveries
  };

  uint64_t Here() const {
    return StateFingerprint(*cluster_, *sim_, *ops_, round_,
                            picks_this_round_, drops_used_);
  }

  /// A crash-plan event fires between deliveries once the round's step
  /// count reaches it; swapping the next two deliveries changes which side
  /// of the crash they land on, so independence does not hold across the
  /// boundary and sleep filtering is disabled within two deliveries of it.
  bool NearCrashEvent() const {
    for (const CrashEvent& e : config_.episode.crashes) {
      if (e.round == round_ && e.after_steps > picks_this_round_ &&
          e.after_steps <= picks_this_round_ + 2) {
        return true;
      }
    }
    return false;
  }

  static size_t IndexOf(const std::vector<net::ChannelView>& views,
                        const ChannelKey& key) {
    for (size_t i = 0; i < views.size(); ++i) {
      if (views[i].from == key.first && views[i].to == key.second) return i;
    }
    return views.size();
  }

  /// Sleep set the successor of `f` under `chosen` inherits: every
  /// transition already asleep or already fully explored here stays asleep
  /// iff it is independent of `chosen` (its head message is untouched by
  /// the delivery, so exploring it later from the child is redundant).
  /// Drop choices never participate: a drop is not independent of anything
  /// (it consumes budget and arms retransmission), so a chosen drop passes
  /// an empty sleep set down and an explored drop puts nothing to sleep.
  void ComputeChildSleep(const Frame& f, const Choice& chosen) {
    pending_sleep_.clear();
    if (!config_.por || f.fence || chosen.drop) return;
    auto consider = [&](const ChannelKey& u) {
      if (u == chosen.channel) return;
      if (std::find(pending_sleep_.begin(), pending_sleep_.end(), u) !=
          pending_sleep_.end()) {
        return;
      }
      if (IndependentHeads(*sim_, u, chosen.channel)) {
        pending_sleep_.push_back(u);
      }
    };
    for (const ChannelKey& u : f.sleep) consider(u);
    for (size_t i = 0; i < f.next; ++i) {
      if (!f.candidates[i].drop) consider(f.candidates[i].channel);
    }
  }

  size_t ReplayPrefix(const std::vector<net::ChannelView>& views) {
    Frame& f = stack_[depth_];
    if (Here() != f.entry_fp) ++stats_->determinism_failures;
    const Choice chosen = f.candidates[f.next];
    size_t index = IndexOf(views, chosen.channel);
    if (index >= views.size()) {
      // The recorded choice is no longer enabled: the episode is not
      // re-executing deterministically. Count it and drain.
      ++stats_->determinism_failures;
      cut_ = true;
      return 0;
    }
    TakeChoice(chosen);
    ComputeChildSleep(f, chosen);
    ++depth_;
    return index;
  }

  size_t Extend(const std::vector<net::ChannelView>& views) {
    Frame f;
    f.entry_fp = Here();
    f.fence = NearCrashEvent();
    if (!f.fence) f.sleep = std::move(pending_sleep_);
    pending_sleep_.clear();
    if (config_.dedup && f.sleep.empty()) {
      // Record / consult the cache only for empty-sleep frames: a state
      // first reached with a *non-empty* sleep set is not fully explored
      // from here, and skipping a later full visit would be unsound.
      if (!visited_.insert(f.entry_fp).second) {
        ++stats_->pruned_visited;
        cut_ = true;
        return 0;
      }
      ++stats_->states;
    }
    // Explore candidates in (to, from) order rather than the view's
    // (from, to) order: delivering inbound requests before outbound
    // fan-out lets multi-message backlogs form on coordinator->member
    // channels early in the search. With starve_victim set, deliveries to
    // that processor sort last at every frame, so the leftmost schedule is
    // the extreme starvation of the victim (the §4.3 adversary family) —
    // violations that need two messages queued on one victim-bound channel
    // then surface in the first few executions instead of deep in the
    // tree. Pure search-order heuristic — every candidate is still
    // explored, so exhaustiveness and sleep-set soundness are unaffected.
    const bool starve = config_.starve_victim >= 0;
    const auto victim = static_cast<ProcessorId>(config_.starve_victim);
    std::vector<ChannelKey> enabled;
    enabled.reserve(views.size());
    for (const net::ChannelView& v : views) enabled.push_back({v.from, v.to});
    std::stable_sort(enabled.begin(), enabled.end(),
                     [starve, victim](const ChannelKey& a,
                                      const ChannelKey& b) {
                       int sa = starve && a.second == victim ? 1 : 0;
                       int sb = starve && b.second == victim ? 1 : 0;
                       return std::tie(sa, a.second, a.first) <
                              std::tie(sb, b.second, b.first);
                     });
    for (const ChannelKey& key : enabled) {
      if (config_.por &&
          std::find(f.sleep.begin(), f.sleep.end(), key) != f.sleep.end()) {
        ++stats_->pruned_sleep;
        continue;
      }
      f.candidates.push_back({key, false});
    }
    // Deliver branches first, drop branches after: the leftmost DFS path
    // stays the drop-free schedule, so the cheap sanity pass runs before
    // any loss is explored. Drop choices ignore the sleep set — dropping a
    // sleeping channel's head is NOT covered by the reordering argument
    // that put the delivery to sleep. Self-channels are exempt: loopback
    // models in-process work, bypasses the reliable layer, and is
    // lossless by the paper's model.
    if (drops_used_ < config_.drop_budget) {
      for (const ChannelKey& key : enabled) {
        if (key.first != key.second) f.candidates.push_back({key, true});
      }
    }
    if (f.candidates.empty()) {
      // Everything enabled sleeps: all schedules from this state are
      // covered through orders explored elsewhere. Drain.
      cut_ = true;
      return 0;
    }
    MaybeSampleCrossCheck(f);
    const Choice chosen = f.candidates[0];
    size_t index = IndexOf(views, chosen.channel);
    LAZYTREE_CHECK(index < views.size());
    TakeChoice(chosen);
    ComputeChildSleep(f, chosen);
    stack_.push_back(std::move(f));
    ++depth_;
    stats_->max_frontier = std::max(stats_->max_frontier, stack_.size());
    return index;
  }

  /// Applies the side effects of committing to `chosen` for this delivery:
  /// arms the forced outcome consumed by ForceOutcome and accounts budget.
  void TakeChoice(const Choice& chosen) {
    if (!chosen.drop) return;
    drop_next_ = true;
    ++drops_used_;
    ++stats_->drops_injected;
  }

  void MaybeSampleCrossCheck(const Frame& f) {
    if (!config_.por || cross_checks_.size() >= config_.cross_check_samples) {
      return;
    }
    for (size_t i = 0; i < f.candidates.size(); ++i) {
      if (f.candidates[i].drop) continue;
      for (size_t j = i + 1; j < f.candidates.size(); ++j) {
        if (f.candidates[j].drop) continue;
        if (!IndependentHeads(*sim_, f.candidates[i].channel,
                              f.candidates[j].channel)) {
          continue;
        }
        CrossCheckRequest req;
        req.prefix.reserve(depth_);
        for (size_t d = 0; d < depth_; ++d) {
          req.prefix.push_back(stack_[d].candidates[stack_[d].next]);
        }
        req.t1 = f.candidates[i].channel;
        req.t2 = f.candidates[j].channel;
        cross_checks_.push_back(std::move(req));
        return;
      }
    }
  }

  const VerifyConfig& config_;
  VerifyStats* stats_;
  Cluster* cluster_ = nullptr;
  net::SimNetwork* sim_ = nullptr;
  const std::vector<EpisodeOp>* ops_ = nullptr;
  std::vector<Frame> stack_;
  size_t depth_ = 0;  ///< frames consumed by the current execution
  bool cut_ = false;  ///< current execution switched to deterministic drain
  uint32_t round_ = 0;
  uint64_t picks_this_round_ = 0;
  uint32_t drops_used_ = 0;  ///< scripted drops taken by this execution
  bool drop_next_ = false;   ///< outcome armed for the message just picked
  std::vector<ChannelKey> pending_sleep_;  ///< sleep set for the next frame
  std::unordered_set<uint64_t> visited_;
  uint32_t first_violation_round_ = kNoViolationRound;
  std::vector<CrossCheckRequest> cross_checks_;
};

/// Re-runs the episode delivering `forced` first (replayed like a trace,
/// then drained lowest channel first), and fingerprints the final
/// quiescent state (violation count mixed in). Two forced runs that
/// differ only in the order of an independent pair must return equal
/// values.
uint64_t RunForced(const EpisodeConfig& episode,
                   const std::vector<Choice>& forced, bool* diverged) {
  ScheduleTrace script;
  for (const Choice& c : forced) {
    script.events.push_back(
        {c.drop ? TraceEvent::Kind::kDrop : TraceEvent::Kind::kDeliver,
         c.channel.first, c.channel.second});
  }
  ReplayStrategy strategy(script);
  net::SimNetwork* sim = nullptr;
  const std::vector<EpisodeOp>* ops = nullptr;
  uint64_t final_fp = 0;
  EpisodeHooks hooks;
  hooks.on_start = [&](Cluster& c, net::SimNetwork& n,
                       const std::vector<EpisodeOp>& o) {
    (void)c;
    sim = &n;
    ops = &o;
  };
  hooks.on_quiescent = [&](Cluster& c, uint32_t round) {
    final_fp = StateFingerprint(c, *sim, *ops, round, 0, 0);
  };
  EpisodeResult result = RunEpisodeUnder(episode, &strategy, nullptr, hooks);
  *diverged = strategy.diverged() > 0;
  Fingerprint fp;
  fp.Mix(final_fp);
  fp.Mix(result.violations.size());
  return fp.digest();
}

std::string DescribeChannel(const ChannelKey& key) {
  return "(" + std::to_string(key.first) + "->" + std::to_string(key.second) +
         ")";
}

}  // namespace

std::string VerifyResult::Summary() const {
  std::string s;
  if (!ok) {
    s = "VIOLATION: " + (violations.empty() ? "?" : violations.front());
  } else if (exhausted) {
    s = "exhausted, no violations";
  } else {
    s = "budget hit, no violations";
  }
  s += " | executions=" + std::to_string(stats.executions);
  s += " schedules=" + std::to_string(stats.schedules);
  s += " transitions=" + std::to_string(stats.transitions);
  s += " states=" + std::to_string(stats.states);
  s += " pruned_sleep=" + std::to_string(stats.pruned_sleep);
  s += " pruned_visited=" + std::to_string(stats.pruned_visited);
  s += " cross_checks=" + std::to_string(stats.cross_checks) + "/" +
       std::to_string(stats.cross_check_failures) + " failed";
  if (stats.mutation_fired > 0) {
    s += " mutation_fired=" + std::to_string(stats.mutation_fired);
  }
  if (stats.drops_injected > 0) {
    s += " drops_injected=" + std::to_string(stats.drops_injected);
  }
  s += " max_frontier=" + std::to_string(stats.max_frontier);
  return s;
}

VerifyResult VerifyExhaustive(const VerifyConfig& config) {
  LAZYTREE_CHECK(config.episode.drop == 0 && config.episode.dup == 0)
      << "exhaustive verification needs deterministic delivery outcomes "
         "(bounded loss goes through drop_budget, not probabilities)";
  LAZYTREE_CHECK(config.drop_budget == 0 || config.episode.reliable)
      << "bounded drops need the reliable layer to recover them";
  VerifyResult result;
  ExhaustiveStrategy strategy(config, &result.stats);
  EpisodeHooks hooks = strategy.hooks();
  while (true) {
    TraceRecorder recorder;
    EpisodeResult episode =
        RunEpisodeUnder(config.episode, &strategy, &recorder, hooks);
    ++result.stats.executions;
    if (!strategy.cut()) ++result.stats.schedules;
    if (!episode.ok) {
      result.ok = false;
      result.violations = episode.violations;
      result.trace = episode.trace;
      if (config.minimize) {
        StatusOr<MinimizeResult> minimized =
            MinimizeTrace(config.episode, episode.trace);
        if (minimized.ok()) {
          result.trace = std::move(minimized->trace);
        }
      }
      break;
    }
    if (!strategy.Backtrack()) {
      result.exhausted = true;
      break;
    }
    if (result.stats.executions >= config.max_executions) break;
  }
  result.first_violation_round = strategy.first_violation_round();

  if (result.stats.determinism_failures > 0) {
    result.ok = false;
    result.violations.push_back(
        "verifier: prefix re-execution diverged " +
        std::to_string(result.stats.determinism_failures) +
        " times — episode state is not a deterministic function of the "
        "delivery schedule");
  }

  // Validate sampled independence decisions by running both orders.
  if (config.por && config.cross_check_samples > 0) {
    for (const CrossCheckRequest& req : strategy.TakeCrossChecks()) {
      std::vector<Choice> ab = req.prefix;
      ab.push_back({req.t1, false});
      ab.push_back({req.t2, false});
      std::vector<Choice> ba = req.prefix;
      ba.push_back({req.t2, false});
      ba.push_back({req.t1, false});
      bool diverged_ab = false;
      bool diverged_ba = false;
      uint64_t fp_ab = RunForced(config.episode, ab, &diverged_ab);
      uint64_t fp_ba = RunForced(config.episode, ba, &diverged_ba);
      if (diverged_ab || diverged_ba) continue;  // prefix no longer valid
      ++result.stats.cross_checks;
      if (fp_ab != fp_ba) {
        ++result.stats.cross_check_failures;
        result.ok = false;
        result.violations.push_back(
            "verifier: POR cross-check diverged for pair " +
            DescribeChannel(req.t1) + " x " + DescribeChannel(req.t2) +
            " at depth " + std::to_string(req.prefix.size()) +
            " — independence relation is unsound for this protocol");
      }
    }
  }
  return result;
}

VerifyConfig BoundedConfig(ProtocolKind protocol) {
  VerifyConfig config;
  config.episode.protocol = protocol;
  config.episode.processors = 2;
  config.episode.seed = 1;
  config.episode.rounds = 1;
  config.episode.ops_per_round = 4;
  config.episode.key_space = 16;
  config.episode.fanout = 3;
  config.episode.leaf_replication = 2;
  config.episode.step_budget = 100000;
  if (protocol == ProtocolKind::kMobile ||
      protocol == ProtocolKind::kVarCopies) {
    // §4.2/§4.3: single-copy mobile leaves; shedding makes every split
    // migrate the fresh sibling, so link-changes (and for varcopies the
    // join/unjoin membership traffic) are in flight to be reordered.
    config.episode.leaf_replication = 1;
    config.episode.shed_threshold = 1;
  }
  return config;
}

std::vector<BatteryItem> VerifyBattery() {
  // Ops per round and the transition floor per protocol, clean and under
  // the drop budget. Navigation descends inline through local copies and
  // replies to self complete without a message, so the episodes carry
  // more ops than the small config: the floors are the transitions the
  // battery explored when every hop was a self-send (4 ops clean, 3 under
  // the drop budget), and each size is the smallest that reaches them.
  // The drop-budget-2 floors are half the transitions those items explored
  // when they were added: a budget that stops placing second drops falls
  // to the budget-1 count, well below them.
  struct Sizing {
    ProtocolKind protocol;
    uint32_t ops;
    uint64_t min_transitions;
    uint32_t lossy_ops;
    uint64_t lossy_min_transitions;
    uint64_t drop2_min_transitions;
  };
  const Sizing sizings[] = {
      {ProtocolKind::kSyncSplit, 6, 17380, 5, 5487, 30000},
      {ProtocolKind::kSemiSyncSplit, 7, 10080, 5, 5487, 23000},
      {ProtocolKind::kMobile, 6, 3675, 4, 1915, 7100},
      {ProtocolKind::kVarCopies, 5, 2622, 4, 1376, 9800},
  };
  std::vector<BatteryItem> items;
  for (const Sizing& s : sizings) {
    BatteryItem item{ProtocolKindName(s.protocol), BoundedConfig(s.protocol)};
    item.config.episode.ops_per_round = s.ops;
    item.min_transitions = s.min_transitions;
    items.push_back(std::move(item));
  }
  // Deep trees for the two fixed-copies split protocols. Fanout 2 grows
  // the tree to three levels in two rounds of three ops, and in the
  // second round leaves and their level-1 parent split while separator
  // inserts are in flight. A separator insert starts at the splitter's
  // local parent copy, often a non-PC one and sometimes a stale one,
  // which sync blocks in the AAS (§4.1.1) and semisync rewrites at the PC
  // (§4.1.2). Each workload seed is one whose schedules reach those
  // cases; the floors are half the transitions each item explored when
  // it was added.
  struct Deep {
    ProtocolKind protocol;
    uint64_t seed;
    uint64_t min_transitions;
  };
  const Deep deep[] = {
      {ProtocolKind::kSyncSplit, 18, 6900},
      {ProtocolKind::kSemiSyncSplit, 3, 2200},
  };
  for (const Deep& d : deep) {
    BatteryItem item{std::string(ProtocolKindName(d.protocol)) + "-deep",
                     BoundedConfig(d.protocol)};
    item.config.episode.seed = d.seed;
    item.config.episode.rounds = 2;
    item.config.episode.ops_per_round = 3;
    item.config.episode.fanout = 2;
    item.min_transitions = d.min_transitions;
    items.push_back(std::move(item));
  }
  // Bounded loss: the same protocols with a drop budget of 1 and the
  // reliable layer recovering every loss. Each DFS frame forks a drop
  // branch per enabled channel and retransmission deepens schedules, so
  // the episodes are smaller; every schedule — including every placement
  // of the drop — must stay §3.1-green and oracle-exact. A budget of 2
  // adds windows with two holes, which selective acks report together and
  // fast retransmit resends together.
  for (const uint32_t budget : {1u, 2u}) {
    for (const Sizing& s : sizings) {
      BatteryItem item{std::string(ProtocolKindName(s.protocol)) + "-drop" +
                           std::to_string(budget),
                       BoundedConfig(s.protocol)};
      item.config.episode.ops_per_round = s.lossy_ops;
      item.config.episode.reliable = true;
      item.config.drop_budget = budget;
      item.min_transitions = budget == 1 ? s.lossy_min_transitions
                                         : s.drop2_min_transitions;
      items.push_back(std::move(item));
    }
  }
  {
    BatteryItem drop{"selftest-drop-relay",
                     BoundedConfig(ProtocolKind::kSemiSyncSplit),
                     /*expect_violation=*/true};
    drop.config.episode.mutation = net::ScheduleMutation::kDropRelay;
    items.push_back(std::move(drop));
  }
  {
    // The swap mutation needs a qualifying pair queued on one channel: two
    // same-kind membership registrations (two relayed joins or unjoins of
    // different members) behind each other on a PC -> bystander channel.
    // That takes 4 processors (PC + bystander + two join/unjoin-churning
    // members) and two rounds of membership churn, and the violating
    // schedules starve the bystander — so the search is directed at them
    // with starve_victim. Detection, not exhaustion, is the promise here.
    BatteryItem swap{"selftest-swap-ordered",
                     BoundedConfig(ProtocolKind::kVarCopies),
                     /*expect_violation=*/true};
    swap.config.episode.processors = 4;
    swap.config.episode.rounds = 2;
    swap.config.episode.ops_per_round = 6;
    swap.config.episode.key_space = 32;
    swap.config.episode.mutation = net::ScheduleMutation::kSwapOrdered;
    swap.config.starve_victim = 1;
    swap.config.max_executions = 20000;
    items.push_back(std::move(swap));
  }
  return items;
}

std::string CheckBatteryItem(const BatteryItem& item,
                             const VerifyResult& result) {
  if (!item.expect_violation) {
    if (!result.ok) return "violation found";
    if (!result.exhausted) return "space not exhausted within budget";
    if (result.stats.transitions < item.min_transitions) {
      return "explored " + std::to_string(result.stats.transitions) +
             " transitions, below the floor of " +
             std::to_string(item.min_transitions);
    }
    return "";
  }
  if (result.ok) return "planted mutation not detected";
  if (ReplayEpisode(item.config.episode, result.trace).ok) {
    return "minimized trace does not replay to failure";
  }
  return "";
}

}  // namespace lazytree::sim
