#include "src/sim/explorer.h"

#include <algorithm>
#include <charconv>
#include <type_traits>
#include <map>
#include <set>

#include "src/core/cluster.h"
#include "src/oracle/oracle.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace lazytree::sim {

Value WorkValueOf(Key k) { return k * 2654435761ull + 13; }

// Keys are distinct within a round, which makes per-key outcomes
// deterministic given the quiescence barrier between rounds.
std::vector<std::vector<WorkOp>> GenerateEpisodeWorkload(
    const EpisodeConfig& c) {
  Rng rng(c.seed ^ 0x3C6EF372FE94F82Aull);
  std::vector<std::vector<WorkOp>> rounds(c.rounds);
  std::vector<Key> ever_inserted;
  for (uint32_t r = 0; r < c.rounds; ++r) {
    std::set<Key> used;
    auto fresh_key = [&]() -> Key {
      for (int tries = 0; tries < 64; ++tries) {
        Key k = rng.Range(1, c.key_space);
        if (used.insert(k).second) return k;
      }
      return 0;  // key space exhausted for this round
    };
    std::vector<Key> round_inserts;
    for (uint32_t i = 0; i < c.ops_per_round; ++i) {
      uint64_t dice = rng.Below(100);
      WorkOp op;
      op.home = static_cast<ProcessorId>(rng.Below(c.processors));
      if (dice < 55 || ever_inserted.empty()) {
        op.kind = WorkKind::kInsert;
        op.key = fresh_key();
      } else if (dice < 75) {
        op.kind = WorkKind::kDelete;
        Key k = ever_inserted[rng.Below(ever_inserted.size())];
        op.key = used.insert(k).second ? k : fresh_key();
        if (op.key != k) op.kind = WorkKind::kInsert;  // fall back to insert
      } else {
        op.kind = WorkKind::kSearch;
        Key k = ever_inserted[rng.Below(ever_inserted.size())];
        op.key = used.insert(k).second ? k : fresh_key();
      }
      if (op.key == 0) continue;  // round's key budget exhausted
      if (op.kind == WorkKind::kInsert) round_inserts.push_back(op.key);
      rounds[r].push_back(op);
    }
    ever_inserted.insert(ever_inserted.end(), round_inserts.begin(),
                         round_inserts.end());
  }
  return rounds;
}

namespace {

std::string FoldLines(std::string s) {
  for (char& c : s) {
    if (c == '\n') c = ';';
  }
  return s;
}

EpisodeResult RunEpisodeImpl(const EpisodeConfig& config,
                             net::ScheduleStrategy* strategy,
                             ReplayStrategy* replay,
                             TraceRecorder* recorder, bool strict,
                             const EpisodeHooks* hooks) {
  ClusterOptions options;
  options.processors = config.processors;
  options.protocol = config.protocol;
  options.transport = TransportKind::kSim;
  options.seed = config.seed;
  options.tree.max_entries = config.fanout;
  options.tree.track_history = true;
  options.tree.leaf_replication = config.leaf_replication;
  options.tree.interior_replication = config.interior_replication;
  options.tree.shed_threshold = config.shed_threshold;
  // The episode's verification battery records violations for the trace /
  // report pipeline; the quiescence hook would abort on the first one.
  options.check_histories = false;
  // The reliable layer under the sim transport uses virtual timers pumped
  // at quiescent points, so its retransmissions and acks are part of the
  // recorded schedule.
  options.reliable = config.reliable ? 1 : 0;
  // Replay pins every outcome via ForceOutcome; the fault plan is only
  // live while recording. Its seed is the episode's, decorrelated from
  // the workload and protocol streams.
  if (replay == nullptr) {
    options.faults.drop = config.drop;
    options.faults.duplicate = config.dup;
    options.faults.seed = config.seed ^ 0xFA17FA17FA17FA17ull;
  }

  Cluster cluster(std::move(options));
  net::SimNetwork* sim = cluster.sim();
  LAZYTREE_CHECK(sim != nullptr) << "episodes need the sim transport";
  sim->SetStrategy(strategy);
  if (recorder != nullptr) sim->SetObserver(recorder);
  if (config.mutation != net::ScheduleMutation::kNone) {
    sim->PlantMutation(config.mutation);
  }
  cluster.Start();

  std::vector<std::vector<WorkOp>> rounds = GenerateEpisodeWorkload(config);
  size_t total_ops = 0;
  for (const auto& r : rounds) total_ops += r.size();
  std::vector<EpisodeOp> ops;
  ops.reserve(total_ops);
  if (hooks != nullptr && hooks->on_start) {
    hooks->on_start(cluster, *sim, ops);
  }

  // Crash plan, applied in (round, after_steps) order while recording.
  std::vector<CrashEvent> plan = config.crashes;
  std::stable_sort(plan.begin(), plan.end(),
                   [](const CrashEvent& a, const CrashEvent& b) {
                     return a.round != b.round ? a.round < b.round
                                               : a.after_steps < b.after_steps;
                   });
  size_t next_plan = 0;

  uint64_t steps_used = 0;
  bool livelock = false;

  auto apply_control = [&](const TraceEvent& e) {
    if (e.kind == TraceEvent::Kind::kCrash) {
      cluster.CrashProcessor(e.to);
    } else {
      cluster.RestartProcessor(e.to);
    }
  };
  auto apply_plan_event = [&](const CrashEvent& e) {
    if (e.restart) {
      cluster.RestartProcessor(e.processor);
    } else {
      cluster.CrashProcessor(e.processor);
    }
  };

  // Delivers messages until the round quiesces (or the budget dies),
  // interleaving crash-plan events (record) or trace control events
  // (replay) between deliveries. Trailing events land at quiescence so
  // their position relative to the next round's submissions is identical
  // in record and replay.
  auto drive = [&](uint32_t round) {
    uint64_t steps_in_round = 0;
    while (true) {
      if (replay != nullptr) {
        while (const TraceEvent* e = replay->PeekControl()) {
          apply_control(*e);
          replay->AdvanceControl();
        }
      } else {
        while (next_plan < plan.size() && plan[next_plan].round <= round &&
               (plan[next_plan].round < round ||
                plan[next_plan].after_steps <= steps_in_round)) {
          apply_plan_event(plan[next_plan++]);
        }
      }
      if (steps_used >= config.step_budget) {
        livelock = sim->Pending() > 0;
        return;
      }
      if (!sim->Step()) {
        // Delivery frontier is dry: fire the reliable layer's earliest
        // virtual timer (retransmit / delayed ack). Its sends re-enter
        // the frontier as ordinary schedulable deliveries, so the round
        // only ends once recovery has fully drained too.
        if (!cluster.PumpNetworkTimers()) break;
        continue;
      }
      ++steps_used;
      ++steps_in_round;
    }
    // Quiescent: flush this round's remaining plan/control events.
    if (replay != nullptr) {
      while (const TraceEvent* e = replay->PeekControl()) {
        apply_control(*e);
        replay->AdvanceControl();
      }
    } else {
      while (next_plan < plan.size() && plan[next_plan].round <= round) {
        apply_plan_event(plan[next_plan++]);
      }
    }
  };

  for (uint32_t r = 0; r < config.rounds && !livelock; ++r) {
    for (const WorkOp& w : rounds[r]) {
      const size_t idx = ops.size();
      EpisodeOp record;
      record.op = w;
      ops.push_back(std::move(record));
      auto cb = [&ops, idx](const OpResult& res) {
        ops[idx].result = res;
        ops[idx].done = true;
      };
      switch (w.kind) {
        case WorkKind::kInsert:
          cluster.InsertAsync(w.home, w.key, WorkValueOf(w.key), cb);
          break;
        case WorkKind::kDelete:
          cluster.DeleteAsync(w.home, w.key, cb);
          break;
        case WorkKind::kSearch:
          cluster.SearchAsync(w.home, w.key, cb);
          break;
      }
    }
    drive(r);
    if (hooks != nullptr && hooks->on_quiescent && !livelock) {
      hooks->on_quiescent(cluster, r);
    }
  }
  if (!livelock) {
    drive(config.rounds);  // final drain + leftover events
    if (hooks != nullptr && hooks->on_quiescent && !livelock) {
      hooks->on_quiescent(cluster, config.rounds);
    }
  }

  // ---- verification battery ----
  EpisodeResult result;
  result.steps = steps_used;
  result.delivered = sim->delivered();
  result.ops_submitted = ops.size();
  for (const EpisodeOp& op : ops) {
    if (op.done) ++result.ops_completed;
  }
  std::vector<std::string>& violations = result.violations;

  if (livelock) {
    violations.push_back(
        "livelock: " + std::to_string(sim->Pending()) +
        " messages still pending after " + std::to_string(steps_used) +
        " deliveries");
  }

  // One entry per checker violation: the failure signature is the first
  // entry alone, so the minimizer can shed faults that only feed later
  // violations.
  for (const std::string& v : cluster.VerifyHistories().violations) {
    violations.push_back("history: " + FoldLines(v));
  }
  for (const std::string& v : cluster.CheckTreeStructure()) {
    violations.push_back("structure: " + v);
  }

  // Per-key fate: fold completed outcomes into must-present / must-absent
  // / unknown, in submission order (rounds are serial; keys are distinct
  // within a round, so this order is the per-key serialization).
  enum class Fate : uint8_t { kAbsent, kPresent, kUnknown };
  std::map<Key, Fate> fate;
  std::set<Key> ever_submitted_insert;
  for (const EpisodeOp& op : ops) {
    Fate& f = fate.try_emplace(op.op.key, Fate::kAbsent).first->second;
    switch (op.op.kind) {
      case WorkKind::kInsert:
        ever_submitted_insert.insert(op.op.key);
        if (op.done && (op.result.status.ok() ||
                        op.result.status.IsAlreadyExists())) {
          f = Fate::kPresent;
        } else if (f != Fate::kPresent) {
          f = Fate::kUnknown;  // may or may not have applied
        }
        break;
      case WorkKind::kDelete:
        if (op.done && (op.result.status.ok() ||
                        op.result.status.IsNotFound())) {
          f = Fate::kAbsent;
        } else if (f == Fate::kPresent) {
          f = Fate::kUnknown;  // delete may have applied before failing
        }
        break;
      case WorkKind::kSearch:
        break;  // reads do not change fate
    }
  }
  std::vector<Entry> dump = cluster.DumpLeaves();
  std::map<Key, Value> present;
  for (const Entry& e : dump) present[e.key] = e.payload;
  for (const auto& [key, f] : fate) {
    auto it = present.find(key);
    if (f == Fate::kPresent) {
      if (it == present.end()) {
        violations.push_back("lost key " + std::to_string(key) +
                             ": completed insert missing from the tree");
      } else if (it->second != WorkValueOf(key)) {
        violations.push_back("wrong value for key " + std::to_string(key));
      }
    } else if (f == Fate::kAbsent) {
      if (it != present.end()) {
        violations.push_back("resurrected key " + std::to_string(key) +
                             ": completed delete still in the tree");
      }
    } else if (it != present.end() && it->second != WorkValueOf(key)) {
      violations.push_back("wrong value for key " + std::to_string(key));
    }
  }
  for (const auto& [key, value] : present) {
    if (!ever_submitted_insert.count(key)) {
      violations.push_back("ghost key " + std::to_string(key) +
                           ": present but never inserted");
    }
  }

  // Clean episodes get the strict check: every operation completed, with
  // the oracle's exact return code, and the dictionaries match.
  if (strict && !livelock) {
    Oracle oracle(/*upsert=*/false);
    for (const EpisodeOp& op : ops) {
      if (!op.done) {
        violations.push_back("incomplete op: " +
                             std::string(op.op.kind == WorkKind::kInsert
                                             ? "insert"
                                             : op.op.kind == WorkKind::kDelete
                                                   ? "delete"
                                                   : "search") +
                             " key " + std::to_string(op.op.key) +
                             " never completed");
        continue;
      }
      StatusCode want = StatusCode::kOk;
      Value want_value = 0;
      switch (op.op.kind) {
        case WorkKind::kInsert:
          want = oracle.Insert(op.op.key, WorkValueOf(op.op.key)).code();
          break;
        case WorkKind::kDelete:
          want = oracle.Delete(op.op.key).code();
          break;
        case WorkKind::kSearch: {
          StatusOr<Value> w = oracle.Search(op.op.key);
          want = w.status().code();
          if (w.ok()) want_value = *w;
          break;
        }
      }
      if (op.result.status.code() != want) {
        violations.push_back(
            "oracle rc mismatch for key " + std::to_string(op.op.key) +
            ": got " + StatusCodeName(op.result.status.code()) + ", want " +
            StatusCodeName(want));
      } else if (op.op.kind == WorkKind::kSearch && want == StatusCode::kOk &&
                 op.result.value != want_value) {
        violations.push_back("oracle value mismatch for key " +
                             std::to_string(op.op.key));
      }
    }
    std::vector<Entry> want_dump = oracle.Dump();
    if (dump.size() != want_dump.size()) {
      violations.push_back(
          "dictionary size mismatch: tree holds " +
          std::to_string(dump.size()) + " keys, oracle " +
          std::to_string(want_dump.size()));
    } else {
      for (size_t i = 0; i < dump.size(); ++i) {
        if (dump[i].key != want_dump[i].key ||
            dump[i].payload != want_dump[i].payload) {
          violations.push_back("dictionary mismatch at index " +
                               std::to_string(i));
          break;
        }
      }
    }
  }

  if (replay != nullptr) result.replay_diverged = replay->diverged();
  result.ok = violations.empty();
  // Detach before the cluster (and its network) die.
  sim->SetStrategy(nullptr);
  sim->SetObserver(nullptr);
  if (recorder != nullptr) {
    result.trace = std::move(recorder->trace());
    result.trace.meta = EpisodeHeader(config);
    result.trace.meta["result"] = result.ok ? "ok" : "fail";
    if (!result.ok) result.trace.meta["failure"] = result.Signature();
  }
  return result;
}

// One row of the EpisodeConfig field table: the field's trace-header key,
// its CLI flag (nullptr: header only), whether the header leaves it out at
// its default (the keys older traces lack), and the least legal count.
struct Field {
  const char* key;
  const char* flag = nullptr;
  bool optional = false;
  uint64_t min = 0;
};

// The field table. Writing the header, reading it back and setting a
// field from a CLI flag all walk it; `crashes` is not in it, the trace's
// C/R events carry those.
template <typename Config, typename Visit>
void ForEachField(Config& c, Visit&& visit) {
  visit(Field{"protocol", "protocol"}, c.protocol);
  visit(Field{"processors", "processors", false, 1}, c.processors);
  visit(Field{"seed", "seed"}, c.seed);
  visit(Field{"strategy"}, c.strategy.kind);
  visit(Field{"strategy_seed"}, c.strategy.seed);
  visit(Field{"pct_depth", nullptr, false, 1}, c.strategy.pct_depth);
  visit(Field{"pct_expected_events"}, c.strategy.pct_expected_events);
  visit(Field{"starve_victim"}, c.strategy.starve_victim);
  visit(Field{"starve_cap"}, c.strategy.starve_cap);
  visit(Field{"rounds", "rounds"}, c.rounds);
  visit(Field{"ops_per_round", "ops"}, c.ops_per_round);
  visit(Field{"key_space", "keyspace", false, 1}, c.key_space);
  visit(Field{"fanout", "fanout", false, 1}, c.fanout);
  visit(Field{"leaf_replication", "leaf-replication"}, c.leaf_replication);
  visit(Field{"interior_replication"}, c.interior_replication);
  visit(Field{"shed_threshold", "shed", true}, c.shed_threshold);
  visit(Field{"mutation", "mutation", true}, c.mutation);
  visit(Field{"drop", "drop", true}, c.drop);
  visit(Field{"dup", "dup", true}, c.dup);
  visit(Field{"reliable", "reliable", true}, c.reliable);
  visit(Field{"step_budget", nullptr, true, 1}, c.step_budget);
}

// The inverse of ProtocolKindName; false on unknown names.
bool ParseProtocolKind(const std::string& name, ProtocolKind* out) {
  if (name == "sync") *out = ProtocolKind::kSyncSplit;
  else if (name == "semisync") *out = ProtocolKind::kSemiSyncSplit;
  else if (name == "naive") *out = ProtocolKind::kNaive;
  else if (name == "vigorous") *out = ProtocolKind::kVigorous;
  else if (name == "mobile") *out = ProtocolKind::kMobile;
  else if (name == "varcopies") *out = ProtocolKind::kVarCopies;
  else return false;
  return true;
}

template <typename T>
std::string FieldText(T value) {
  if constexpr (std::is_same_v<T, ProtocolKind>) {
    return ProtocolKindName(value);
  } else if constexpr (std::is_same_v<T, StrategyKind>) {
    return StrategyKindName(value);
  } else if constexpr (std::is_same_v<T, net::ScheduleMutation>) {
    return net::ScheduleMutationName(value);
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[32];  // shortest text that parses back to exactly `value`
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  } else {
    return std::to_string(value);  // counts; bools as 0/1
  }
}

template <typename T>
Status ParseField(const std::string& text, const Field& field, T* out) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return ParseInteger(text, static_cast<T>(field.min), out);
  } else {
    T value{};
    bool ok = false;
    std::string want = std::string("a known ") + field.key;
    if constexpr (std::is_same_v<T, ProtocolKind>) {
      ok = ParseProtocolKind(text, &value);
    } else if constexpr (std::is_same_v<T, StrategyKind>) {
      ok = ParseStrategyKind(text, &value);
    } else if constexpr (std::is_same_v<T, net::ScheduleMutation>) {
      ok = net::ParseScheduleMutation(text, &value);
    } else if constexpr (std::is_same_v<T, bool>) {
      ok = text == "0" || text == "1";
      value = text == "1";
      want = "0 or 1";
    } else {
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, value);
      ok = ec == std::errc() && ptr == end && value >= 0 && value <= 1;
      want = "a probability in [0, 1]";
    }
    if (!ok) return Status::InvalidArgument("'" + text + "' is not " + want);
    *out = value;
    return Status::OK();
  }
}

}  // namespace

std::map<std::string, std::string> EpisodeHeader(const EpisodeConfig& config) {
  std::map<std::string, std::string> header;
  ForEachField(config, [&](const Field& f, const auto& value) {
    header[f.key] = FieldText(value);
  });
  const EpisodeConfig defaults;
  ForEachField(defaults, [&](const Field& f, const auto& value) {
    if (f.optional && header[f.key] == FieldText(value)) header.erase(f.key);
  });
  return header;
}

StatusOr<EpisodeConfig> ParseEpisodeHeader(
    const ScheduleTrace& trace, const std::vector<std::string>& flags) {
  EpisodeConfig config;
  std::set<std::string> known = {"result", "failure", "minimized"};
  Status status;
  ForEachField(config, [&](const Field& f, auto& value) {
    known.insert(f.key);
    auto it = trace.meta.find(f.key);
    if (!status.ok() || (it == trace.meta.end() && f.optional)) return;
    status = it == trace.meta.end() ? Status::InvalidArgument("missing")
                                    : ParseField(it->second, f, &value);
    if (!status.ok()) {
      status = Status::InvalidArgument(std::string("trace header key ") +
                                       f.key + ": " + status.message());
    }
  });
  for (const auto& [key, value] : trace.meta) {
    if (!known.count(key)) {
      return Status::InvalidArgument("trace header key " + key +
                                     ": unknown");
    }
  }
  if (!status.ok()) return status;
  for (const std::string& flag : flags) {
    EpisodeConfig flagged = config;
    StatusOr<std::string> key = SetEpisodeFlag(flag, &flagged);
    if (!key.ok()) return key.status();
    if (!(flagged == config)) {
      auto it = trace.meta.find(*key);
      return Status::InvalidArgument(
          flag + " contradicts the trace header (" + *key + " " +
          (it == trace.meta.end() ? "unset" : it->second) + ")");
    }
  }
  return config;
}

StatusOr<std::string> SetEpisodeFlag(const std::string& arg,
                                     EpisodeConfig* config) {
  std::string key;
  Status status;
  ForEachField(*config, [&](const Field& f, auto& value) {
    std::string text;
    if (f.flag == nullptr || !key.empty()) return;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, bool>) {
      if (arg != std::string("--") + f.flag) return;  // bare `--reliable`
      text = "1";
    } else if (!FlagValue(arg, f.flag, &text)) {
      return;
    }
    key = f.key;
    status = ParseField(text, f, &value);
  });
  if (key.empty()) return Status::NotFound("unknown flag: " + arg);
  if (!status.ok()) {
    return Status::InvalidArgument(arg + ": " + status.message());
  }
  return key;
}

bool FlagValue(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::string EpisodeResult::Signature() const {
  if (violations.empty()) return "";
  std::string s = violations.front();
  for (char& c : s) {
    if (c == '\n') c = ';';
  }
  return s;
}

EpisodeResult RunEpisode(const EpisodeConfig& config) {
  TraceRecorder recorder;
  return RunEpisodeUnder(config, MakeStrategy(config.strategy).get(),
                         &recorder, EpisodeHooks{});
}

EpisodeResult RunEpisodeUnder(const EpisodeConfig& config,
                              net::ScheduleStrategy* strategy,
                              TraceRecorder* recorder,
                              const EpisodeHooks& hooks) {
  return RunEpisodeImpl(config, strategy, nullptr, recorder, config.clean(),
                        &hooks);
}

EpisodeResult ReplayEpisode(const EpisodeConfig& config,
                            const ScheduleTrace& trace) {
  ReplayStrategy replay(trace);
  // Strict (oracle-exact) verification only applies when the replayed
  // schedule injects nothing the system cannot recover from: a trace with
  // crashes legitimately fails/abandons operations, whatever
  // config.crashes says, and fault events only stay strict when the
  // reliable layer is there to undo them.
  const bool strict = config.clean() &&
                      (config.reliable || trace.FaultCount() == 0) &&
                      trace.ControlCount() == 0;
  EpisodeResult result =
      RunEpisodeImpl(config, &replay, &replay, nullptr, strict, nullptr);
  result.trace = trace;
  auto minimized = trace.meta.find("minimized");
  if (result.replay_diverged > 0 &&
      (minimized == trace.meta.end() || minimized->second != "1")) {
    result.ok = false;
    result.violations.insert(
        result.violations.begin(),
        "replay diverged: " + std::to_string(result.replay_diverged) +
            " recorded events matched no pending message");
  }
  return result;
}

}  // namespace lazytree::sim
