#include "src/sim/minimize.h"

#include <algorithm>

namespace lazytree::sim {

namespace {

/// Rebuilds the trace keeping only the fault/control events whose index
/// (into `interesting`) is in `keep`: dropped X/U events become plain
/// deliveries, dropped C/R events disappear entirely. The header says
/// `minimized 1`, so the replay tolerates the divergence the edits cause.
ScheduleTrace BuildCandidate(const ScheduleTrace& trace,
                             const std::vector<size_t>& interesting,
                             const std::vector<bool>& keep) {
  ScheduleTrace candidate;
  candidate.meta = trace.meta;
  candidate.meta.insert_or_assign("minimized", std::string("1"));
  candidate.events.reserve(trace.events.size());
  size_t next = 0;  // cursor into `interesting` (sorted ascending)
  for (size_t i = 0; i < trace.events.size(); ++i) {
    TraceEvent e = trace.events[i];
    const bool is_interesting =
        next < interesting.size() && interesting[next] == i;
    if (is_interesting) {
      const bool kept = keep[next++];
      if (!kept) {
        if (e.is_control()) continue;      // crash/restart: remove
        e.kind = TraceEvent::Kind::kDeliver;  // fault: un-inject
      }
    }
    candidate.events.push_back(e);
  }
  return candidate;
}

}  // namespace

StatusOr<MinimizeResult> MinimizeTrace(const EpisodeConfig& config,
                                       const ScheduleTrace& trace) {
  MinimizeResult out;

  EpisodeResult baseline = ReplayEpisode(config, trace);
  ++out.replays;
  if (baseline.ok) {
    return Status::InvalidArgument(
        "trace does not fail on replay; nothing to minimize");
  }
  out.signature = baseline.Signature();

  std::vector<size_t> interesting;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (trace.events[i].is_fault() || trace.events[i].is_control()) {
      interesting.push_back(i);
    }
  }
  out.initial_faults = interesting.size();

  std::vector<bool> keep(interesting.size(), true);
  size_t kept = interesting.size();

  auto still_fails = [&](const std::vector<bool>& candidate_keep) {
    ScheduleTrace candidate =
        BuildCandidate(trace, interesting, candidate_keep);
    EpisodeResult r = ReplayEpisode(config, candidate);
    ++out.replays;
    return !r.ok && r.Signature() == out.signature;
  };

  // ddmin (complement variant): partition the kept set into n chunks and
  // try discarding one chunk at a time; on success restart with the
  // smaller set, otherwise refine the partition until chunks are single
  // events — at which point the result is 1-minimal.
  size_t n = 2;
  while (kept > 0 && !interesting.empty()) {
    std::vector<size_t> kept_positions;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) kept_positions.push_back(i);
    }
    n = std::min(n, kept_positions.size());
    bool reduced = false;
    for (size_t chunk = 0; chunk < n; ++chunk) {
      const size_t lo = kept_positions.size() * chunk / n;
      const size_t hi = kept_positions.size() * (chunk + 1) / n;
      if (lo == hi) continue;
      std::vector<bool> candidate_keep = keep;
      for (size_t i = lo; i < hi; ++i) {
        candidate_keep[kept_positions[i]] = false;
      }
      if (still_fails(candidate_keep)) {
        keep = std::move(candidate_keep);
        kept -= hi - lo;
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (reduced) continue;
    if (n >= kept_positions.size()) break;  // 1-minimal
    n = std::min(n * 2, kept_positions.size());
  }

  out.trace = BuildCandidate(trace, interesting, keep);
  out.trace.meta["failure"] = out.signature;
  out.final_faults = kept;

  // The acceptance bar: the minimized trace must reproduce the identical
  // violation on back-to-back replays.
  EpisodeResult first = ReplayEpisode(config, out.trace);
  EpisodeResult second = ReplayEpisode(config, out.trace);
  out.replays += 2;
  out.deterministic = !first.ok && !second.ok &&
                      first.Signature() == out.signature &&
                      second.Signature() == out.signature;
  return out;
}

}  // namespace lazytree::sim
