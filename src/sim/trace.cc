#include "src/sim/trace.h"

#include <cstdio>
#include <sstream>

namespace lazytree::sim {

namespace {

char KindChar(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kDeliver: return 'D';
    case TraceEvent::Kind::kDrop: return 'X';
    case TraceEvent::Kind::kDuplicate: return 'U';
    case TraceEvent::Kind::kCrash: return 'C';
    case TraceEvent::Kind::kRestart: return 'R';
  }
  return '?';
}

}  // namespace

size_t ScheduleTrace::FaultCount() const {
  size_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.is_fault()) ++n;
  }
  return n;
}

size_t ScheduleTrace::ControlCount() const {
  size_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.is_control()) ++n;
  }
  return n;
}

bool ScheduleTrace::minimized() const {
  auto it = meta.find("minimized");
  return it != meta.end() && it->second == "1";
}

std::string ScheduleTrace::Serialize() const {
  std::string out = "# lazytree schedule trace v1\n";
  for (const auto& [key, value] : meta) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  }
  out += "--\n";
  for (const TraceEvent& e : events) {
    out += KindChar(e.kind);
    if (e.is_control()) {
      out += ' ';
      out += std::to_string(e.to);
    } else {
      out += ' ';
      out += std::to_string(e.from);
      out += ' ';
      out += std::to_string(e.to);
    }
    out += '\n';
  }
  return out;
}

StatusOr<ScheduleTrace> ScheduleTrace::Parse(const std::string& text) {
  ScheduleTrace trace;
  std::istringstream in(text);
  std::string line;
  bool in_events = false;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (line == "--") {
      in_events = true;
      continue;
    }
    std::istringstream fields(line);
    if (!in_events) {
      std::string key;
      fields >> key;
      std::string value;
      std::getline(fields, value);
      if (!value.empty() && value[0] == ' ') value.erase(0, 1);
      trace.meta[key] = value;
      continue;
    }
    char kind_char = 0;
    fields >> kind_char;
    TraceEvent e;
    switch (kind_char) {
      case 'D': e.kind = TraceEvent::Kind::kDeliver; break;
      case 'X': e.kind = TraceEvent::Kind::kDrop; break;
      case 'U': e.kind = TraceEvent::Kind::kDuplicate; break;
      case 'C': e.kind = TraceEvent::Kind::kCrash; break;
      case 'R': e.kind = TraceEvent::Kind::kRestart; break;
      default:
        return Status::InvalidArgument("trace line " +
                                       std::to_string(lineno) +
                                       ": unknown event '" + line + "'");
    }
    uint64_t a = 0;
    uint64_t b = 0;
    if (e.is_control()) {
      if (!(fields >> a)) {
        return Status::InvalidArgument("trace line " +
                                       std::to_string(lineno) +
                                       ": malformed control event");
      }
      e.to = static_cast<ProcessorId>(a);
    } else {
      if (!(fields >> a >> b)) {
        return Status::InvalidArgument("trace line " +
                                       std::to_string(lineno) +
                                       ": malformed delivery event");
      }
      e.from = static_cast<ProcessorId>(a);
      e.to = static_cast<ProcessorId>(b);
    }
    trace.events.push_back(e);
  }
  return trace;
}

Status ScheduleTrace::SaveFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  std::string text = Serialize();
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::OK();
}

StatusOr<ScheduleTrace> ScheduleTrace::LoadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return Parse(text);
}

void TraceRecorder::OnDelivery(const Message& m, net::DeliveryOutcome outcome) {
  TraceEvent e;
  e.from = m.from;
  e.to = m.to;
  switch (outcome) {
    case net::DeliveryOutcome::kDeliver:
      e.kind = TraceEvent::Kind::kDeliver;
      break;
    case net::DeliveryOutcome::kDrop:
    case net::DeliveryOutcome::kCrashDrop:
      // A crash-drop replays as a plain drop: the crash event itself is in
      // the trace, so the replayed destination is crashed too, and forcing
      // kDrop keeps the outcome identical even if the minimizer removed
      // the crash.
      e.kind = TraceEvent::Kind::kDrop;
      break;
    case net::DeliveryOutcome::kDuplicate:
      e.kind = TraceEvent::Kind::kDuplicate;
      break;
  }
  trace_.events.push_back(e);
}

void TraceRecorder::OnCrash(ProcessorId p) {
  trace_.events.push_back(
      TraceEvent{TraceEvent::Kind::kCrash, kInvalidProcessor, p});
}

void TraceRecorder::OnRestart(ProcessorId p) {
  trace_.events.push_back(
      TraceEvent{TraceEvent::Kind::kRestart, kInvalidProcessor, p});
}

size_t ReplayStrategy::PickChannel(
    const std::vector<net::ChannelView>& channels) {
  // Find the next delivery event matching a live channel. Control events
  // here mean the driver did not consume them (it always should); treat
  // them as divergence and skip.
  while (cursor_ < trace_.events.size()) {
    const TraceEvent& e = trace_.events[cursor_];
    if (e.is_control()) {
      ++diverged_;
      ++cursor_;
      continue;
    }
    for (size_t i = 0; i < channels.size(); ++i) {
      if (channels[i].from == e.from && channels[i].to == e.to) {
        ++cursor_;
        switch (e.kind) {
          case TraceEvent::Kind::kDeliver:
            forced_ = net::DeliveryOutcome::kDeliver;
            break;
          case TraceEvent::Kind::kDrop:
            forced_ = net::DeliveryOutcome::kDrop;
            break;
          default:
            forced_ = net::DeliveryOutcome::kDuplicate;
            break;
        }
        return i;
      }
    }
    // The recorded channel has no pending message now — an edited trace
    // (minimization) shifted the execution. Skip the event.
    ++diverged_;
    ++cursor_;
  }
  // Trace exhausted: deterministic drain so replay stays reproducible.
  forced_ = net::DeliveryOutcome::kDeliver;
  return 0;
}

const TraceEvent* ReplayStrategy::PeekControl() const {
  if (cursor_ >= trace_.events.size()) return nullptr;
  const TraceEvent& e = trace_.events[cursor_];
  return e.is_control() ? &e : nullptr;
}

void ReplayStrategy::AdvanceControl() {
  if (PeekControl() != nullptr) ++cursor_;
}

}  // namespace lazytree::sim
