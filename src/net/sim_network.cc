#include "src/net/sim_network.h"

#include <algorithm>
#include <functional>

#include "src/msg/wire.h"
#include "src/util/logging.h"

namespace lazytree::net {

const char* ScheduleMutationName(ScheduleMutation m) {
  switch (m) {
    case ScheduleMutation::kNone: return "none";
    case ScheduleMutation::kDropRelay: return "drop-relay";
    case ScheduleMutation::kSwapOrdered: return "swap-ordered";
  }
  return "?";
}

bool ParseScheduleMutation(const std::string& name, ScheduleMutation* out) {
  if (name == "none") *out = ScheduleMutation::kNone;
  else if (name == "drop-relay") *out = ScheduleMutation::kDropRelay;
  else if (name == "swap-ordered") *out = ScheduleMutation::kSwapOrdered;
  else return false;
  return true;
}

SimNetwork::SimNetwork(uint64_t seed) : rng_(seed) {}

void SimNetwork::Register(ProcessorId id, Receiver* receiver) {
  if (receivers_.size() <= id) receivers_.resize(id + 1, nullptr);
  LAZYTREE_CHECK(receivers_[id] == nullptr) << "double register p" << id;
  receivers_[id] = receiver;
}

ProcessorId SimNetwork::size() const {
  return static_cast<ProcessorId>(receivers_.size());
}

void SimNetwork::EnableLatency(uint64_t base_us, uint64_t jitter_us,
                               uint64_t local_us) {
  LAZYTREE_CHECK(pending_ == 0) << "EnableLatency before any Send";
  LAZYTREE_CHECK(strategy_ == nullptr)
      << "latency mode and schedule strategies are mutually exclusive";
  latency_mode_ = true;
  base_us_ = base_us;
  jitter_us_ = jitter_us;
  local_us_ = local_us;
}

void SimNetwork::SetStrategy(ScheduleStrategy* strategy) {
  LAZYTREE_CHECK(!latency_mode_)
      << "latency mode and schedule strategies are mutually exclusive";
  strategy_ = strategy;
}

void SimNetwork::Crash(ProcessorId p) {
  LAZYTREE_CHECK(p < receivers_.size()) << "crash of unregistered p" << p;
  if (crashed_.size() <= p) crashed_.resize(p + 1, false);
  if (crashed_[p]) return;
  crashed_[p] = true;
  if (observer_ != nullptr) observer_->OnCrash(p);
}

void SimNetwork::Restart(ProcessorId p) {
  if (!IsCrashed(p)) return;
  crashed_[p] = false;
  if (observer_ != nullptr) observer_->OnRestart(p);
}

void SimNetwork::Send(Message m) {
  LAZYTREE_CHECK(m.to < receivers_.size() && receivers_[m.to] != nullptr)
      << "send to unregistered p" << m.to;
  // Self-sends are never counted as network bytes, so skip their sizing.
  stats_.OnSend(m, m.from != m.to ? wire::EncodedSize(m) : 0);
  ++pending_;
  if (latency_mode_) {
    uint64_t latency =
        m.from == m.to
            ? local_us_
            : base_us_ + (jitter_us_ ? rng_.Below(jitter_us_ + 1) : 0);
    uint64_t& last = last_arrival_[{m.from, m.to}];
    uint64_t arrival = std::max(now_us_ + latency, last);  // FIFO clamp
    last = arrival;
    timeline_.push_back(TimedEvent{arrival, event_seq_++, std::move(m)});
    std::push_heap(timeline_.begin(), timeline_.end(),
                   std::greater<TimedEvent>());
    return;
  }
  channels_[{m.from, m.to}].Push(std::move(m));
}

bool SimNetwork::Step() {
  if (pending_ == 0) return false;
  LAZYTREE_CHECK(!in_step_) << "reentrant Step";
  Message m;
  if (latency_mode_) {
    std::pop_heap(timeline_.begin(), timeline_.end(),
                  std::greater<TimedEvent>());
    TimedEvent event = std::move(timeline_.back());
    timeline_.pop_back();
    now_us_ = std::max(now_us_, event.arrival_us);
    m = std::move(event.m);
  } else {
    nonempty_.clear();
    for (auto& [key, ch] : channels_) {
      if (!ch.Empty()) nonempty_.push_back(key);
    }
    LAZYTREE_CHECK(!nonempty_.empty()) << "pending_ out of sync";
    size_t index;
    if (strategy_ != nullptr) {
      views_.clear();
      for (const auto& [f, t] : nonempty_) {
        views_.push_back(ChannelView{f, t, channels_[{f, t}].Size()});
      }
      index = strategy_->PickChannel(views_);
      LAZYTREE_CHECK(index < nonempty_.size())
          << "strategy picked channel " << index << " of "
          << nonempty_.size();
    } else {
      index = rng_.Below(nonempty_.size());
    }
    Channel& channel = channels_[nonempty_[index]];
    if (mutation_ == ScheduleMutation::kSwapOrdered && !mutation_applied_) {
      mutation_applied_ = MaybeSwapOrdered(channel);
    }
    m = channel.Pop();
  }
  --pending_;

  // Resolve the message's fate: a crashed destination always drops; a
  // strategy may force an outcome (trace replay); otherwise the fault
  // plan decides. Every decision reaches the observer, so faults are
  // recorded, replayed and minimized like any other scheduling choice.
  // The strategy is asked even when a crash drops the message, since a
  // replaying strategy consumes one recorded outcome per call. Only a
  // crash drops with kCrashDrop, so it also stands for "not forced".
  const DeliveryOutcome forced =
      strategy_ != nullptr
          ? strategy_->ForceOutcome().value_or(DeliveryOutcome::kCrashDrop)
          : DeliveryOutcome::kCrashDrop;
  DeliveryOutcome outcome = DeliveryOutcome::kDeliver;
  if (IsCrashed(m.to)) {
    outcome = DeliveryOutcome::kCrashDrop;
  } else if (forced != DeliveryOutcome::kCrashDrop) {
    outcome = forced;
  } else if (faults_ != nullptr) {
    outcome = faults_->Next(m.from, m.to);
  }
  if (observer_ != nullptr) observer_->OnDelivery(m, outcome);
  if (outcome == DeliveryOutcome::kDrop ||
      outcome == DeliveryOutcome::kCrashDrop) {
    return true;
  }
  if (mutation_ == ScheduleMutation::kDropRelay && !mutation_applied_) {
    mutation_applied_ = MaybeDropRelay(m);
  }
  in_step_ = true;
  if (outcome == DeliveryOutcome::kDuplicate) {
    ++delivered_;
    receivers_[m.to]->Deliver(m);  // a copy, then the moved original
  }
  ++delivered_;
  receivers_[m.to]->Deliver(std::move(m));
  in_step_ = false;
  return true;
}

const Message& SimNetwork::PeekChannel(ProcessorId from, ProcessorId to,
                                       size_t index) const {
  auto it = channels_.find({from, to});
  LAZYTREE_CHECK(it != channels_.end() && index < it->second.Size())
      << "PeekChannel(" << from << "," << to << "," << index
      << ") out of range";
  return it->second.Peek(index);
}

void SimNetwork::MixPending(Fingerprint& fp) const {
  size_t nonempty = 0;
  for (const auto& [key, ch] : channels_) {
    if (!ch.Empty()) ++nonempty;
  }
  fp.Mix(nonempty);
  wire::Writer w;  // one buffer, reused for every queued message
  for (const auto& [key, ch] : channels_) {  // std::map: sorted by (from,to)
    if (ch.Empty()) continue;
    fp.Mix(key.first);
    fp.Mix(key.second);
    fp.Mix(ch.Size());
    for (size_t i = 0; i < ch.Size(); ++i) {
      w.Clear();
      wire::EncodeMessage(w, ch.Peek(i));
      fp.MixBytes(w.bytes());
    }
  }
  fp.Mix(crashed_.size());
  for (size_t p = 0; p < crashed_.size(); ++p) fp.Mix(crashed_[p] ? 1 : 0);
  for (uint64_t word : rng_.state()) fp.Mix(word);
  fp.Mix(mutation_applied_ ? 1 : 0);
}

bool SimNetwork::MaybeSwapOrdered(Channel& ch) {
  if (ch.Size() < 2) return false;
  for (const Action& a : ch.Peek(0).actions) {
    if (OrderClassOf(a.kind) != OrderClass::kMembership) continue;
    for (const Action& b : ch.Peek(1).actions) {
      // Only same-kind registration pairs (two joins, two unjoins) about
      // the same node: the version gate then drops the older registration
      // outright, leaving the receiving copy's membership (and history)
      // permanently short one member. Mixed join/unjoin pairs of one
      // member net out to the same final membership, and link-change
      // reorderings are absorbed by the per-link gating — neither is a
      // detectable violation by design.
      if (b.kind != a.kind) continue;
      if (a.target != b.target || a.version == b.version) continue;
      ch.SwapFirstTwo();
      return true;
    }
  }
  return false;
}

bool SimNetwork::MaybeDropRelay(Message& m) {
  for (auto it = m.actions.begin(); it != m.actions.end(); ++it) {
    if (it->IsRelayed() && OrderClassOf(it->kind) == OrderClass::kLazy) {
      m.actions.erase(it);
      return true;
    }
  }
  return false;
}

bool SimNetwork::WaitQuiescent(std::chrono::milliseconds timeout) {
  // Interpret the timeout as a delivery budget: 10k deliveries per ms is
  // far beyond anything a correct run needs, so hitting it means livelock.
  uint64_t budget = static_cast<uint64_t>(timeout.count()) * 10000;
  while (pending_ > 0) {
    if (budget-- == 0) return false;
    Step();
  }
  return true;
}

}  // namespace lazytree::net
