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
  if (receivers_.size() <= id) {
    // Re-lay the arrival table out for the new processor count.
    const size_t old_n = receivers_.size();
    const size_t n = id + 1;
    std::vector<uint64_t> arrivals(n * n, 0);
    for (size_t from = 0; from < old_n; ++from) {
      for (size_t to = 0; to < old_n; ++to) {
        arrivals[from * n + to] = last_arrival_[from * old_n + to];
      }
    }
    last_arrival_ = std::move(arrivals);
    receivers_.resize(n, nullptr);
    tick_.resize(n);
  }
  LAZYTREE_CHECK(receivers_[id] == nullptr) << "double register p" << id;
  receivers_[id] = receiver;
  stats_.Register(id);
}

ProcessorId SimNetwork::size() const {
  return static_cast<ProcessorId>(receivers_.size());
}

void SimNetwork::EnableLatency(uint64_t base_us, uint64_t jitter_us,
                               uint64_t local_us) {
  LAZYTREE_CHECK(pending_ == 0) << "EnableLatency before any Send";
  LAZYTREE_CHECK(strategy_ == nullptr)
      << "latency mode and schedule strategies are mutually exclusive";
  // A delivery's own sends must land in a later tick than the batch
  // being delivered.
  LAZYTREE_CHECK(base_us >= 1 && local_us >= 1) << "zero link latency";
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
  LAZYTREE_CHECK(m.to < receivers_.size() && receivers_[m.to] != nullptr &&
                 m.from < receivers_.size())
      << "send p" << m.from << "->p" << m.to << " between unregistered ids";
  stats_.AddSend(m);
  ++pending_;
  if (latency_mode_) {
    uint64_t latency =
        m.from == m.to
            ? local_us_
            : base_us_ + (jitter_us_ ? rng_.Below(jitter_us_ + 1) : 0);
    uint64_t& last = last_arrival_[m.from * receivers_.size() + m.to];
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
  if (latency_mode_) {
    StepTick();
    return true;
  }
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
        << "strategy picked channel " << index << " of " << nonempty_.size();
  } else {
    index = rng_.Below(nonempty_.size());
  }
  Channel& channel = channels_[nonempty_[index]];
  if (mutation_ == ScheduleMutation::kSwapOrdered && !mutation_applied_) {
    mutation_applied_ = MaybeSwapOrdered(channel);
  }
  Message m = channel.Pop();
  --pending_;

  // The strategy is asked even when a crash drops the message, since a
  // replaying strategy consumes one recorded outcome per call. Only a
  // crash drops with kCrashDrop, so it also stands for "not forced".
  const DeliveryOutcome forced =
      strategy_ != nullptr
          ? strategy_->ForceOutcome().value_or(DeliveryOutcome::kCrashDrop)
          : DeliveryOutcome::kCrashDrop;
  const DeliveryOutcome outcome = Resolve(m, forced);
  if (outcome == DeliveryOutcome::kDrop ||
      outcome == DeliveryOutcome::kCrashDrop) {
    return true;
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

void SimNetwork::StepTick() {
  if (tick_left_ == 0) {
    // Pop the whole earliest tick into per-destination lanes; the heap
    // yields it in seq order.
    const uint64_t arrival = timeline_.front().arrival_us;
    now_us_ = std::max(now_us_, arrival);
    while (!timeline_.empty() && timeline_.front().arrival_us == arrival) {
      std::pop_heap(timeline_.begin(), timeline_.end(),
                    std::greater<TimedEvent>());
      TimedEvent& event = timeline_.back();
      tick_[event.m.to].events.push_back(std::move(event));
      timeline_.pop_back();
      ++tick_left_;
    }
  }
  // The destination whose next message has the lowest seq goes next.
  ProcessorId to = kInvalidProcessor;
  for (ProcessorId p = 0; p < tick_.size(); ++p) {
    const TickLane& lane = tick_[p];
    if (lane.head == lane.events.size()) continue;
    if (to == kInvalidProcessor ||
        lane.events[lane.head].seq < tick_[to].events[tick_[to].head].seq) {
      to = p;
    }
  }
  // Take up to kMaxBatch of its messages in seq order, deciding each
  // fate as it is taken.
  TickLane& lane = tick_[to];
  const size_t end = std::min(lane.events.size(), lane.head + kMaxBatch);
  for (; lane.head < end; ++lane.head) {
    Message& m = lane.events[lane.head].m;
    --tick_left_;
    --pending_;
    switch (Resolve(m, DeliveryOutcome::kCrashDrop)) {
      case DeliveryOutcome::kDrop:
      case DeliveryOutcome::kCrashDrop:
        continue;
      case DeliveryOutcome::kDuplicate:
        batch_.push_back(m);  // a copy, then the moved original
        break;
      case DeliveryOutcome::kDeliver:
        break;
    }
    batch_.push_back(std::move(m));
  }
  if (lane.head == lane.events.size()) {
    lane.events.clear();
    lane.head = 0;
  }
  if (batch_.empty()) return;
  in_step_ = true;
  delivered_ += batch_.size();
  receivers_[to]->DeliverBatch(batch_);
  batch_.clear();
  in_step_ = false;
}

DeliveryOutcome SimNetwork::Resolve(Message& m, DeliveryOutcome forced) {
  // A crashed destination always drops; a strategy may force an outcome
  // (trace replay); otherwise the fault plan decides. Every decision
  // reaches the observer, so faults are recorded, replayed and minimized
  // like any other scheduling choice.
  DeliveryOutcome outcome = DeliveryOutcome::kDeliver;
  if (IsCrashed(m.to)) {
    outcome = DeliveryOutcome::kCrashDrop;
  } else if (forced != DeliveryOutcome::kCrashDrop) {
    outcome = forced;
  } else if (faults_ != nullptr) {
    outcome = faults_->Next(m.from, m.to);
  }
  if (observer_ != nullptr) observer_->OnDelivery(m, outcome);
  if (outcome != DeliveryOutcome::kDrop &&
      outcome != DeliveryOutcome::kCrashDrop &&
      mutation_ == ScheduleMutation::kDropRelay && !mutation_applied_) {
    mutation_applied_ = MaybeDropRelay(m);
  }
  return outcome;
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
