// SimNetwork: deterministic, seed-replayable message scheduler.
//
// There are no threads. In queue mode (the default) WaitQuiescent
// repeatedly picks a random non-empty (from, to) channel using the seeded
// Rng (or the installed strategy's pick), pops its head message, and
// calls Receiver::Deliver synchronously. Per-channel FIFO is preserved
// (the paper's assumption); *cross*-channel order is adversarially
// random, which models arbitrary relative network latency. The same seed always yields the same
// interleaving, so failing schedules replay exactly. Messages travel as
// moved `Message` values, never through the wire codec, and no remote
// bytes are counted.
//
// Latency mode (EnableLatency) replaces the random pick with simulated
// time. A Step delivers one tick to one processor: the messages due at
// the earliest arrival time and bound for the destination of that
// tick's lowest-seq message, in seq order, at most kMaxBatch of them, as
// one Receiver::DeliverBatch, so the processor's outbox scope spans a
// tick here as it spans a drained turn on a ThreadNetwork worker. The
// tick's other destinations wait, in first-seq order, for the next
// Steps. Each message's fate (crash, fault plan, duplicate, observer,
// planted kDropRelay) is decided one by one as its batch is built, so a
// crash during an earlier Step drops the later ones. A delivery's own
// sends arrive at least 1 µs later and never join the batch being
// delivered.

#ifndef LAZYTREE_NET_SIM_NETWORK_H_
#define LAZYTREE_NET_SIM_NETWORK_H_

#include <map>
#include <utility>
#include <vector>

#include "src/msg/fingerprint.h"
#include "src/net/channel.h"
#include "src/net/faults.h"
#include "src/net/schedule_hook.h"
#include "src/net/transport.h"
#include "src/util/rng.h"

namespace lazytree::net {

class SimNetwork : public Network {
 public:
  explicit SimNetwork(uint64_t seed = 1);

  /// Switches to timestamped mode: every message is assigned an arrival
  /// time of now + latency, where latency is `base_us` plus a uniform
  /// jitter in [0, jitter_us] (remote) or `local_us` (self-sends), and
  /// Step always delivers from the earliest tick. Per-channel FIFO is
  /// preserved (arrivals are clamped to be non-decreasing per channel).
  /// Gives operations a measurable latency in simulated microseconds.
  /// Both latencies must be at least 1 µs. Call before any Send.
  void EnableLatency(uint64_t base_us, uint64_t jitter_us,
                     uint64_t local_us = 1);

  /// Simulated clock (µs); only advances in latency mode.
  uint64_t NowUs() const { return now_us_; }

  void Register(ProcessorId id, Receiver* receiver) override;
  ProcessorId size() const override;
  void Send(Message m) override;
  void Start() override {}
  void Stop() override {}

  /// Runs deliveries until no message remains. The timeout bounds the
  /// number of deliveries (defensive against livelock bugs), not wall time.
  bool WaitQuiescent(std::chrono::milliseconds timeout) override;

  /// Queue mode: delivers exactly one message (random non-empty channel,
  /// or the installed strategy's pick). Latency mode: delivers one
  /// processor's share of the earliest tick as one batch (see the file
  /// comment); a batch whose every message was dropped delivers nothing.
  /// Returns false when nothing is pending.
  bool Step();

  /// Installs a delivery strategy (non-owning; nullptr restores the
  /// uniform-random default). Queue mode only — the timestamped (latency)
  /// mode orders deliveries by arrival time, not by adversarial choice.
  void SetStrategy(ScheduleStrategy* strategy);

  /// Installs an observer notified of every delivery/crash decision in
  /// execution order (non-owning; nullptr detaches).
  void SetObserver(DeliveryObserver* observer) { observer_ = observer; }

  /// Crash injection: while crashed, every message delivered to `p` is
  /// dropped (fail-stop — the processor's volatile state is handled by
  /// Cluster::CrashProcessor). Idempotent.
  void Crash(ProcessorId p);
  void Restart(ProcessorId p);
  bool IsCrashed(ProcessorId p) const {
    return p < crashed_.size() && crashed_[p];
  }

  /// Makes links lossy (non-owning; call before any Step). Each popped
  /// message the strategy does not force gets the injector's outcome.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  /// Messages currently queued across all channels.
  size_t Pending() const { return pending_; }

  /// Total messages delivered so far (a duplicate counts twice).
  uint64_t delivered() const { return delivered_; }

  // --- exhaustive-verifier hooks (queue mode only) ---

  /// Message at queue position `index` of channel (from, to).
  /// Precondition: the channel exists and index < its size. The verifier
  /// reads heads to evaluate delivery independence (POR).
  const Message& PeekChannel(ProcessorId from, ProcessorId to,
                             size_t index = 0) const;

  /// Folds all in-flight state into a verifier fingerprint: every
  /// non-empty channel (sorted by (from, to)) with the wire encoding of
  /// each queued message in FIFO order, plus crash flags and the
  /// scheduler PRNG.
  void MixPending(Fingerprint& fp) const;

  /// Plants a one-shot protocol mutation (self-test of the verifier): the
  /// mutation fires at the first qualifying delivery and never again, so
  /// the same delivery schedule always reproduces it. Call before any
  /// Step.
  void PlantMutation(ScheduleMutation mutation) { mutation_ = mutation; }

  /// True once a planted mutation has fired.
  bool mutation_applied() const { return mutation_applied_; }

 private:
  /// Applies a planted kSwapOrdered to the picked channel if its first two
  /// messages qualify; returns true when the swap fired.
  bool MaybeSwapOrdered(Channel& ch);
  /// Applies a planted kDropRelay to a message about to be delivered;
  /// returns true when an action was stripped.
  bool MaybeDropRelay(Message& m);
  /// Decides popped message `m`'s fate, reports it to the observer and
  /// applies a planted kDropRelay to a survivor. `forced` is the
  /// strategy's outcome, kCrashDrop for none.
  DeliveryOutcome Resolve(Message& m, DeliveryOutcome forced);
  /// Latency mode's Step: one destination's share of the earliest tick.
  void StepTick();

  Rng rng_;
  std::vector<Receiver*> receivers_;
  // Channel per ordered (from, to) pair, created lazily. A sorted map keeps
  // iteration order deterministic.
  std::map<std::pair<ProcessorId, ProcessorId>, Channel> channels_;
  std::vector<std::pair<ProcessorId, ProcessorId>> nonempty_;  // scratch
  std::vector<ChannelView> views_;                             // scratch
  ScheduleStrategy* strategy_ = nullptr;
  DeliveryObserver* observer_ = nullptr;
  std::vector<bool> crashed_;
  size_t pending_ = 0;
  uint64_t delivered_ = 0;
  bool in_step_ = false;
  ScheduleMutation mutation_ = ScheduleMutation::kNone;
  bool mutation_applied_ = false;
  FaultInjector* faults_ = nullptr;

  // Timestamped (latency) mode.
  struct TimedEvent {
    uint64_t arrival_us;
    uint64_t seq;  // tie-breaker keeps the order deterministic
    Message m;
    bool operator>(const TimedEvent& other) const {
      return arrival_us != other.arrival_us
                 ? arrival_us > other.arrival_us
                 : seq > other.seq;
    }
  };
  bool latency_mode_ = false;
  uint64_t base_us_ = 0;
  uint64_t jitter_us_ = 0;
  uint64_t local_us_ = 0;
  uint64_t now_us_ = 0;
  uint64_t event_seq_ = 0;
  // Latest arrival per (from, to) channel at `from * n + to`, n the
  // registered processor count: the FIFO clamp's floor.
  std::vector<uint64_t> last_arrival_;
  // Min-heap on (arrival_us, seq) under std::greater, kept with
  // std::push_heap/pop_heap so Step can move the earliest event out.
  std::vector<TimedEvent> timeline_;
  // The tick being delivered: per destination, the events due at now_us_
  // in seq order, those before `head` already taken. Refilled from
  // timeline_ once all `tick_left_` are taken.
  struct TickLane {
    std::vector<TimedEvent> events;
    size_t head = 0;
  };
  std::vector<TickLane> tick_;  // by destination
  size_t tick_left_ = 0;
  std::vector<Message> batch_;  // scratch: the batch StepTick delivers
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_SIM_NETWORK_H_
