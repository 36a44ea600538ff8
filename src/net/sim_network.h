// SimNetwork: deterministic, seed-replayable message scheduler.
//
// There are no threads: WaitQuiescent repeatedly picks a random non-empty
// (from, to) channel using the seeded Rng, pops its head message, and calls
// the receiver synchronously. Per-channel FIFO is preserved (the paper's
// assumption); *cross*-channel order is adversarially random, which models
// arbitrary relative network latency. The same seed always yields the same
// interleaving, so failing schedules replay exactly. Messages travel as
// moved `Message` values, never through the wire codec; Send sizes remote
// ones with wire::EncodedSize for the byte statistics.

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
  /// Step always delivers the earliest arrival. Per-channel FIFO is
  /// preserved (arrivals are clamped to be non-decreasing per channel).
  /// Gives operations a measurable latency in simulated microseconds.
  /// Call before any Send.
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

  /// Delivers exactly one message (random non-empty channel, or the
  /// installed strategy's pick). Returns false when nothing is pending.
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

  /// Total deliveries performed so far.
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
  std::map<std::pair<ProcessorId, ProcessorId>, uint64_t> last_arrival_;
  // Min-heap on (arrival_us, seq) under std::greater, kept with
  // std::push_heap/pop_heap so Step can move the earliest event out.
  std::vector<TimedEvent> timeline_;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_SIM_NETWORK_H_
