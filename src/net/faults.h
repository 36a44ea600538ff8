// Unreliable-link fault injection.
//
// FaultyNetwork wraps any Network and makes its links lossy: per-link
// drop / duplicate / reorder / delay probabilities plus explicit partition
// windows, all driven by a FaultPlan installed through ClusterOptions. The
// paper assumes reliable exactly-once FIFO channels (§4); this decorator
// deliberately breaks that assumption so the reliable-delivery layer
// (net/reliable.h) can be shown to restore it.
//
// Determinism: every fault decision is a pure function of
// (plan.seed, from, to, per-link send index) — no global RNG, no clock.
// Replaying the same send sequence over the same plan reproduces the exact
// same faults on both transports, which is what lets explorer traces with
// faults replay byte-for-byte.
//
// Delivery-count accounting: a dropped message simply never reaches the
// base transport, so the base's inflight-counter quiescence accounting
// stays correct — the message was never in flight as far as the base is
// concerned. Delayed and reordered messages are *held* inside this layer
// and released by FlushHeld(), which WaitQuiescent calls in a loop, so a
// held message can delay quiescence but never leak past it.

#ifndef LAZYTREE_NET_FAULTS_H_
#define LAZYTREE_NET_FAULTS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/transport.h"

namespace lazytree::net {

/// Declarative description of how links misbehave. Probabilities are per
/// message send on a remote link; self-sends are never faulted.
struct FaultPlan {
  double drop = 0.0;       ///< message vanishes
  double duplicate = 0.0;  ///< message delivered twice
  double reorder = 0.0;    ///< message held, swapped with the next send
  double delay = 0.0;      ///< message held until the next quiescence pump
  uint64_t seed = 1;       ///< fault decision stream seed

  /// A partition blackholes every message between `a` and `b` (both
  /// directions) whose per-link send index falls in [start, start+length).
  /// Send-count windows instead of wall-clock windows keep the plan
  /// deterministic across transports; the window heals naturally as
  /// retransmissions burn through send indices.
  struct Partition {
    ProcessorId a = 0;
    ProcessorId b = 0;
    uint64_t start = 0;
    uint64_t length = 0;
  };
  std::vector<Partition> partitions;

  bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0 ||
           !partitions.empty();
  }
};

/// Network decorator that applies a FaultPlan to every remote send.
class FaultyNetwork : public Network {
 public:
  FaultyNetwork(Network* base, FaultPlan plan);

  void Register(ProcessorId id, Receiver* receiver) override;
  ProcessorId size() const override;
  void Send(Message m) override;
  void Start() override;
  void Stop() override;
  bool WaitQuiescent(std::chrono::milliseconds timeout) override;
  NetworkStats& stats() override { return base_->stats(); }

  /// Releases every held (delayed / reorder-stashed) message into the base
  /// transport. Returns how many were released. Called from the quiescence
  /// loop and from Cluster::PumpNetworkTimers so held messages model
  /// finite, not infinite, delay.
  size_t FlushHeld();

  // Injection counters (what the fault layer actually did — the reliable
  // layer's recovery counters live in NetworkStats).
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  uint64_t reordered() const {
    return reordered_.load(std::memory_order_relaxed);
  }
  uint64_t delayed() const { return delayed_.load(std::memory_order_relaxed); }
  uint64_t partitioned() const {
    return partitioned_.load(std::memory_order_relaxed);
  }

 private:
  // Per ordered (from, to) link: its send index and held messages. Own
  // lock per link so concurrent thread-transport senders only contend
  // when they share a link.
  struct Link {
    std::mutex mu;
    uint64_t sends = 0;
    bool has_stash = false;
    Message stash;               // reorder slot (swapped with next send)
    std::vector<Message> held;   // delayed messages
  };

  void EnsureLinks();
  Link& LinkFor(ProcessorId from, ProcessorId to) {
    return *links_[static_cast<size_t>(from) * num_processors_ + to];
  }
  bool Partitioned(ProcessorId from, ProcessorId to, uint64_t index) const;

  Network* base_;
  FaultPlan plan_;
  std::once_flag links_once_;
  size_t num_processors_ = 0;
  std::vector<std::unique_ptr<Link>> links_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> reordered_{0};
  std::atomic<uint64_t> delayed_{0};
  std::atomic<uint64_t> partitioned_{0};
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_FAULTS_H_
