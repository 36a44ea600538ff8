// Network abstraction the protocols are written against.
//
// The paper's network assumption (§4): reliable, exactly-once, in-order
// delivery between any pair of processors. Two implementations honor it:
//
//   * ThreadNetwork — one worker thread per processor; real parallelism
//     for throughput benches.
//   * SimNetwork — deterministic discrete-event scheduler; a seed fully
//     determines the interleaving, so property tests can replay
//     adversarial schedules.
//
// Delivery model: each processor registers a Receiver, and the network
// hands it messages serially per processor (this provides the paper's
// "an action on a node is implicitly atomic" guarantee — §1.1). Both
// transports deliver in batches through Receiver::DeliverBatch: a
// ThreadNetwork worker passes what it drained in one turn, and a
// latency-mode SimNetwork passes one processor's arrivals of one
// simulated microsecond; kMaxBatch caps both. The Processor opens one
// outbox scope over a batch, so the actions it emits toward one
// destination leave as one message on either transport. The sim's queue
// mode, which the explorer and the verifier schedule, delivers one
// message per step through Receiver::Deliver. Deliveries may call Send
// reentrantly.
//
// Client edge: a client operation enters its home processor's queue
// through SubmitLocal, as a 32-byte ClientOp rather than a Message. By
// default that is the self-send the paper describes, so SimNetwork (and
// with it the explorer and the verifier) schedules exactly that message;
// ThreadNetwork instead hands the op to the processor's worker through a
// lock-free ring, the same handoff its peer messages take, and the worker
// builds the message on its own thread.

#ifndef LAZYTREE_NET_TRANSPORT_H_
#define LAZYTREE_NET_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/msg/message.h"
#include "src/net/stats.h"

namespace lazytree::net {

/// Most messages one batch takes from one source: a ThreadNetwork
/// worker's inbox or client ring, or a SimNetwork tick. Bounds the tail:
/// a flooded inbox is served in chunks instead of one unbounded atomic
/// batch that starves everything queued behind it.
inline constexpr size_t kMaxBatch = 128;

/// Message sink implemented by each processor.
class Receiver {
 public:
  virtual ~Receiver() = default;

  /// Handles one message. Called serially per processor. May Send.
  virtual void Deliver(Message m) = 0;

  /// Handles a batch (see kMaxBatch). Called serially per processor with
  /// the same atomicity guarantee as Deliver (the batch is just a loop of
  /// serial Delivers from the receiver's point of view). Overriding lets
  /// a receiver amortize per-delivery work across the batch — the
  /// Processor override opens an output-combining scope so all actions
  /// the batch emits toward one destination leave as a single message.
  /// `batch` elements are consumed (moved from); the vector itself stays
  /// owned by the caller for capacity recycling.
  virtual void DeliverBatch(std::vector<Message>& batch) {
    for (Message& m : batch) Deliver(std::move(m));
  }

  /// Fires this processor's due timers and returns its next deadline
  /// (time_point::max() for none). A ThreadNetwork worker calls it on
  /// its own thread before it first waits and after every batch, then
  /// waits for the next message no later than the deadline. The reliable
  /// layer's per-processor retransmit and ack timers run here.
  virtual std::chrono::steady_clock::time_point Poll() {
    return std::chrono::steady_clock::time_point::max();
  }
};

/// Reliable exactly-once FIFO transport between registered processors.
class Network {
 public:
  virtual ~Network() = default;

  /// Registers the receiver for `id`. Must be called for every processor
  /// before Start; ids must be dense [0, n).
  virtual void Register(ProcessorId id, Receiver* receiver) = 0;

  /// Number of registered processors.
  virtual ProcessorId size() const = 0;

  /// Enqueues a message. `m.from`/`m.to` must be registered. Never blocks.
  virtual void Send(Message m) = 0;

  /// Enqueues client operation `op` at its home processor `p`, from any
  /// thread outside p's delivery. Never blocks. Delivered as the message
  /// `Message(p, p, op.ToAction())`, counted as a local message.
  virtual void SubmitLocal(ProcessorId p, const ClientOp& op) {
    Send(Message(p, p, op.ToAction()));
  }

  /// Starts delivery (ThreadNetwork spawns workers; SimNetwork is a no-op).
  virtual void Start() = 0;

  /// Stops delivery and drains nothing further. Idempotent.
  virtual void Stop() = 0;

  /// Blocks/loops until no message is queued or being handled, or the
  /// timeout elapses. Returns true on quiescence. For SimNetwork this *is*
  /// the execution loop.
  virtual bool WaitQuiescent(std::chrono::milliseconds timeout) = 0;

  /// Makes `id`'s worker return from its wait and Poll again, without a
  /// message: a send from another thread armed a deadline earlier than
  /// the one the worker waits for. No-op where nothing waits.
  virtual void Wake(ProcessorId /*id*/) {}

  /// The counter ledger (net/stats.h). The base transport registers a
  /// shard per processor; decorators (the reliable layer) override this
  /// to return the base's ledger, so a whole decorator stack counts into
  /// one ledger no matter which layer a caller holds.
  virtual NetworkStats& stats() { return stats_; }

 protected:
  NetworkStats stats_;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_TRANSPORT_H_
