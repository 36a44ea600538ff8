// Reliable delivery over lossy links.
//
// ReliableNetwork is a Network decorator that restores the paper's §4
// channel assumption — reliable, exactly-once, in-order delivery — on top
// of a transport that drops, duplicates, reorders, or delays messages
// (net/faults.h). The machinery is selective repeat driven by selective
// acks (TCP SACK, RFC 2018):
//
//   sender, per ordered channel (from, to):
//     every data message gets the channel's next sequence number and a
//     copy is kept in an unacked window; a cumulative ack prunes the
//     window, and a selective ack marks the window frames the peer holds
//     past its first hole. Every unheld frame below the highest held one
//     is then resent at once (fast retransmit), each at most once per
//     timeout epoch. The retransmission timer guards the window head
//     (only a resend of the head re-arms it); it resends only the unheld
//     frames, with exponential backoff + deterministic jitter, and starts
//     a new epoch. Only timer firings spend the bounded retransmit
//     budget, which declares the link *down* instead of retrying forever:
//     the window is discarded, the link-down callback fires (Cluster
//     fails pending ops with a retriable kUnavailable status), and
//     quiescence treats the channel as settled — Settle() degrades
//     gracefully rather than hanging.
//
//   receiver, per ordered channel:
//     tracks the next expected sequence number with serial-number
//     arithmetic (int64_t difference), so the dedup window survives
//     sequence overflow; stale/duplicate frames are dropped (and trigger
//     an eager re-ack, since a duplicate means the peer is resending);
//     out-of-order frames wait in a bounded reorder buffer and are
//     released in sequence order. A gap is taken for a loss: a frame
//     whose predecessor is missing arms an immediate ack, so the sender
//     learns of the hole within one trip.
//
//   acks: every outgoing data message piggybacks the cumulative ack for
//     its reverse channel (§1.1's piggybacking discipline applied to
//     control traffic); when no reverse traffic shows up within
//     `ack_delay_us`, a pure ack frame (Message::kAckOnly, never
//     delivered to the application) is emitted by a timer. While the
//     reorder buffer holds frames, the ack also carries a 64-bit SACK
//     bitmap (Message::sack, flag kHasSack): bit i set means the receiver
//     holds seq `ack + 2 + i`. Frames further than 64 past the hole go
//     unreported until the hole moves; the timer recovers such holes.
//
// Timer discipline: every channel half has one owning processor. The
// sender half of (from, to) belongs to `from`, the receiver half to `to`,
// so processor p owns tx(p, *) and rx(*, p), behind p's own shard mutex.
// With `real_timers` (ThreadNetwork) p's worker thread fires p's timers
// itself: after every delivered batch it calls Receiver::Poll, which fires
// p's due retransmits and pure acks and returns p's next deadline, and the
// worker parks until that deadline or the next message or op. A
// send from any other thread (Settle flushing held relays) that arms a
// deadline earlier than the one p is parked for calls Network::Wake(p).
// The layer starts no thread of its own. Without real timers (SimNetwork)
// the layer keeps a *virtual* clock that only advances when Pump() is
// called — at quiescent points of the simulation — and Pump fires every
// channel's timers in one deterministic order, so timer firings are
// schedulable events and fault-bearing explorer traces replay
// byte-for-byte.
//
// Quiescence: dropped messages never reach the base transport and
// retransmits re-enter it as fresh sends, so the base's atomic
// inflight-counter accounting stays exact. This layer's WaitQuiescent
// additionally requires every channel to be settled (window empty or link
// down, no ack pending): on the sim it pumps the virtual timers until that
// holds, on threads it waits for the workers to fire theirs.

#ifndef LAZYTREE_NET_RELIABLE_H_
#define LAZYTREE_NET_RELIABLE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/msg/fingerprint.h"
#include "src/net/transport.h"

namespace lazytree::net {

struct ReliabilityOptions {
  /// First sequence number a channel assigns. Tests set this near
  /// UINT64_MAX to exercise dedup-window wraparound at sequence overflow.
  uint64_t initial_seq = 1;
  /// Retransmission attempts before the link is declared down.
  uint32_t max_retransmits = 10;
  /// Base retransmission timeout in microseconds (virtual or real).
  uint64_t rto_us = 200;
  /// Delayed pure-ack timer in microseconds.
  uint64_t ack_delay_us = 50;
  /// Upper bound on deterministic backoff jitter in microseconds.
  uint64_t jitter_us = 16;
  /// Seed for the jitter hash.
  uint64_t seed = 1;
  /// Receiver out-of-order buffer cap per channel; frames beyond it are
  /// dropped and recovered by retransmission.
  size_t reorder_window = 1024;
};

class ReliableNetwork : public Network {
 public:
  /// `real_timers`: steady-clock timers fired by each processor's worker
  /// through Receiver::Poll (ThreadNetwork) vs a virtual Pump()-driven
  /// clock (SimNetwork).
  ReliableNetwork(Network* base, ReliabilityOptions options,
                  bool real_timers);
  /// Stops the base: its workers poll this layer's endpoints.
  ~ReliableNetwork() override { base_->Stop(); }

  /// Called (outside every shard lock) when a channel exhausts its
  /// retransmit budget. `from -> to` is the dead direction.
  using LinkDownFn = std::function<void(ProcessorId from, ProcessorId to)>;
  void SetLinkDownCallback(LinkDownFn fn) { on_link_down_ = std::move(fn); }

  void Register(ProcessorId id, Receiver* receiver) override;
  ProcessorId size() const override;
  void Send(Message m) override;
  /// Client ops are self-sends, which this layer never sequences.
  void SubmitLocal(ProcessorId p, const ClientOp& op) override {
    base_->SubmitLocal(p, op);
  }
  void Start() override;
  void Stop() override;
  bool WaitQuiescent(std::chrono::milliseconds timeout) override;
  void Wake(ProcessorId id) override { base_->Wake(id); }
  NetworkStats& stats() override { return base_->stats(); }

  /// Virtual-timer pump: advances the virtual clock to the earliest
  /// pending deadline and fires everything due (retransmits, pure acks,
  /// link-down declarations) in deterministic channel order. Returns true
  /// if any timer fired. No-op (false) under real timers.
  bool Pump();
  /// The virtual clock Pump advances, in µs (0 under real timers).
  uint64_t VirtualNowUs() const { return virtual_now_us_; }

  /// True if any directed channel has been declared down.
  bool AnyLinkDown() const;
  bool IsLinkDown(ProcessorId from, ProcessorId to) const;

  /// Total data messages awaiting ack across all channels (tests).
  size_t Unacked() const;

  /// Mixes the reliable layer's schedule-relevant state (sequence
  /// numbers, unacked windows with their held and resent marks, reorder
  /// buffers, relative deadlines) into an exhaustive-verifier state
  /// fingerprint. Canonical: iterates channels in index order and mixes
  /// deadlines relative to the virtual clock, never absolute times.
  void MixState(Fingerprint& fp) const;

 private:
  /// uint64_t ordering by serial-number arithmetic, so reorder-buffer
  /// keys sort correctly across the sequence wrap.
  struct SerialLess {
    bool operator()(uint64_t a, uint64_t b) const {
      return static_cast<int64_t>(a - b) < 0;
    }
  };

  static constexpr uint64_t kNoDeadline = ~0ull;

  // One unacked frame of a sender window.
  struct Pending {
    Message m;
    bool held = false;    // a selective ack reported the peer holds it
    bool resent = false;  // resent since the last timer firing
  };

  // Sender half of ordered channel (from, to), owned by `from`.
  struct TxChannel {
    uint64_t next_seq = 0;
    std::deque<Pending> unacked;  // retransmission window
    uint32_t retries = 0;
    uint64_t rto_deadline = kNoDeadline;
    bool dead = false;
  };

  // Receiver half of ordered channel (from, to), owned by `to`.
  struct RxChannel {
    uint64_t expected = 0;  // next in-sequence seq; cum ack = expected - 1
    std::map<uint64_t, Message, SerialLess> reorder;  // out-of-order frames
    bool ack_pending = false;
    uint64_t ack_deadline = kNoDeadline;
  };

  // Everything processor p owns: tx(p, to) at tx[to], rx(from, p) at
  // rx[from]. Only p's worker and the quiescence-time callers (Settle,
  // WaitQuiescent, MixState, Unacked) take `mu`; a remote send from
  // another thread is the rare exception.
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<TxChannel> tx;
    std::vector<RxChannel> rx;
    // The deadline p's worker parks until, from its last Poll; 0 while a
    // delivered batch guarantees another Poll. A send arming an earlier
    // deadline lowers it and wakes the worker.
    uint64_t parked_until = 0;
  };

  /// Receiver wrapper registered with the base transport: runs the
  /// ack/dedup/reorder state machine, then forwards the surviving batch
  /// to the real receiver (preserving DeliverBatch combining), and fires
  /// its processor's timers on Poll.
  class Endpoint : public Receiver {
   public:
    Endpoint(ReliableNetwork* net, ProcessorId id, Receiver* real)
        : net_(net), id_(id), real_(real) {}
    void Deliver(Message m) override;
    void DeliverBatch(std::vector<Message>& batch) override;
    std::chrono::steady_clock::time_point Poll() override;

   private:
    ReliableNetwork* net_;
    ProcessorId id_;
    Receiver* real_;
    // Scratch reused across deliveries; only the owning worker touches it.
    std::vector<Message> in_, out_, sends_;
  };

  using LinkList = std::vector<std::pair<ProcessorId, ProcessorId>>;

  void EnsureChannels();

  uint64_t NowUs() const;
  uint64_t BackoffUs(ProcessorId from, ProcessorId to,
                     uint32_t retries) const;
  static uint64_t NextDeadlineLocked(const Shard& shard);
  static bool SettledLocked(const Shard& shard);
  /// Fires the tx(from, to) retransmit timer, or declares the link down,
  /// if due at `now`. Requires shard `from` held. Outgoing frames go to
  /// `sends` and dead links to `downs`; the caller dispatches both after
  /// releasing the lock.
  void FireTxLocked(ProcessorId from, ProcessorId to, uint64_t now,
                    std::vector<Message>* sends, LinkList* downs);
  /// Emits the rx(from, to) pure ack if due at `now`. Requires shard `to`
  /// held.
  void FireRxLocked(ProcessorId from, ProcessorId to, uint64_t now,
                    std::vector<Message>* sends);
  /// Fires processor `id`'s due timers from its worker; returns its next
  /// deadline.
  std::chrono::steady_clock::time_point Poll(ProcessorId id);
  /// Locks every shard in processor order (the quiescence-time callers).
  std::vector<std::unique_lock<std::mutex>> LockAll() const;
  /// Arms `rxc`'s pending ack to fire no later than `deadline`.
  static void ArmAck(RxChannel& rxc, uint64_t deadline);
  /// Stamps the cumulative and selective ack of `rxc` onto `m`.
  static void StampAck(const RxChannel& rxc, Message* m);
  /// Stamps the acks for `to -> from` onto an outgoing `from -> to`
  /// frame, clearing any pending delayed ack. Requires shard `from` held.
  void AttachAckLocked(Shard& shard, Message* m);
  /// A resend of `pending`'s frame with fresh acks, marked resent.
  /// Requires shard `from` held.
  Message ResendLocked(Shard& shard, Pending& pending);
  /// Applies the acks `m` carries to tx(id, m.from): prunes the window,
  /// marks held frames and fast-retransmits the holes below them into
  /// `sends`. Requires shard `id` held.
  void OnAckLocked(ProcessorId id, const Message& m, uint64_t now,
                   std::vector<Message>* sends);
  /// Runs processor `id`'s receive state machine over `in`: surviving
  /// frames go to `out` in order, fast retransmits to `sends`.
  void ProcessBatch(ProcessorId id, std::vector<Message>& in,
                    std::vector<Message>* out, std::vector<Message>* sends);
  void DispatchDowns(const LinkList& downs);

  Network* base_;
  ReliabilityOptions options_;
  const bool real_timers_;
  LinkDownFn on_link_down_;
  const std::chrono::steady_clock::time_point epoch_;

  std::once_flag channels_once_;
  size_t num_processors_ = 0;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;

  std::unique_ptr<Shard[]> shards_;
  uint64_t virtual_now_us_ = 0;  // written by Pump under every shard lock
  std::atomic<bool> any_link_down_{false};
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_RELIABLE_H_
