// QueueManager: the paper's per-processor message-queue component (§1.1).
//
// The node manager hands it subsequent actions; it routes each one to the
// processor storing the target copy — a self-send lands back in the local
// queue (the paper's "new entry is put into the message queue"), a remote
// send crosses the Network. Self-sends are counted as local messages, not
// network traffic.
//
// The outbox: while the owning worker thread is inside a delivery scope
// (BeginCombine/EndCombine, opened by the Processor around every Deliver
// and DeliverBatch), outgoing actions are buffered per destination and
// flushed as one multi-action message per destination when the scope
// closes. A batch of searches crossing the same hot root replica therefore
// leaves as a single message instead of one message per op. Correctness
// rides on the paper's own model: a message already carries a *vector* of
// actions, the receiver handles them serially, and per-(from,to) FIFO is
// preserved because a destination's actions always leave in buffer order.
//
// Piggybacking (§1.1: "the lazy update can be piggybacked onto messages
// used for other purposes"): with a nonzero `piggyback_window`, a remote
// destination whose buffered actions are all relayed updates (which
// commute — that is what makes them safe to delay) stays deferred when the
// scope closes. Its relays leave with the next non-relay action for that
// destination, or as one message once `piggyback_window` of them are
// waiting. TakeDeferred hands whatever is still held to Cluster::Settle,
// which sends it at quiescence.
//
// Client operations enter through SubmitClient. Inside the owner's
// delivery scope (a completion callback submitting to its own processor)
// the op is buffered in the self lane like any other local action, which
// keeps the sim's schedules what they were; anywhere else it goes to
// Network::SubmitLocal, the network's client edge.
//
// Thread safety: SubmitClient may be called from any thread, everything
// else only by the processor's delivery thread. The buffers are touched
// only inside a scope, on the thread that opened it, or by TakeDeferred
// while the network is quiescent. Whether the calling thread is inside
// this manager's scope is one read of a thread_local pointer to the
// manager whose scope the thread has open; no state is shared across
// threads to answer it.

#ifndef LAZYTREE_SERVER_QUEUE_MANAGER_H_
#define LAZYTREE_SERVER_QUEUE_MANAGER_H_

#include <vector>

#include "src/net/transport.h"
#include "src/util/logging.h"

namespace lazytree {

class QueueManager {
 public:
  /// `piggyback_window` — relays a destination may hold across delivery
  /// scopes before they leave on their own; 0 sends every scope's
  /// actions when it closes.
  QueueManager(ProcessorId self, net::Network* network,
               size_t piggyback_window = 0)
      : self_(self), network_(network), window_(piggyback_window) {}

  ProcessorId self() const { return self_; }

  /// Routes one action to `dest` (which may be self_).
  void SendAction(ProcessorId dest, Action action) {
    if (CombiningHere()) {
      BufferAction(dest, std::move(action));
      return;
    }
    network_->Send(Message(self_, dest, std::move(action)));
  }

  /// Re-enqueues an action locally (deferred work, local hops).
  void SendLocal(Action action) { SendAction(self_, std::move(action)); }

  /// Enqueues a client operation at this processor. Any thread.
  void SubmitClient(const ClientOp& op) {
    if (CombiningHere()) {
      BufferAction(self_, op.ToAction());
      return;
    }
    network_->SubmitLocal(self_, op);
  }

  /// Sends a copy of `action` to every processor in `dests` except self.
  void Broadcast(const std::vector<ProcessorId>& dests, const Action& action) {
    for (ProcessorId d : dests) {
      if (d != self_) SendAction(d, action);
    }
  }

  /// Opens a delivery scope owned by the calling thread. Nestable (a
  /// batch scope around per-message scopes); only the outermost
  /// EndCombine flushes. Must not be called while another thread owns a
  /// scope — the Processor only opens scopes from its (single) delivery
  /// thread, which the network serializes.
  void BeginCombine() {
    if (combine_depth_ == 0) {
      outer_ = combining_;
      combining_ = this;
    }
    ++combine_depth_;
  }

  /// Closes the scope; the outermost close sends every destination the
  /// scope touched (first-touch order) as one message each, except the
  /// relay-only ones the piggyback window lets wait.
  void EndCombine() {
    LAZYTREE_CHECK(combine_depth_ > 0) << "unbalanced EndCombine";
    if (--combine_depth_ > 0) return;
    combining_ = outer_;
    Flush();
  }

  /// Moves every held relay out of the outbox, one message per
  /// destination appended to `out`, without sending them. Call outside
  /// any scope, while no delivery is running. The caller sends them only
  /// after taking every outbox it means to take: a send wakes the
  /// destination's worker, which owns its outbox again.
  void TakeDeferred(std::vector<Message>* out) {
    for (ProcessorId dest = 0; dest < lanes_.size(); ++dest) {
      if (lanes_[dest].held == 0) continue;
      network_->stats().OnCombined(lanes_[dest].held - 1);
      out->push_back(TakeLane(dest));
    }
  }

  /// Drops every held relay (fail-stop crash: the outbox is volatile).
  void Clear() {
    for (Lane& lane : lanes_) lane = Lane();
    touched_.clear();
    deferred_ = 0;
  }

  /// Relayed actions held across delivery scopes. Owner thread, or any
  /// thread while the network is quiescent.
  size_t deferred() const { return deferred_; }

  net::Network* network() { return network_; }

 private:
  // One destination's buffer. `direct` counts its non-relay actions: a
  // lane with none may wait for the piggyback window. `held` counts the
  // actions already kept past a scope's end (its share of deferred_).
  struct Lane {
    Message msg;
    size_t direct = 0;
    size_t held = 0;
    bool touched = false;  // listed in touched_ for the current scope
  };

  bool CombiningHere() const {
    // Doubles as the "is a scope open" check: a thread outside this
    // manager's scope never matches, and must not, because the buffers
    // are confined to the scope's thread.
    return combining_ == this;
  }

  void BufferAction(ProcessorId dest, Action action) {
    if (lanes_.size() <= dest) lanes_.resize(dest + 1);
    Lane& lane = lanes_[dest];
    if (!lane.touched) {
      lane.touched = true;
      touched_.push_back(dest);
    }
    if (!action.IsRelayed()) ++lane.direct;
    lane.msg.actions.push_back(std::move(action));
  }

  /// Sends the touched destinations' buffers, except a remote relay-only
  /// lane below the window, which stays (or starts) deferred.
  void Flush() {
    size_t actions = 0;
    size_t messages = 0;
    size_t newly_deferred = 0;
    for (ProcessorId dest : touched_) {
      Lane& lane = lanes_[dest];
      lane.touched = false;
      const size_t n = lane.msg.actions.size();
      if (n == 0) continue;
      if (window_ > 0 && dest != self_ && lane.direct == 0 && n < window_) {
        newly_deferred += n - lane.held;
        lane.held = n;
        continue;
      }
      actions += n;
      ++messages;
      network_->Send(TakeLane(dest));
    }
    touched_.clear();
    deferred_ += newly_deferred;
    if (newly_deferred > 0) network_->stats().OnPiggyback(newly_deferred);
    if (actions > messages) {
      network_->stats().OnCombined(actions - messages);
    }
  }

  /// Empties `dest`'s lane into one message from self_ to `dest`.
  Message TakeLane(ProcessorId dest) {
    Lane& lane = lanes_[dest];
    deferred_ -= lane.held;
    Message m = std::move(lane.msg);
    m.from = self_;
    m.to = dest;
    lane = Lane();
    return m;
  }

  ProcessorId self_;
  net::Network* network_;
  size_t window_;

  // The manager whose delivery scope the calling thread has open, if any.
  static inline thread_local QueueManager* combining_ = nullptr;

  // Outbox state, confined to the scope's thread. `outer_` is the scope
  // (another manager's) this one opened inside, restored on close.
  QueueManager* outer_ = nullptr;
  int combine_depth_ = 0;
  std::vector<Lane> lanes_;             // indexed by destination
  std::vector<ProcessorId> touched_;    // first-touch destinations
  size_t deferred_ = 0;                 // sum of lanes' `held`
};

}  // namespace lazytree

#endif  // LAZYTREE_SERVER_QUEUE_MANAGER_H_
