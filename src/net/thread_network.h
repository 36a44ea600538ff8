// ThreadNetwork: one worker thread per simulated processor.
//
// Each processor owns an inbox; its worker drains batches and calls
// Receiver::Deliver serially, which gives the paper's one-node-manager-
// per-processor execution model with genuine hardware parallelism across
// processors. FIFO per (from, to) pair holds because a sender enqueues in
// program order and the inbox is a single FIFO queue. Between batches the
// worker calls Receiver::Poll and waits for the next message no later than
// the deadline it returns, so the receiver's timers fire on its own
// thread; Wake cuts that wait short.
//
// Client operations take a second, lock-free path: SubmitLocal counts the
// op in flight and pushes its 32-byte ClientOp into the station's
// MpscRingQueue (no lock, no allocation in steady state), and pokes the
// worker only if it has parked (MpscBatchQueue::WakeIfParked). The worker
// probes that queue while it spins and drains it at every loop turn: it
// builds each op's self-addressed Message on its own thread, counts it as
// a local message there, and delivers it in the same batch as the inbox's
// messages. A submit from inside a delivery scope never gets here; the
// QueueManager buffers it in the outbox's self lane.
//
// Send *moves* the Message straight into the destination's batched MPSC
// inbox — no wire encode/decode — and NetworkStats byte counts come from
// wire::EncodedSize, so the RPC cost model the benches report is
// unchanged. The sim transport moves messages the same way; the wire
// format stays a held contract through wire_test (the codec fuzz and the
// WireContract suite over every message of sim episodes) and the lint's
// wire-coverage pass.

#ifndef LAZYTREE_NET_THREAD_NETWORK_H_
#define LAZYTREE_NET_THREAD_NETWORK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/faults.h"
#include "src/net/transport.h"
#include "src/util/mpsc_queue.h"

namespace lazytree::net {

class ThreadNetwork : public Network {
 public:
  struct Options {
    /// Account NetworkStats::remote_bytes on the fast path (exact, via
    /// wire::EncodedSize — no buffer is materialized). Off by default:
    /// the walk costs real time per snapshot-bearing send and the
    /// RPC-cost benches that consume byte counts run on SimNetwork.
    bool byte_stats = false;
    /// Pin each worker thread to a fixed CPU (worker i -> available CPU
    /// i mod n). Best-effort; ignored where affinity is unsupported.
    bool pin_threads = true;
    /// Maximum messages drained per inbox batch. Bounds the tail: a
    /// flooded inbox is served in max_batch-sized chunks instead of one
    /// unbounded atomic batch that starves everything queued behind it.
    size_t max_batch = 128;
  };

  ThreadNetwork() : ThreadNetwork(Options{}) {}
  explicit ThreadNetwork(Options options);
  ~ThreadNetwork() override;

  /// Makes links lossy (non-owning; call before Start). Each remote Send
  /// asks the injector first: a dropped message is never counted or put
  /// in flight, a duplicated one is enqueued and counted twice.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  void Register(ProcessorId id, Receiver* receiver) override;
  ProcessorId size() const override;
  void Send(Message m) override;
  void SubmitLocal(ProcessorId p, const ClientOp& op) override;
  void Start() override;
  void Stop() override;
  bool WaitQuiescent(std::chrono::milliseconds timeout) override;
  void Wake(ProcessorId id) override;

 private:
  struct Station {
    ProcessorId id = 0;
    Receiver* receiver = nullptr;
    // Messages moved in whole, drained in batches.
    MpscBatchQueue<Message> inbox;
    // Client ops from SubmitLocal; the worker parks on `inbox`.
    MpscRingQueue<ClientOp> clients;
    std::thread worker;
  };

  // Counts and enqueues one message (no fault decision).
  void Enqueue(Message m);
  void WorkerLoop(Station* station);
  // Retires `n` handled (or dropped-at-shutdown) messages; notifies
  // quiescence waiters on the zero transition.
  void OnHandled(int64_t n);

  bool byte_stats_ = false;
  bool pin_threads_ = true;
  size_t max_batch_ = 128;
  FaultInjector* faults_ = nullptr;
  std::vector<std::unique_ptr<Station>> stations_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Quiescence: messages enqueued but not yet fully handled. Relaxed
  // increments/decrements on the hot path; the mutex + condition variable
  // are touched only on the zero transition and by waiters.
  std::atomic<int64_t> inflight_{0};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_THREAD_NETWORK_H_
