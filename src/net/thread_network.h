// ThreadNetwork: one worker thread per simulated processor.
//
// Each processor owns a station: two lock-free MPSC queues (util/
// mpsc_queue.h) and one Parker. Peer messages enter the `inbox` ring;
// client operations enter the `clients` ring as 32-byte ClientOps. Both
// producer paths count the item in flight, publish it without a lock, and
// then poke the worker only if it has parked (Parker::WakeIfParked). The
// worker drains up to kMaxBatch items from each queue per turn (the cap
// the sim's latency mode puts on a tick's batch), builds each op's
// self-addressed Message on its own thread (counted as a local message
// there), and calls Receiver::DeliverBatch serially, which gives
// the paper's one-node-manager-per-processor execution model (§1.1) with
// genuine hardware parallelism across processors. FIFO per (from, to)
// pair holds because a sender enqueues in program order and each ring is
// FIFO per producer. Between batches the worker calls Receiver::Poll, and
// when both queues are empty it waits for the next item no later than the
// deadline Poll returned, so the receiver's timers fire on its own
// thread; Wake cuts that wait short. A submit from inside a delivery scope
// never gets here; the QueueManager buffers it in the outbox's self lane.
//
// Send *moves* the Message straight into the destination's inbox ring —
// no wire encode/decode — and counts no remote bytes. The sim transport
// moves messages the same way; the wire format stays a held contract
// through wire_test (the codec fuzz and the WireContract suite, which
// pins exact sizes, over every message of sim episodes) and the lint's
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
  ThreadNetwork() = default;
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
    // Peer messages, moved in whole.
    MpscRingQueue<Message> inbox;
    // Client ops from SubmitLocal.
    MpscRingQueue<ClientOp> clients;
    // Where the worker waits while both queues are empty.
    Parker parker;
    std::thread worker;
  };

  // Counts and enqueues one message (no fault decision).
  void Enqueue(Message m);
  void WorkerLoop(Station* station);
  // Retires `n` handled (or dropped-at-shutdown) messages; notifies
  // quiescence waiters on the zero transition.
  void OnHandled(int64_t n);

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
