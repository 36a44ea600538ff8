#include "src/net/thread_network.h"

#include "src/msg/wire.h"
#include "src/util/affinity.h"
#include "src/util/logging.h"

namespace lazytree::net {
namespace {

// Items drained per queue per worker turn. Bounds the tail: a flooded
// inbox is served in chunks instead of one unbounded atomic batch that
// starves everything queued behind it.
constexpr size_t kMaxBatch = 128;

}  // namespace

ThreadNetwork::ThreadNetwork(Options options)
    : byte_stats_(options.byte_stats) {}

ThreadNetwork::~ThreadNetwork() { Stop(); }

void ThreadNetwork::Register(ProcessorId id, Receiver* receiver) {
  LAZYTREE_CHECK(!started_.load(std::memory_order_acquire))
      << "register after Start";
  if (stations_.size() <= id) stations_.resize(id + 1);
  LAZYTREE_CHECK(stations_[id] == nullptr) << "double register p" << id;
  stations_[id] = std::make_unique<Station>();
  stations_[id]->id = id;
  stations_[id]->receiver = receiver;
}

ProcessorId ThreadNetwork::size() const {
  return static_cast<ProcessorId>(stations_.size());
}

void ThreadNetwork::Send(Message m) {
  LAZYTREE_CHECK(m.to < stations_.size() && stations_[m.to] != nullptr)
      << "send to unregistered p" << m.to;
  if (faults_ != nullptr) {
    switch (faults_->Next(m.from, m.to)) {
      case DeliveryOutcome::kDrop: return;
      case DeliveryOutcome::kDuplicate: Enqueue(m); break;
      default: break;
    }
  }
  Enqueue(std::move(m));
}

void ThreadNetwork::SubmitLocal(ProcessorId p, const ClientOp& op) {
  LAZYTREE_CHECK(p < stations_.size() && stations_[p] != nullptr)
      << "submit to unregistered p" << p;
  Station& station = *stations_[p];
  // In flight before it is visible, so quiescence cannot miss it.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (!station.clients.Push(op)) {
    OnHandled(1);  // stopped: handled, as a closed inbox's message is
    return;
  }
  station.parker.WakeIfParked();
}

void ThreadNetwork::Enqueue(Message m) {
  Station& station = *stations_[m.to];
  // Opt-in byte counts are exact even though no buffer is materialized;
  // self-sends are never counted as network bytes.
  stats_.OnSend(
      m, byte_stats_ && m.from != m.to ? wire::EncodedSize(m) : 0);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (!station.inbox.Push(std::move(m))) {
    // Inbox closed during shutdown: account the message as handled.
    OnHandled(1);
    return;
  }
  station.parker.WakeIfParked();
}

void ThreadNetwork::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return;
  }
  for (auto& station : stations_) {
    LAZYTREE_CHECK(station != nullptr) << "processor ids must be dense";
    station->worker = std::thread(&ThreadNetwork::WorkerLoop, this,
                                  station.get());
  }
}

void ThreadNetwork::WorkerLoop(Station* station) {
  // Pin only when there are cores to spread over: on a single-CPU host
  // (or a 1-CPU cgroup) pinning is a no-op scheduling-wise and skipping
  // it keeps strace/TSan logs quiet.
  if (AvailableCpus() > 1) {
    PinCurrentThreadToCpu(static_cast<unsigned>(station->id));
  }
  std::vector<Message> batch;  // capacity recycled across turns
  const ProcessorId id = station->id;
  const auto ready = [station] {
    return station->inbox.Ready() || station->clients.Ready();
  };
  auto deadline = station->receiver->Poll();
  for (;;) {
    station->inbox.Drain(
        kMaxBatch, [&](Message& m) { batch.push_back(std::move(m)); });
    station->clients.Drain(kMaxBatch, [&](const ClientOp& op) {
      batch.emplace_back(id, id, op.ToAction());
      stats_.OnSend(batch.back(), 0);
    });
    if (!batch.empty()) {
      station->receiver->DeliverBatch(batch);
      OnHandled(static_cast<int64_t>(batch.size()));
      batch.clear();
    } else if (!station->parker.WaitUntil(deadline, ready)) {
      break;  // stopped, with both queues drained
    }
    deadline = station->receiver->Poll();
  }
  // Stop closed both queues before the parker: retire the pushes that
  // raced it.
  const size_t left =
      station->inbox.DrainClosed() + station->clients.DrainClosed();
  if (left > 0) OnHandled(static_cast<int64_t>(left));
}

void ThreadNetwork::Wake(ProcessorId id) {
  LAZYTREE_CHECK(id < stations_.size() && stations_[id] != nullptr)
      << "wake of unregistered p" << id;
  stations_[id]->parker.Poke();
}

void ThreadNetwork::OnHandled(int64_t n) {
  const int64_t prev = inflight_.fetch_sub(n, std::memory_order_acq_rel);
  LAZYTREE_CHECK(prev >= n) << "inflight underflow: " << prev << " - " << n;
  if (prev == n) {
    // Zero transition: sync with WaitQuiescent's predicate check.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_cv_.notify_all();
  }
}

void ThreadNetwork::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return;
  }
  for (auto& station : stations_) {
    if (station) {
      station->clients.Close();
      station->inbox.Close();
      station->parker.Close();
    }
  }
  for (auto& station : stations_) {
    if (station && station->worker.joinable()) station->worker.join();
  }
}

bool ThreadNetwork::WaitQuiescent(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  return inflight_cv_.wait_for(lock, timeout, [&] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace lazytree::net
