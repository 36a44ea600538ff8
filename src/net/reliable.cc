#include "src/net/reliable.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/util/rng.h"

namespace lazytree::net {
namespace {

constexpr auto kNever = std::chrono::steady_clock::time_point::max();
// Seed of the backoff-jitter hash.
constexpr uint64_t kJitterSeed = 1;
// Receiver out-of-order buffer cap per channel; frames beyond it are
// dropped and recovered by retransmission.
constexpr size_t kReorderWindow = 1024;

}  // namespace

ReliableNetwork::ReliableNetwork(Network* base, ReliabilityOptions options,
                                 bool real_timers)
    : base_(base),
      options_(options),
      real_timers_(real_timers),
      epoch_(std::chrono::steady_clock::now()) {}

void ReliableNetwork::Register(ProcessorId id, Receiver* receiver) {
  if (endpoints_.size() <= static_cast<size_t>(id)) {
    endpoints_.resize(static_cast<size_t>(id) + 1);
  }
  endpoints_[id] = std::make_unique<Endpoint>(this, id, receiver);
  base_->Register(id, endpoints_[id].get());
}

ProcessorId ReliableNetwork::size() const { return base_->size(); }

void ReliableNetwork::EnsureChannels() {
  std::call_once(channels_once_, [this] {
    num_processors_ = base_->size();
    shards_ = std::make_unique<Shard[]>(num_processors_);
    for (size_t p = 0; p < num_processors_; ++p) {
      shards_[p].tx.resize(num_processors_);
      shards_[p].rx.resize(num_processors_);
      for (TxChannel& tx : shards_[p].tx) tx.next_seq = options_.initial_seq;
      for (RxChannel& rxc : shards_[p].rx) rxc.expected = options_.initial_seq;
    }
  });
}

void ReliableNetwork::Start() {
  EnsureChannels();
  base_->Start();
}

void ReliableNetwork::Stop() { base_->Stop(); }

uint64_t ReliableNetwork::NowUs() const {
  if (!real_timers_) return virtual_now_us_;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

uint64_t ReliableNetwork::BackoffUs(ProcessorId from, ProcessorId to,
                                    uint32_t retries) const {
  const uint64_t base = options_.rto_us
                        << std::min<uint32_t>(retries, 16);
  // Deterministic jitter: a pure hash of (seed, link, attempt), so replays
  // and the exhaustive verifier see identical timer schedules.
  uint64_t state = kJitterSeed;
  state ^= 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(from) + 1);
  state ^= 0xC2B2AE3D27D4EB4Full * (static_cast<uint64_t>(to) + 1);
  state ^= 0x165667B19E3779F9ull * (retries + 1);
  const uint64_t jitter =
      options_.jitter_us == 0 ? 0 : SplitMix64(state) % (options_.jitter_us + 1);
  return base + jitter;
}

void ReliableNetwork::StampAck(const RxChannel& rxc, Message* m) {
  m->ack = rxc.expected - 1;  // cumulative: everything below expected
  m->flags |= Message::kHasAck;
  // Selective: every buffered frame within 64 of the hole. The buffer
  // holds only seqs past `expected`, in serial order.
  uint64_t sack = 0;
  for (const auto& entry : rxc.reorder) {
    const uint64_t bit = entry.first - rxc.expected - 1;
    if (bit >= 64) break;
    sack |= 1ull << bit;
  }
  m->sack = sack;
  if (sack != 0) {
    m->flags |= Message::kHasSack;
  } else {
    m->flags &= static_cast<uint8_t>(~Message::kHasSack);
  }
}

void ReliableNetwork::ArmAck(RxChannel& rxc, uint64_t deadline) {
  if (rxc.ack_pending && rxc.ack_deadline <= deadline) return;
  rxc.ack_pending = true;
  rxc.ack_deadline = deadline;
}

void ReliableNetwork::AttachAckLocked(Shard& shard, Message* m) {
  RxChannel& rxc = shard.rx[m->to];
  StampAck(rxc, m);
  if (rxc.ack_pending) {
    rxc.ack_pending = false;
    rxc.ack_deadline = kNoDeadline;
    stats().Add(m->from, Counter::kAcksPiggybacked);
  }
}

void ReliableNetwork::Send(Message m) {
  // Self-sends and unaddressed frames model in-process work; the reliable
  // machinery covers remote links only.
  if (m.from == m.to || m.from == kInvalidProcessor ||
      m.to == kInvalidProcessor) {
    base_->Send(std::move(m));
    return;
  }
  EnsureChannels();
  const ProcessorId from = m.from;
  bool wake = false;
  {
    Shard& shard = shards_[from];
    std::lock_guard<std::mutex> lock(shard.mu);
    TxChannel& tx = shard.tx[m.to];
    if (tx.dead) return;  // link declared down; ops already failed
    m.seq = tx.next_seq++;
    m.flags = 0;
    AttachAckLocked(shard, &m);
    tx.unacked.push_back(Pending{m});  // window copy for retransmission
    if (tx.unacked.size() == 1) {
      tx.rto_deadline = NowUs() + BackoffUs(from, m.to, 0);
      // Only a send from outside `from`'s delivery can land here: the
      // worker is parked (or about to park) past the new deadline.
      if (tx.rto_deadline < shard.parked_until) {
        shard.parked_until = tx.rto_deadline;
        wake = true;
      }
    }
  }
  base_->Send(std::move(m));
  if (wake) base_->Wake(from);
}

void ReliableNetwork::Endpoint::Deliver(Message m) {
  in_.push_back(std::move(m));
  DeliverBatch(in_);
  in_.clear();
}

void ReliableNetwork::Endpoint::DeliverBatch(std::vector<Message>& batch) {
  net_->ProcessBatch(id_, batch, &out_, &sends_);
  for (Message& m : sends_) net_->base_->Send(std::move(m));
  sends_.clear();
  if (!out_.empty()) real_->DeliverBatch(out_);
  out_.clear();
}

std::chrono::steady_clock::time_point ReliableNetwork::Endpoint::Poll() {
  return net_->Poll(id_);
}

Message ReliableNetwork::ResendLocked(Shard& shard, Pending& pending) {
  pending.resent = true;
  Message copy = pending.m;
  copy.flags |= Message::kRetransmit;
  AttachAckLocked(shard, &copy);
  return copy;
}

void ReliableNetwork::OnAckLocked(ProcessorId id, const Message& m,
                                  uint64_t now, std::vector<Message>* sends) {
  Shard& shard = shards_[id];
  TxChannel& tx = shard.tx[m.from];
  bool progress = false;
  while (!tx.unacked.empty() &&
         static_cast<int64_t>(tx.unacked.front().m.seq - m.ack) <= 0) {
    tx.unacked.pop_front();
    progress = true;
  }
  if (progress) {
    tx.retries = 0;
    tx.rto_deadline = tx.unacked.empty() ? kNoDeadline
                                         : now + BackoffUs(id, m.from, 0);
  }
  if (!(m.flags & Message::kHasSack)) return;
  // Bit i is seq ack + 2 + i. The peer never discards a frame it holds, so
  // held marks only accumulate, even from a stale ack.
  size_t holes_end = 0;  // one past the highest held frame
  for (size_t i = 0; i < tx.unacked.size(); ++i) {
    Pending& pending = tx.unacked[i];
    const uint64_t bit = pending.m.seq - m.ack - 2;
    if (bit < 64 && ((m.sack >> bit) & 1) != 0) pending.held = true;
    if (pending.held) holes_end = i + 1;
  }
  size_t resent = 0;
  bool head_resent = false;
  for (size_t i = 0; i < holes_end; ++i) {
    Pending& pending = tx.unacked[i];
    if (pending.held || pending.resent) continue;
    sends->push_back(ResendLocked(shard, pending));
    ++resent;
    head_resent = head_resent || i == 0;
  }
  if (resent == 0) return;
  stats().Add(id, Counter::kRetransmits, resent);
  // Fast retransmits spend no budget. The timer guards the window head:
  // a resent head gets a full timeout to land, while later holes' resends
  // leave the deadline alone, so a head whose resend is lost too is not
  // starved by fresh holes behind it.
  if (head_resent) tx.rto_deadline = now + BackoffUs(id, m.from, tx.retries);
}

void ReliableNetwork::ProcessBatch(ProcessorId id, std::vector<Message>& in,
                                   std::vector<Message>* out,
                                   std::vector<Message>* sends) {
  EnsureChannels();
  Shard& shard = shards_[id];
  std::lock_guard<std::mutex> lock(shard.mu);
  // The worker polls again after this batch, so nothing armed before then
  // needs a wake.
  shard.parked_until = 0;
  const uint64_t now = NowUs();
  for (Message& m : in) {
    if (m.from == m.to || m.from == kInvalidProcessor) {
      out->push_back(std::move(m));
      continue;
    }
    // The peer acks our `id -> m.from` channel.
    if (m.flags & Message::kHasAck) OnAckLocked(id, m, now, sends);
    if (m.flags & Message::kAckOnly) continue;  // never delivered upward

    RxChannel& rxc = shard.rx[m.from];
    const int64_t diff = static_cast<int64_t>(m.seq - rxc.expected);
    if (diff == 0) {
      out->push_back(std::move(m));
      ++rxc.expected;
      while (!rxc.reorder.empty() &&
             rxc.reorder.begin()->first == rxc.expected) {
        out->push_back(std::move(rxc.reorder.begin()->second));
        rxc.reorder.erase(rxc.reorder.begin());
        ++rxc.expected;
      }
      ArmAck(rxc, now + options_.ack_delay_us);
    } else if (diff < 0 || rxc.reorder.count(m.seq) != 0) {
      // Stale or duplicate frame: the peer is (re)sending something we
      // already have, so re-ack eagerly to shut its timer down.
      stats().Add(id, Counter::kDuplicatesDropped);
      ArmAck(rxc, now);
    } else if (rxc.reorder.size() < kReorderWindow) {
      // A missing predecessor is a new hole: report it at once so the
      // sender fast-retransmits it. Later frames refresh the report.
      const bool new_hole = rxc.reorder.count(m.seq - 1) == 0;
      ArmAck(rxc, new_hole ? now : now + options_.ack_delay_us);
      rxc.reorder.emplace(m.seq, std::move(m));
    }
    // else: reorder window overflow — drop; the sender resends it.
  }
}

uint64_t ReliableNetwork::NextDeadlineLocked(const Shard& shard) {
  uint64_t next = kNoDeadline;
  for (const TxChannel& tx : shard.tx) {
    if (!tx.dead && !tx.unacked.empty()) next = std::min(next, tx.rto_deadline);
  }
  for (const RxChannel& rxc : shard.rx) {
    if (rxc.ack_pending) next = std::min(next, rxc.ack_deadline);
  }
  return next;
}

void ReliableNetwork::FireTxLocked(ProcessorId from, ProcessorId to,
                                   uint64_t now, std::vector<Message>* sends,
                                   LinkList* downs) {
  Shard& shard = shards_[from];
  TxChannel& tx = shard.tx[to];
  if (tx.dead || tx.unacked.empty() || tx.rto_deadline > now) return;
  if (tx.retries >= options_.max_retransmits) {
    // Budget spent: declare the link down instead of hanging Settle().
    tx.dead = true;
    tx.unacked.clear();
    tx.rto_deadline = kNoDeadline;
    any_link_down_.store(true, std::memory_order_relaxed);
    stats().Add(from, Counter::kLinkDown);
    downs->emplace_back(from, to);
    return;
  }
  // A new timeout epoch: resend every frame the peer is not known to
  // hold, held frames never.
  ++tx.retries;
  size_t resent = 0;
  for (Pending& pending : tx.unacked) {
    if (pending.held) continue;
    sends->push_back(ResendLocked(shard, pending));
    ++resent;
  }
  stats().Add(from, Counter::kRetransmits, resent);
  tx.rto_deadline = now + BackoffUs(from, to, tx.retries);
}

void ReliableNetwork::FireRxLocked(ProcessorId from, ProcessorId to,
                                   uint64_t now, std::vector<Message>* sends) {
  RxChannel& rxc = shards_[to].rx[from];
  if (!rxc.ack_pending || rxc.ack_deadline > now) return;
  Message ack;
  ack.from = to;  // the rx channel's owner acks back to the sender
  ack.to = from;
  ack.flags = Message::kAckOnly;
  StampAck(rxc, &ack);
  rxc.ack_pending = false;
  rxc.ack_deadline = kNoDeadline;
  stats().Add(to, Counter::kPureAcks);
  sends->push_back(std::move(ack));
}

void ReliableNetwork::DispatchDowns(const LinkList& downs) {
  if (!on_link_down_) return;
  for (const auto& [from, to] : downs) on_link_down_(from, to);
}

std::chrono::steady_clock::time_point ReliableNetwork::Poll(ProcessorId id) {
  if (!real_timers_) return kNever;
  EnsureChannels();
  std::vector<Message> sends;
  LinkList downs;
  uint64_t next;
  {
    // Only `id`'s own channel halves: another processor's fields belong
    // to its worker.
    Shard& shard = shards_[id];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint64_t now = NowUs();
    for (ProcessorId peer = 0; peer < num_processors_; ++peer) {
      FireTxLocked(id, peer, now, &sends, &downs);
      FireRxLocked(peer, id, now, &sends);
    }
    next = NextDeadlineLocked(shard);
    shard.parked_until = next;
  }
  for (Message& m : sends) base_->Send(std::move(m));
  DispatchDowns(downs);
  if (next == kNoDeadline) return kNever;
  return epoch_ + std::chrono::microseconds(next);
}

std::vector<std::unique_lock<std::mutex>> ReliableNetwork::LockAll() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_processors_);
  for (size_t p = 0; p < num_processors_; ++p) {
    locks.emplace_back(shards_[p].mu);
  }
  return locks;
}

bool ReliableNetwork::Pump() {
  if (real_timers_) return false;
  EnsureChannels();
  std::vector<Message> sends;
  LinkList downs;
  {
    const auto locks = LockAll();
    uint64_t next = kNoDeadline;
    for (size_t p = 0; p < num_processors_; ++p) {
      next = std::min(next, NextDeadlineLocked(shards_[p]));
    }
    if (next == kNoDeadline) return false;
    if (next > virtual_now_us_) virtual_now_us_ = next;
    // Deterministic firing order: tx channels then rx channels, both in
    // (from, to) order — required for replayable schedules.
    const ProcessorId n = static_cast<ProcessorId>(num_processors_);
    for (ProcessorId from = 0; from < n; ++from) {
      for (ProcessorId to = 0; to < n; ++to) {
        FireTxLocked(from, to, virtual_now_us_, &sends, &downs);
      }
    }
    for (ProcessorId from = 0; from < n; ++from) {
      for (ProcessorId to = 0; to < n; ++to) {
        FireRxLocked(from, to, virtual_now_us_, &sends);
      }
    }
  }
  for (Message& m : sends) base_->Send(std::move(m));
  DispatchDowns(downs);
  return !sends.empty() || !downs.empty();
}

bool ReliableNetwork::SettledLocked(const Shard& shard) {
  for (const TxChannel& tx : shard.tx) {
    if (!tx.dead && !tx.unacked.empty()) return false;
  }
  for (const RxChannel& rxc : shard.rx) {
    if (rxc.ack_pending) return false;
  }
  return true;
}

bool ReliableNetwork::WaitQuiescent(std::chrono::milliseconds timeout) {
  EnsureChannels();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const auto all_settled = [this] {
    for (size_t p = 0; p < num_processors_; ++p) {
      std::lock_guard<std::mutex> lock(shards_[p].mu);
      if (!SettledLocked(shards_[p])) return false;
    }
    return true;
  };
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (!base_->WaitQuiescent(remaining > std::chrono::milliseconds(0)
                                  ? remaining
                                  : std::chrono::milliseconds(0))) {
      return false;
    }
    if (all_settled()) return true;
    if (real_timers_) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      // The workers own firing; give their timers (acks are due within
      // ack_delay_us) time to move the state, then re-check the base.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    // Virtual timers: fire the earliest deadline ourselves. Pump returning
    // false with unsettled channels cannot happen (unacked windows and
    // pending acks always carry deadlines) — bail out rather than spin.
    if (!Pump()) return all_settled();
  }
}

bool ReliableNetwork::AnyLinkDown() const {
  return any_link_down_.load(std::memory_order_relaxed);
}

bool ReliableNetwork::IsLinkDown(ProcessorId from, ProcessorId to) const {
  if (shards_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(shards_[from].mu);
  return shards_[from].tx[to].dead;
}

size_t ReliableNetwork::Unacked() const {
  size_t total = 0;
  for (size_t p = 0; p < num_processors_; ++p) {
    std::lock_guard<std::mutex> lock(shards_[p].mu);
    for (const TxChannel& tx : shards_[p].tx) total += tx.unacked.size();
  }
  return total;
}

void ReliableNetwork::MixState(Fingerprint& fp) const {
  const auto locks = LockAll();
  // Deadlines mix relative to the virtual clock: absolute times grow
  // monotonically and would make every state unique.
  const auto relative = [this](uint64_t deadline) {
    return deadline == kNoDeadline ? 0 : deadline - virtual_now_us_ + 1;
  };
  fp.Mix(0x52454C4E45544D58ull);  // "RELNETMX"
  for (size_t from = 0; from < num_processors_; ++from) {
    for (const TxChannel& tx : shards_[from].tx) {
      fp.Mix(tx.next_seq);
      fp.Mix(tx.unacked.size());
      for (const Pending& pending : tx.unacked) {
        fp.Mix(pending.m.seq);
        fp.Mix((pending.held ? 1 : 0) | (pending.resent ? 2 : 0));
      }
      fp.Mix(tx.retries);
      fp.Mix(tx.dead ? 1 : 0);
      fp.Mix(relative(tx.rto_deadline));
    }
  }
  for (size_t from = 0; from < num_processors_; ++from) {
    for (size_t to = 0; to < num_processors_; ++to) {
      const RxChannel& rxc = shards_[to].rx[from];
      fp.Mix(rxc.expected);
      fp.Mix(rxc.reorder.size());
      for (const auto& [seq, m] : rxc.reorder) fp.Mix(seq);
      fp.Mix(rxc.ack_pending ? 1 : 0);
      fp.Mix(relative(rxc.ack_deadline));
    }
  }
}

}  // namespace lazytree::net
