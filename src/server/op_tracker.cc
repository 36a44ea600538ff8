#include "src/server/op_tracker.h"

#include <bit>
#include <utility>

#include "src/util/logging.h"
#include "src/util/mpsc_queue.h"

namespace lazytree {

OpTracker::OpTracker(ProcessorId self)
    : self_(self), mask_((uint64_t{1} << kFirstBits) - 1) {
  segments_[0] = std::make_unique<Slot[]>(size_t{1} << kFirstBits);
}

OpTracker::Slot& OpTracker::At(uint64_t index) const {
  if (index < (uint64_t{1} << kFirstBits)) return segments_[0][index];
  const int top = static_cast<int>(std::bit_width(index)) - 1;
  return segments_[top - kFirstBits + 1][index - (uint64_t{1} << top)];
}

OpId OpTracker::Begin(OpCallback callback) {
  const uint32_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = Reserve(seq);
  slot.callback = std::move(callback);
  slot.tag.store(Tag(seq, kLive), std::memory_order_release);
  published_.fetch_add(1, std::memory_order_release);
  return MakeOpId(self_, seq);
}

OpTracker::Slot& OpTracker::Reserve(uint32_t seq) {
  for (;;) {
    Slot& slot = At(seq & mask_.load(std::memory_order_acquire));
    uint64_t seen = slot.tag.load(std::memory_order_acquire);
    if ((seen & 3) == kLive) {
      Grow(seq);
      continue;
    }
    if ((seen & 3) == kBusy) {
      // A claim or a fill in progress: a few stores, never user code.
      // Growing here would double the table for a moment's overlap.
      CpuRelax();
      continue;
    }
    if (slot.tag.compare_exchange_strong(seen, Tag(seq, kBusy),
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      return slot;
    }
  }
}

void OpTracker::Grow(uint32_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t mask = mask_.load(std::memory_order_relaxed);
  while ((At(seq & mask).tag.load(std::memory_order_acquire) & 3) ==
         kLive) {
    const int segment =
        static_cast<int>(std::bit_width(mask)) - kFirstBits + 1;
    LAZYTREE_CHECK(segment < kSegments) << "op table full on p" << self_;
    segments_[segment] = std::make_unique<Slot[]>(mask + 1);
    mask = mask * 2 + 1;
    mask_.store(mask, std::memory_order_release);
  }
}

OpTracker::Slot* OpTracker::FindLive(uint32_t seq) const {
  // The op sits at its index under the table size it was begun with.
  const uint64_t live = Tag(seq, kLive);
  for (uint64_t mask = mask_.load(std::memory_order_acquire);;
       mask >>= 1) {
    Slot& slot = At(seq & mask);
    if (slot.tag.load(std::memory_order_relaxed) == live) return &slot;
    if (mask < (uint64_t{1} << kFirstBits)) return nullptr;
  }
}

bool OpTracker::Claim(uint32_t seq, OpCallback* callback) {
  Slot* slot = FindLive(seq);
  uint64_t live = Tag(seq, kLive);
  if (slot == nullptr ||
      !slot->tag.compare_exchange_strong(live, Tag(seq, kBusy),
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    return false;
  }
  *callback = std::move(slot->callback);
  slot->callback = nullptr;
  slot->tag.store(Tag(seq, kEmpty), std::memory_order_release);
  completed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void OpTracker::Complete(const OpResult& result) {
  OpCallback callback;
  if (OpOrigin(result.op) != self_ ||
      !Claim(static_cast<uint32_t>(result.op), &callback)) {
    LAZYTREE_WARN << "completion for unknown op " << result.op;
    return;
  }
  if (callback) callback(result);
}

void OpTracker::RaiseLow(uint32_t published, uint32_t next,
                         uint32_t to) const {
  // Every seq below `next` was published, so one that is not live there
  // has finished for good.
  if (published == next - 1) low_ = to;
}

size_t OpTracker::FailAllPending(const Status& status) {
  std::vector<std::pair<OpId, OpCallback>> failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t published = published_.load(std::memory_order_acquire);
    const uint32_t next = next_seq_.load(std::memory_order_acquire);
    OpCallback callback;
    for (uint32_t seq = low_; seq != next; ++seq) {
      if (Claim(seq, &callback)) {
        failed.emplace_back(MakeOpId(self_, seq), std::move(callback));
      }
    }
    RaiseLow(published, next, next);
  }
  // Callbacks run unlocked: they may Begin new ops.
  for (auto& [id, callback] : failed) {
    OpResult result;
    result.op = id;
    result.status = status;
    if (callback) callback(result);
  }
  return failed.size();
}

size_t OpTracker::Outstanding() const {
  const uint64_t done = completed_.load(std::memory_order_relaxed);
  const uint64_t begun = published_.load(std::memory_order_relaxed);
  return begun > done ? begun - done : 0;  // a fail may beat the count
}

void OpTracker::MixState(Fingerprint& fp) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t published = published_.load(std::memory_order_acquire);
  const uint32_t next = next_seq_.load(std::memory_order_acquire);
  const uint64_t done = completed_.load(std::memory_order_relaxed);
  fp.Mix(published - done);
  uint32_t oldest = next;
  for (uint32_t seq = low_; seq != next; ++seq) {
    if (FindLive(seq) == nullptr) continue;
    if (oldest == next) oldest = seq;
    fp.Mix(MakeOpId(self_, seq));
  }
  RaiseLow(published, next, oldest);
  fp.Mix(next);
  fp.Mix(done);
}

}  // namespace lazytree
