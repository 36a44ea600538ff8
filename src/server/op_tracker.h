// OpTracker: outstanding client operations at one processor.
//
// Clients begin operations from arbitrary threads; completions arrive on
// the processor's worker thread as kReturnValue actions, and a crash or a
// dead link (Cluster::OnLinkDown, on any worker) fails whatever is left.
// The tracker is the only processor component shared across threads.
//
// Op slots: an op's seq (OpId = processor | seq, so wire bytes, traces
// and verifier digests keep their values) indexes a table of slots, and
// the op's callback lives in its slot. Each slot has one atomic tag,
// `seq << 2 | state`: empty (free, remembering its last seq), busy (being
// filled or emptied) or live. Begin claims the slot for a new seq with a
// CAS from empty to busy, stores the callback and publishes it live;
// Complete and FailAllPending claim a live slot with one CAS from live to
// busy, so a completion on the owning worker racing a FailAllPending on
// another thread still runs the callback exactly once. Completion never
// locks.
//
// The table starts small and doubles. Begin takes `mu_` only when the
// slot for a new seq is still live (a straggler op outlived a whole
// table of later ones): it then adds a segment that doubles the table.
// A busy slot is a claim or a fill a few stores from done (no callback
// runs while a slot is busy), so Begin waits it out instead.
// Segments never move, so an op keeps the slot it was given; lookups try
// the op's index under each table size, newest first, and nearly always
// hit on the first try.
//
// FailAllPending and MixState walk seqs from `low_`, below which no op
// is live, up to the next seq, raising `low_` past the finished prefix
// whenever no Begin is in flight. At quiescence (where the verifier
// calls MixState) that is the live ops plus the finished ones issued
// after the oldest of them, not the whole table. Outstanding is two
// counters.

#ifndef LAZYTREE_SERVER_OP_TRACKER_H_
#define LAZYTREE_SERVER_OP_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/msg/action.h"
#include "src/msg/fingerprint.h"
#include "src/util/status.h"

namespace lazytree {

/// Outcome of one search / insert / delete / scan operation.
struct OpResult {
  OpId op = kNoOp;
  Status status;      ///< OK, NotFound (search miss), AlreadyExists, ...
  Key key = 0;
  Value value = 0;    ///< search hit value
  uint32_t hops = 0;  ///< node visits the operation made
  std::vector<Entry> entries;  ///< scan results (ascending by key)
};

using OpCallback = std::function<void(const OpResult&)>;

class OpTracker {
 public:
  explicit OpTracker(ProcessorId self);

  /// Registers a new operation; returns its id. Any thread.
  OpId Begin(OpCallback callback);

  /// Completes an operation; invokes its callback exactly once.
  /// Unknown ids are ignored (duplicate completion is a protocol bug that
  /// tests catch via the completion counter).
  void Complete(const OpResult& result);

  /// Fails every outstanding operation with `status`, in id order (crash
  /// injection: the client sees its server die). Returns how many were
  /// failed.
  size_t FailAllPending(const Status& status);

  size_t Outstanding() const;
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Folds the tracker's observable state (outstanding op ids in id order
  /// plus the issue/completion counters) into a verifier state
  /// fingerprint. Call at quiescence.
  void MixState(Fingerprint& fp) const;

 private:
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kBusy = 1;
  static constexpr uint64_t kLive = 2;
  static constexpr int kFirstBits = 3;  // first segment: 8 slots
  static constexpr int kSegments = 32 - kFirstBits + 1;  // up to 2^32

  struct Slot {
    std::atomic<uint64_t> tag{0};  // seq << 2 | state
    OpCallback callback;
  };

  static uint64_t Tag(uint32_t seq, uint64_t state) {
    return (static_cast<uint64_t>(seq) << 2) | state;
  }
  Slot& At(uint64_t index) const;
  // Claims the empty slot for `seq` (busy), growing the table while it
  // is live.
  Slot& Reserve(uint32_t seq);
  // Doubles the table until `seq`'s slot is not live. Takes mu_.
  void Grow(uint32_t seq);
  // The slot where `seq` is live, or null.
  Slot* FindLive(uint32_t seq) const;
  // Claims live `seq` (live -> busy) and takes its callback; the slot is
  // empty again on return. False if `seq` is not live.
  bool Claim(uint32_t seq, OpCallback* callback);
  // Requires mu_. Raises low_ to `to` when no Begin is in flight.
  void RaiseLow(uint32_t published, uint32_t next, uint32_t to) const;

  // Table: mask_ + 1 slots in segments; segment k >= 1 holds indexes
  // [2^(kFirstBits+k-1), 2^(kFirstBits+k)). Grown under mu_, published by
  // mask_; read-mostly.
  ProcessorId self_;
  std::atomic<uint64_t> mask_;
  std::unique_ptr<Slot[]> segments_[kSegments];
  // Guards growth, and the walks' low_.
  mutable std::mutex mu_;
  mutable uint32_t low_ = 1;
  // Written by Begin (client threads), each side on its own cache line.
  alignas(64) std::atomic<uint32_t> next_seq_{1};
  std::atomic<uint32_t> published_{0};  // Begins that published their op
  // Written by completions (workers).
  alignas(64) std::atomic<uint64_t> completed_{0};
};

}  // namespace lazytree

#endif  // LAZYTREE_SERVER_OP_TRACKER_H_
