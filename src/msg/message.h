// Message: an action in flight between two processors.

#ifndef LAZYTREE_MSG_MESSAGE_H_
#define LAZYTREE_MSG_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/msg/action.h"

namespace lazytree {

/// Envelope carrying one or more actions from one processor to another.
///
/// A message may carry many actions: a processor's outbox (QueueManager)
/// sends everything one delivery emits toward a destination as one
/// message, and piggybacks held relayed updates onto the next direct
/// message for that destination, which is why `actions` is a vector —
/// exactly the optimization §1.1 describes.
struct Message {
  /// Reliable-delivery flag bits (net/reliable.h).
  static constexpr uint8_t kHasAck = 1 << 0;      ///< `ack` field is valid
  static constexpr uint8_t kAckOnly = 1 << 1;     ///< pure ack, no payload
  static constexpr uint8_t kRetransmit = 1 << 2;  ///< resent copy
  static constexpr uint8_t kHasSack = 1 << 3;     ///< `sack` field is valid

  ProcessorId from = kInvalidProcessor;
  ProcessorId to = kInvalidProcessor;
  uint64_t seq = 0;  ///< per-(from,to) channel sequence, assigned by net
  uint64_t ack = 0;  ///< cumulative ack for the reverse channel (kHasAck)
  /// Selective ack for the reverse channel (kHasSack): bit i set means
  /// the receiver holds seq `ack + 2 + i`, past the hole at `ack + 1`.
  uint64_t sack = 0;
  uint8_t flags = 0;  ///< Message::kHasAck | kAckOnly | kRetransmit | kHasSack
  std::vector<Action> actions;

  Message() = default;
  /// One-action message. The action is moved in (a braced init list
  /// would copy it: its elements are const).
  Message(ProcessorId f, ProcessorId t, Action a) : from(f), to(t) {
    actions.push_back(std::move(a));
  }

  std::string ToString() const;
  friend bool operator==(const Message&, const Message&) = default;
};

/// A client operation on its way from a client thread into its home
/// processor's message queue: what Processor::Submit* hand the network
/// (Network::SubmitLocal), small enough to copy into a lock-free queue
/// cell. The worker turns it into the self-addressed one-action message
/// the paper's model has a client operation become (§1.1). Never encoded.
struct ClientOp {
  ActionKind kind = ActionKind::kInvalid;  ///< kSearch .. kScanOp
  ProcessorId origin = kInvalidProcessor;  ///< home processor
  OpId op = kNoOp;
  Key key = 0;
  Value value = 0;  ///< insert value, or scan limit

  Action ToAction() const {
    Action a;
    a.kind = kind;
    a.op = op;
    a.key = key;
    a.value = value;
    a.origin = origin;
    return a;
  }
};
static_assert(sizeof(ClientOp) == 32, "ClientOp fills half a cache line");

}  // namespace lazytree

#endif  // LAZYTREE_MSG_MESSAGE_H_
