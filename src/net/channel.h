// Channel: one ordered (from, to) message lane inside SimNetwork.

#ifndef LAZYTREE_NET_CHANNEL_H_
#define LAZYTREE_NET_CHANNEL_H_

#include <deque>
#include <utility>

#include "src/msg/message.h"
#include "src/util/logging.h"

namespace lazytree::net {

/// FIFO queue of in-flight messages, held as moved `Message` values: a
/// Message owns its actions outright (no pointers, no shared buffers), so
/// the queued copy is isolated from the sender without an encode step.
/// Single-threaded (SimNetwork only).
class Channel {
 public:
  void Push(Message m) { queue_.push_back(std::move(m)); }

  /// Pops the head. Precondition: !Empty().
  Message Pop() {
    LAZYTREE_CHECK(!queue_.empty()) << "Pop on empty channel";
    Message head = std::move(queue_.front());
    queue_.pop_front();
    return head;
  }

  /// Queued message at `index` (0 = head). Precondition: index < Size().
  /// The exhaustive verifier inspects pending messages without popping.
  const Message& Peek(size_t index = 0) const { return queue_[index]; }

  /// Swaps the first two queued messages (planted-mutation self-test:
  /// deliberately violates per-channel FIFO). Precondition: Size() >= 2.
  void SwapFirstTwo() { std::swap(queue_[0], queue_[1]); }

  bool Empty() const { return queue_.empty(); }
  size_t Size() const { return queue_.size(); }

 private:
  std::deque<Message> queue_;
};

}  // namespace lazytree::net

#endif  // LAZYTREE_NET_CHANNEL_H_
