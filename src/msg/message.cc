#include "src/msg/message.h"

#include <sstream>

namespace lazytree {

std::string Message::ToString() const {
  std::ostringstream os;
  os << "p" << from << "->p" << to << "#" << seq;
  if (flags & kHasAck) os << "~a" << ack;
  if (flags & kHasSack) os << "~s" << std::hex << sack << std::dec;
  if (flags & kAckOnly) os << "!ack";
  if (flags & kRetransmit) os << "!rtx";
  os << "{";
  for (size_t i = 0; i < actions.size(); ++i) {
    if (i) os << ", ";
    os << actions[i].ToString();
  }
  os << "}";
  return os.str();
}

}  // namespace lazytree
