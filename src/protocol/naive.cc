#include "src/protocol/naive.h"

#include "src/util/logging.h"

namespace lazytree {

void NaiveProtocol::OnPcOutOfRangeRelay(Node& n, Action a) {
  // Fig. 4: "The PC ignores an out-of-range relayed insert." The key is
  // now in no copy's final value and in no seed — a lost update.
  if (n.is_leaf()) p_.Count(net::Counter::kDroppedLeafRelays);
  LAZYTREE_DEBUG << "naive PC dropped relay " << a.ToString() << " at "
                 << n.ToString();
}

}  // namespace lazytree
