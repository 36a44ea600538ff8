// Synchronous split protocol (§4.1.1).
//
// Splits run under an AAS (the distributed lock analogue): the PC sends
// split_start to every copy, copies block *initial* updates (searches and
// relayed updates keep flowing) and acknowledge, and once all acks arrive
// the PC performs the half-split and broadcasts split_end. The ordering
// of inserts vs. splits at the PC becomes the standard every copy obeys.
// Cost: 3·|copies(n)| messages per split, and initial inserts stall for a
// round trip — exactly what the semi-synchronous protocol eliminates.

#ifndef LAZYTREE_PROTOCOL_SYNC_SPLIT_H_
#define LAZYTREE_PROTOCOL_SYNC_SPLIT_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/protocol/fixed.h"

namespace lazytree {

class SyncSplitProtocol : public FixedCopiesProtocol {
 public:
  using FixedCopiesProtocol::FixedCopiesProtocol;

  void MixState(Fingerprint& fp) const override {
    BaseProtocol::MixState(fp);
    std::vector<std::pair<NodeId, uint32_t>> acks(pending_acks_.begin(),
                                                  pending_acks_.end());
    std::sort(acks.begin(), acks.end());
    fp.Mix(acks.size());
    for (const auto& [id, count] : acks) {
      fp.Mix(id.v);
      fp.Mix(count);
    }
  }

 protected:
  void InitiateSplit(Node& n) override;
  bool UpdateBlocked(Node& n) override;
  void HandleSplitStart(Action a) override;
  void HandleSplitAck(Action a) override;
  void HandleSplitEnd(Action a) override;
  void OnPcOutOfRangeRelay(Node& n, Action a) override;

 private:
  /// All acks in: perform the half-split at the PC and release everyone.
  void PerformSyncSplit(Node& n);

  std::unordered_map<NodeId, uint32_t> pending_acks_;
};

}  // namespace lazytree

#endif  // LAZYTREE_PROTOCOL_SYNC_SPLIT_H_
