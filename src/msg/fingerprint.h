// Canonical state fingerprints for the exhaustive verifier.
//
// A Fingerprint is an order-sensitive FNV-1a accumulator over 64-bit words
// and byte ranges. The exhaustive model checker (src/sim/exhaustive.*) folds
// every piece of observable simulation state — node stores, in-flight
// messages, op trackers, protocol-handler scratch state, history records —
// into one digest and uses it to deduplicate revisited states, so every
// mixer must be *canonical*: two states that are behaviorally identical must
// mix the same words in the same order regardless of which interleaving
// produced them (sort unordered containers; never mix raw pointers, wall
// clock, or global append orders that vary across equivalent schedules).
//
// Actions, node snapshots and in-flight messages are mixed through their
// wire encoding (wire::EncodeAction / EncodeSnapshot / EncodeMessage; the
// sim's channels hold Message values, and SimNetwork::MixPending encodes
// each queued one into a reused buffer). The encoding already covers
// every field — the lint wire-coverage pass keeps that honest, so a new
// Action field is automatically part of the fingerprint.

#ifndef LAZYTREE_MSG_FINGERPRINT_H_
#define LAZYTREE_MSG_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/msg/action.h"

namespace lazytree {

class Fingerprint {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= kPrime;
    }
  }
  void MixBytes(const uint8_t* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h_ ^= data[i];
      h_ *= kPrime;
    }
  }
  void MixBytes(const std::vector<uint8_t>& bytes) {
    MixBytes(bytes.data(), bytes.size());
  }

  uint64_t digest() const { return h_; }

 private:
  static constexpr uint64_t kOffset = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h_ = kOffset;
};

/// Mixes an action via its wire encoding (covers every field).
void MixAction(Fingerprint& fp, const Action& a);

/// Mixes a node snapshot via its wire encoding (covers every field,
/// including entries, copy sets, and applied-update ids).
void MixSnapshot(Fingerprint& fp, const NodeSnapshot& s);

}  // namespace lazytree

#endif  // LAZYTREE_MSG_FINGERPRINT_H_
