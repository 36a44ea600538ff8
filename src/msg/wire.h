// Wire format: compact binary encoding of messages.
//
// The in-process transports move Message values and never run the codec
// per message. The format is what a real RPC would carry: EncodedSize
// gives the benches their byte counts, and the exhaustive verifier mixes
// in-flight messages into its state fingerprints through the encoding.
// Varint-based, little-endian, no alignment requirements.

#ifndef LAZYTREE_MSG_WIRE_H_
#define LAZYTREE_MSG_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/msg/message.h"
#include "src/util/statusor.h"

namespace lazytree {
namespace wire {

/// Append-only byte sink.
class Writer {
 public:
  void PutVarint(uint64_t v);
  void PutFixed8(uint8_t v);
  void PutBool(bool v) { PutFixed8(v ? 1 : 0); }
  /// Pre-grows the buffer for `n` more bytes so a burst of small appends
  /// (every field here is a 1-10 byte varint) lands in one allocation.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  /// The bytes written so far, and a reset that keeps the capacity, so
  /// one Writer can encode many messages without reallocating.
  const std::vector<uint8_t>& bytes() const { return buf_; }
  void Clear() { buf_.clear(); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked byte source.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  StatusOr<uint64_t> GetVarint();
  StatusOr<uint8_t> GetFixed8();
  StatusOr<bool> GetBool();
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Encodes a full message (envelope + all actions).
std::vector<uint8_t> EncodeMessage(const Message& m);
/// Appends the same encoding to `w`.
void EncodeMessage(Writer& w, const Message& m);

/// Decodes a message; fails on truncation or unknown kinds.
StatusOr<Message> DecodeMessage(const std::vector<uint8_t>& bytes);

/// Encoded size without materializing the buffer (for stats): runs the
/// encoder against a byte-counting sink, so it is exact by construction
/// and cannot drift from EncodeMessage (wire_test asserts this over
/// random messages).
size_t EncodedSize(const Message& m);

// Exposed for unit tests.
void EncodeAction(Writer& w, const Action& a);
StatusOr<Action> DecodeAction(Reader& r);
void EncodeSnapshot(Writer& w, const NodeSnapshot& s);
StatusOr<NodeSnapshot> DecodeSnapshot(Reader& r);

}  // namespace wire
}  // namespace lazytree

#endif  // LAZYTREE_MSG_WIRE_H_
