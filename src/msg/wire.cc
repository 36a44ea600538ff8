#include "src/msg/wire.h"

namespace lazytree {
namespace wire {

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Writer::PutFixed8(uint8_t v) { buf_.push_back(v); }

StatusOr<uint64_t> Reader::GetVarint() {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (pos_ >= size_) return Status::InvalidArgument("truncated varint");
    uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return result;
  }
  return Status::InvalidArgument("varint too long");
}

StatusOr<uint8_t> Reader::GetFixed8() {
  if (pos_ >= size_) return Status::InvalidArgument("truncated byte");
  return data_[pos_++];
}

StatusOr<bool> Reader::GetBool() {
  auto b = GetFixed8();
  if (!b.ok()) return b.status();
  return *b != 0;
}

namespace {

// Byte-counting stand-in for Writer. The encoders below are templated
// over the sink, so EncodedSize runs the exact same field walk as
// EncodeMessage and the two can never disagree.
class SizeCounter {
 public:
  void PutVarint(uint64_t v) {
    // Branchless varint length: ceil(bits/7) via count-leading-zeros.
    // This keeps the fast-path stats walk well under the cost of the
    // encode it replaced (the shift loop costs ~1 iteration per byte).
#if defined(__GNUC__) || defined(__clang__)
    n_ += static_cast<size_t>(70 - __builtin_clzll(v | 1)) / 7;
#else
    do {
      ++n_;
      v >>= 7;
    } while (v != 0);
#endif
  }
  void PutFixed8(uint8_t) { ++n_; }
  void PutBool(bool) { ++n_; }
  void Reserve(size_t) {}
  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

// Cheap upper-bound-ish reserve hints (most varints here are 1-5 bytes);
// a slightly-generous guess that avoids reallocation beats an exact
// second pass.
size_t SnapshotReserveHint(const NodeSnapshot& s) {
  if (!s.valid()) return 1;
  return 64 + 10 * s.entries.size() + 5 * s.copies.size() +
         5 * s.applied_updates.size();
}

size_t MessageReserveHint(const Message& m) {
  size_t n = 16;
  for (const Action& a : m.actions) {
    n += 72 + 5 * a.members.size() + 10 * a.range_results.size() +
         SnapshotReserveHint(a.snapshot);
  }
  return n;
}

template <typename Sink>
void EncodeSnapshotTo(Sink& w, const NodeSnapshot& s) {
  w.PutBool(s.valid());
  if (!s.valid()) return;
  w.PutVarint(s.id.v);
  w.PutVarint(static_cast<uint64_t>(s.level));
  w.PutVarint(s.range.low);
  w.PutVarint(s.range.high);
  w.PutVarint(s.version);
  w.PutVarint(s.right.v);
  w.PutVarint(s.right_low);
  w.PutVarint(s.left.v);
  w.PutVarint(s.parent.v);
  for (Version v : s.link_versions) w.PutVarint(v);
  w.PutVarint(s.entries.size());
  // Delta-encode keys: entries are kept sorted, so deltas stay small.
  Key prev = 0;
  for (const Entry& e : s.entries) {
    w.PutVarint(e.key - prev);
    prev = e.key;
    w.PutVarint(e.payload);
  }
  w.PutVarint(s.copies.size());
  for (ProcessorId p : s.copies) w.PutVarint(p);
  w.PutVarint(s.pc == kInvalidProcessor ? 0 : s.pc + 1);
  w.PutVarint(s.applied_updates.size());
  for (UpdateId u : s.applied_updates) w.PutVarint(u);
}

template <typename Sink>
void EncodeActionTo(Sink& w, const Action& a) {
  w.PutFixed8(static_cast<uint8_t>(a.kind));
  w.PutVarint(a.target.v);
  w.PutVarint(a.op);
  w.PutVarint(a.update);
  w.PutVarint(a.key);
  w.PutVarint(a.value);
  w.PutBool(a.found);
  w.PutFixed8(static_cast<uint8_t>(a.rc));
  w.PutVarint(a.version);
  w.PutVarint(a.origin == kInvalidProcessor ? 0 : a.origin + 1);
  w.PutVarint(static_cast<uint64_t>(a.level + 1));  // -1 encodes as 0
  w.PutVarint(a.hops);
  w.PutVarint(a.new_node.v);
  w.PutVarint(a.sep);
  w.PutFixed8(static_cast<uint8_t>(a.link));
  w.PutVarint(a.members.size());
  for (ProcessorId p : a.members) w.PutVarint(p);
  w.PutVarint(a.range_results.size());
  {
    Key prev = 0;
    for (const Entry& e : a.range_results) {
      w.PutVarint(e.key - prev);
      prev = e.key;
      w.PutVarint(e.payload);
    }
  }
  EncodeSnapshotTo(w, a.snapshot);
}

template <typename Sink>
void EncodeMessageTo(Sink& w, const Message& m) {
  w.PutVarint(m.from == kInvalidProcessor ? 0 : m.from + 1);
  w.PutVarint(m.to == kInvalidProcessor ? 0 : m.to + 1);
  w.PutVarint(m.seq);
  w.PutVarint(m.ack);
  w.PutFixed8(m.flags);
  if (m.flags & Message::kHasSack) w.PutVarint(m.sack);
  w.PutVarint(m.actions.size());
  for (const Action& a : m.actions) EncodeActionTo(w, a);
}

}  // namespace

void EncodeSnapshot(Writer& w, const NodeSnapshot& s) {
  w.Reserve(SnapshotReserveHint(s));
  EncodeSnapshotTo(w, s);
}

void EncodeAction(Writer& w, const Action& a) { EncodeActionTo(w, a); }

std::vector<uint8_t> EncodeMessage(const Message& m) {
  Writer w;
  w.Reserve(MessageReserveHint(m));
  EncodeMessageTo(w, m);
  return w.Take();
}

void EncodeMessage(Writer& w, const Message& m) {
  w.Reserve(MessageReserveHint(m));
  EncodeMessageTo(w, m);
}

size_t EncodedSize(const Message& m) {
  SizeCounter c;
  EncodeMessageTo(c, m);
  return c.size();
}

StatusOr<NodeSnapshot> DecodeSnapshot(Reader& r) {
  NodeSnapshot s;
  auto present = r.GetBool();
  if (!present.ok()) return present.status();
  if (!*present) return s;

#define LT_GET(var, expr)                   \
  do {                                      \
    auto _v = (expr);                       \
    if (!_v.ok()) return _v.status();       \
    var = *_v;                              \
  } while (0)

  uint64_t tmp;
  LT_GET(s.id.v, r.GetVarint());
  LT_GET(tmp, r.GetVarint());
  s.level = static_cast<int32_t>(tmp);
  LT_GET(s.range.low, r.GetVarint());
  LT_GET(s.range.high, r.GetVarint());
  LT_GET(s.version, r.GetVarint());
  LT_GET(s.right.v, r.GetVarint());
  LT_GET(s.right_low, r.GetVarint());
  LT_GET(s.left.v, r.GetVarint());
  LT_GET(s.parent.v, r.GetVarint());
  for (Version& v : s.link_versions) LT_GET(v, r.GetVarint());
  uint64_t n;
  LT_GET(n, r.GetVarint());
  s.entries.resize(n);
  Key prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta;
    LT_GET(delta, r.GetVarint());
    prev += delta;
    s.entries[i].key = prev;
    LT_GET(s.entries[i].payload, r.GetVarint());
  }
  LT_GET(n, r.GetVarint());
  s.copies.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    LT_GET(tmp, r.GetVarint());
    s.copies[i] = static_cast<ProcessorId>(tmp);
  }
  LT_GET(tmp, r.GetVarint());
  s.pc = tmp == 0 ? kInvalidProcessor : static_cast<ProcessorId>(tmp - 1);
  LT_GET(n, r.GetVarint());
  s.applied_updates.resize(n);
  for (uint64_t i = 0; i < n; ++i) LT_GET(s.applied_updates[i], r.GetVarint());
  return s;
}

StatusOr<Action> DecodeAction(Reader& r) {
  Action a;
  uint64_t tmp;
  auto kind = r.GetFixed8();
  if (!kind.ok()) return kind.status();
  if (*kind == 0 || *kind >= static_cast<uint8_t>(ActionKind::kMaxKind)) {
    return Status::InvalidArgument("unknown action kind");
  }
  a.kind = static_cast<ActionKind>(*kind);
  LT_GET(a.target.v, r.GetVarint());
  LT_GET(a.op, r.GetVarint());
  LT_GET(a.update, r.GetVarint());
  LT_GET(a.key, r.GetVarint());
  LT_GET(a.value, r.GetVarint());
  LT_GET(a.found, r.GetBool());
  {
    auto rc = r.GetFixed8();
    if (!rc.ok()) return rc.status();
    if (*rc > static_cast<uint8_t>(Action::Rc::kExists)) {
      return Status::InvalidArgument("bad rc");
    }
    a.rc = static_cast<Action::Rc>(*rc);
  }
  LT_GET(a.version, r.GetVarint());
  LT_GET(tmp, r.GetVarint());
  a.origin = tmp == 0 ? kInvalidProcessor : static_cast<ProcessorId>(tmp - 1);
  LT_GET(tmp, r.GetVarint());
  a.level = static_cast<int32_t>(tmp) - 1;
  LT_GET(tmp, r.GetVarint());
  a.hops = static_cast<uint32_t>(tmp);
  LT_GET(a.new_node.v, r.GetVarint());
  LT_GET(a.sep, r.GetVarint());
  auto link = r.GetFixed8();
  if (!link.ok()) return link.status();
  if (*link > static_cast<uint8_t>(LinkKind::kParent)) {
    return Status::InvalidArgument("bad link kind");
  }
  a.link = static_cast<LinkKind>(*link);
  uint64_t n;
  LT_GET(n, r.GetVarint());
  a.members.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    LT_GET(tmp, r.GetVarint());
    a.members[i] = static_cast<ProcessorId>(tmp);
  }
  LT_GET(n, r.GetVarint());
  a.range_results.resize(n);
  {
    Key prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t delta;
      LT_GET(delta, r.GetVarint());
      prev += delta;
      a.range_results[i].key = prev;
      LT_GET(a.range_results[i].payload, r.GetVarint());
    }
  }
  auto snap = DecodeSnapshot(r);
  if (!snap.ok()) return snap.status();
  a.snapshot = std::move(*snap);
  return a;
}

StatusOr<Message> DecodeMessage(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  Message m;
  uint64_t tmp;
  LT_GET(tmp, r.GetVarint());
  m.from = tmp == 0 ? kInvalidProcessor : static_cast<ProcessorId>(tmp - 1);
  LT_GET(tmp, r.GetVarint());
  m.to = tmp == 0 ? kInvalidProcessor : static_cast<ProcessorId>(tmp - 1);
  LT_GET(m.seq, r.GetVarint());
  LT_GET(m.ack, r.GetVarint());
  LT_GET(m.flags, r.GetFixed8());
  if (m.flags & Message::kHasSack) LT_GET(m.sack, r.GetVarint());
  uint64_t n;
  LT_GET(n, r.GetVarint());
  m.actions.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    auto a = DecodeAction(r);
    if (!a.ok()) return a.status();
    m.actions.push_back(std::move(*a));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes");
  return m;
#undef LT_GET
}

}  // namespace wire
}  // namespace lazytree
