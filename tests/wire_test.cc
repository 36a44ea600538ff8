// Wire-format tests: varints, action/snapshot/message round trips, and
// rejection of malformed input.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/msg/wire.h"
#include "src/net/sim_network.h"
#include "src/sim/explorer.h"
#include "src/util/rng.h"

namespace lazytree {

// gtest finds these by argument-dependent lookup, so they live in the
// types' own namespace.
void PrintTo(const Action& a, std::ostream* os) { *os << a.ToString(); }
void PrintTo(const Message& m, std::ostream* os) { *os << m.ToString(); }

namespace {

TEST(Wire, VarintRoundTripEdgeValues) {
  wire::Writer w;
  const uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                             1u << 20, ~0ull, 42,   0x8000000000000000ull};
  for (uint64_t v : values) w.PutVarint(v);
  std::vector<uint8_t> bytes = w.Take();
  wire::Reader r(bytes);
  for (uint64_t v : values) {
    auto got = r.GetVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, TruncatedVarintFails) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // continuation, no end
  wire::Reader r(bytes);
  EXPECT_FALSE(r.GetVarint().ok());
}

Action FullActionFixture() {
  Action a;
  a.kind = ActionKind::kRelayedSplit;
  a.target = NodeId::Make(3, 77);
  a.op = MakeOpId(2, 5);
  a.update = 991;
  a.key = 123456;
  a.value = 654321;
  a.found = true;
  a.rc = Action::Rc::kOk;
  a.version = 17;
  a.origin = 4;
  a.level = 2;
  a.hops = 9;
  a.new_node = NodeId::Make(1, 8);
  a.sep = 500;
  a.link = LinkKind::kLeft;
  a.members = {0, 2, 5};
  a.snapshot.id = NodeId::Make(9, 1);
  a.snapshot.level = 1;
  a.snapshot.range = {100, 900};
  a.snapshot.version = 3;
  a.snapshot.right = NodeId::Make(9, 2);
  a.snapshot.right_low = 900;
  a.snapshot.left = NodeId::Make(9, 3);
  a.snapshot.parent = NodeId::Make(9, 4);
  a.snapshot.link_versions[0] = 5;
  a.snapshot.link_versions[2] = 7;
  a.snapshot.entries = {{100, 11}, {200, 22}, {800, 33}};
  a.snapshot.copies = {1, 2, 3};
  a.snapshot.pc = 2;
  a.snapshot.applied_updates = {4, 9, 16};
  return a;
}

TEST(Wire, MessageRoundTripFull) {
  Message m(1, 2, FullActionFixture());
  m.seq = 42;
  auto bytes = wire::EncodeMessage(m);
  auto decoded = wire::DecodeMessage(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->from, 1u);
  EXPECT_EQ(decoded->to, 2u);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(*decoded, m);
}

// The selective ack rides only under kHasSack; a message without the flag
// encodes exactly as before the field existed: from, to, seq, ack, flags,
// then the actions.
TEST(Wire, SackRoundTripsUnderItsFlagOnly) {
  Message m(1, 2, FullActionFixture());
  m.seq = 42;
  m.ack = 17;
  m.flags = Message::kHasAck | Message::kHasSack;
  m.sack = 0x8000000000000005ull;
  const std::vector<uint8_t> bytes = wire::EncodeMessage(m);
  EXPECT_EQ(wire::EncodedSize(m), bytes.size());
  auto decoded = wire::DecodeMessage(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->flags, m.flags);
  EXPECT_EQ(decoded->ack, 17u);
  EXPECT_EQ(decoded->sack, m.sack);
  EXPECT_EQ(*decoded, m);
  EXPECT_EQ(wire::EncodeMessage(*decoded), bytes);

  Message plain = m;
  plain.flags = Message::kHasAck;
  plain.sack = 0;
  wire::Writer w;
  w.PutVarint(plain.from + 1);
  w.PutVarint(plain.to + 1);
  w.PutVarint(plain.seq);
  w.PutVarint(plain.ack);
  w.PutFixed8(plain.flags);
  w.PutVarint(plain.actions.size());
  wire::EncodeAction(w, plain.actions[0]);
  const std::vector<uint8_t> expected = w.Take();
  EXPECT_EQ(wire::EncodeMessage(plain), expected);
  EXPECT_EQ(wire::EncodedSize(plain), expected.size());
  EXPECT_EQ(bytes.size(),
            expected.size() + 10) << "a 64-bit sack costs its varint only";
}

TEST(Wire, MessageRoundTripDefaults) {
  Action a;
  a.kind = ActionKind::kSearch;
  Message m(0, 0, a);
  auto decoded = wire::DecodeMessage(wire::EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->actions[0].kind, ActionKind::kSearch);
  EXPECT_EQ(decoded->actions[0].level, -1);
  EXPECT_EQ(decoded->actions[0].origin, kInvalidProcessor);
  EXPECT_FALSE(decoded->actions[0].snapshot.valid());
}

TEST(Message, OneActionConstructorMovesTheAction) {
  Action a;
  a.kind = ActionKind::kReturnValue;
  a.range_results.resize(64);
  const Entry* buffer = a.range_results.data();
  const Message m(1, 2, std::move(a));
  ASSERT_EQ(m.actions.size(), 1u);
  EXPECT_EQ(m.actions[0].range_results.data(), buffer)
      << "the action was copied, not moved";
}

TEST(Message, ClientOpBecomesTheSubmittedAction) {
  ClientOp op;
  op.kind = ActionKind::kScanOp;
  op.origin = 3;
  op.op = MakeOpId(3, 9);
  op.key = 40;
  op.value = 25;
  Action want;
  want.kind = ActionKind::kScanOp;
  want.origin = 3;
  want.op = MakeOpId(3, 9);
  want.key = 40;
  want.value = 25;
  EXPECT_EQ(op.ToAction(), want);
}

TEST(Wire, MultiActionMessage) {
  Message m;
  m.from = 3;
  m.to = 1;
  for (int i = 0; i < 5; ++i) {
    Action a;
    a.kind = ActionKind::kRelayedInsert;
    a.key = static_cast<Key>(i * 100);
    m.actions.push_back(a);
  }
  auto decoded = wire::DecodeMessage(wire::EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->actions.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(decoded->actions[i].key, static_cast<Key>(i * 100));
  }
}

TEST(Wire, RejectsUnknownKindAndTrailingBytes) {
  Message m(0, 1, Action{});
  m.actions[0].kind = ActionKind::kSearch;
  auto bytes = wire::EncodeMessage(m);
  // Find and corrupt the kind byte (first fixed8 after 4 varints).
  // Rather than byte surgery, decode-with-append: trailing garbage.
  auto with_garbage = bytes;
  with_garbage.push_back(0x01);
  EXPECT_FALSE(wire::DecodeMessage(with_garbage).ok());

  // Truncation at every prefix must fail, never crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(wire::DecodeMessage(prefix).ok()) << "cut=" << cut;
  }
}

Action RandomAction(Rng& rng) {
  Action a;
  a.kind = static_cast<ActionKind>(
      1 + rng.Below(static_cast<uint64_t>(ActionKind::kMaxKind) - 1));
  a.target = NodeId{rng.Next()};
  a.op = rng.Next();
  a.update = rng.Next();
  a.key = rng.Below(kKeyInfinity);
  a.value = rng.Next();
  a.found = rng.Chance(0.5);
  a.rc = static_cast<Action::Rc>(rng.Below(4));
  a.version = rng.Next();
  if (rng.Chance(0.5)) a.origin = static_cast<ProcessorId>(rng.Below(64));
  a.level = static_cast<int32_t>(rng.Below(10)) - 1;
  a.hops = static_cast<uint32_t>(rng.Below(100));
  a.new_node = rng.Chance(0.5) ? NodeId{rng.Next()} : kInvalidNode;
  a.sep = rng.Next();
  a.link = static_cast<LinkKind>(rng.Below(3));
  for (uint64_t i = rng.Below(6); i > 0; --i) {
    a.members.push_back(static_cast<ProcessorId>(rng.Below(64)));
  }
  if (rng.Chance(0.2)) {
    Key k = 0;
    for (uint64_t i = rng.Below(30); i > 0; --i) {
      k += 1 + rng.Below(1000);
      a.range_results.push_back({k, rng.Next()});
    }
  }
  if (rng.Chance(0.3)) {
    a.snapshot.id = NodeId{rng.Next() | 1};
    a.snapshot.level = static_cast<int32_t>(rng.Below(5));
    a.snapshot.range = {rng.Below(1000), 1000 + rng.Below(1000)};
    a.snapshot.version = rng.Next();
    a.snapshot.right = NodeId{rng.Next()};
    a.snapshot.right_low = rng.Next();
    a.snapshot.left = NodeId{rng.Next()};
    a.snapshot.parent = NodeId{rng.Next()};
    for (Version& v : a.snapshot.link_versions) v = rng.Below(1000);
    size_t entries = rng.Below(20);
    Key k = a.snapshot.range.low;
    for (size_t i = 0; i < entries; ++i) {
      k += 1 + rng.Below(50);
      a.snapshot.entries.push_back({k, rng.Next()});
    }
    for (uint64_t i = rng.Below(5); i > 0; --i) {
      a.snapshot.copies.push_back(static_cast<ProcessorId>(rng.Below(64)));
    }
    if (rng.Chance(0.7)) {
      a.snapshot.pc = static_cast<ProcessorId>(rng.Below(64));
    }
    for (uint64_t i = rng.Below(8); i > 0; --i) {
      a.snapshot.applied_updates.push_back(rng.Next());
    }
  }
  return a;
}

// The round-trip property the zero-copy transport relies on: the wire
// format is a *bijection* on the reachable message space, so the opt-in
// checked mode and the counting EncodedSize cannot drift from the fast
// path. encode -> decode -> re-encode must be byte-identical, and
// EncodedSize must equal the materialized size, for arbitrary messages.
TEST(Wire, FuzzRoundTripReencodesByteIdentical) {
  Rng rng(2024);
  for (int iter = 0; iter < 1000; ++iter) {
    Message m;
    m.from = rng.Chance(0.9) ? static_cast<ProcessorId>(rng.Below(16))
                             : kInvalidProcessor;
    m.to = rng.Chance(0.9) ? static_cast<ProcessorId>(rng.Below(16))
                           : kInvalidProcessor;
    m.seq = rng.Next();
    for (uint64_t i = 1 + rng.Below(4); i > 0; --i) {
      m.actions.push_back(RandomAction(rng));
    }

    const std::vector<uint8_t> bytes = wire::EncodeMessage(m);
    EXPECT_EQ(wire::EncodedSize(m), bytes.size()) << "iter " << iter;

    auto decoded = wire::DecodeMessage(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, m) << "iter " << iter;

    const std::vector<uint8_t> reencoded = wire::EncodeMessage(*decoded);
    ASSERT_EQ(reencoded, bytes) << "re-encode not byte-identical, iter "
                                << iter;
  }
}

TEST(Wire, EncodedSizeMatches) {
  Message m(1, 2, FullActionFixture());
  EXPECT_EQ(wire::EncodedSize(m), wire::EncodeMessage(m).size());
  EXPECT_EQ(wire::EncodedSize(Message{}), wire::EncodeMessage(Message{}).size());
}

// The sim moves Message values without encoding them, so the wire contract
// is held here instead of on every delivery: each message a sim episode
// moves must survive encode -> decode unchanged, and EncodedSize (what the
// byte statistics count) must equal the encoded length. A sender that
// leaves data in a field the encoder skips (a sack without kHasSack, an
// invalid snapshot that still holds entries) fails this test.
class WireContractObserver : public net::DeliveryObserver {
 public:
  void OnDelivery(const Message& m, net::DeliveryOutcome outcome) override {
    ++seen;
    if (m.flags & Message::kHasSack) ++sacks;
    if (outcome == net::DeliveryOutcome::kCrashDrop) ++crash_drops;
    const std::vector<uint8_t> bytes = wire::EncodeMessage(m);
    auto decoded = wire::DecodeMessage(bytes);
    const bool size_ok = wire::EncodedSize(m) == bytes.size();
    const bool round_trip_ok = decoded.ok() && *decoded == m;
    if (size_ok && round_trip_ok) return;
    if (broken++ == 0) {
      first_broken = std::string(size_ok ? "round trip changed "
                                         : "EncodedSize wrong for ") +
                     m.ToString();
    }
  }
  void OnCrash(ProcessorId) override {}
  void OnRestart(ProcessorId) override {}

  uint64_t seen = 0;
  uint64_t sacks = 0;
  uint64_t crash_drops = 0;
  uint64_t broken = 0;
  std::string first_broken;
};

enum class Faults { kClean, kLossyReliable, kCrash };

struct ContractCase {
  ProtocolKind protocol;
  Faults faults;
};

class WireContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(WireContract, EveryMessageTheSimMovesRoundTrips) {
  const ContractCase c = GetParam();
  sim::EpisodeConfig config;
  config.protocol = c.protocol;
  config.seed = 5;
  config.rounds = 3;
  config.ops_per_round = 24;
  config.key_space = 256;
  config.fanout = 4;
  config.leaf_replication = 2;
  if (c.protocol == ProtocolKind::kMobile ||
      c.protocol == ProtocolKind::kVarCopies) {
    // Shedding migrates split-off leaves: link-changes, migrations and
    // (varcopies) join/unjoin traffic.
    config.leaf_replication = 1;
    config.shed_threshold = 2;
  }
  if (c.faults == Faults::kLossyReliable) {
    // Drops and retransmits open holes, so acks carry selective acks.
    config.reliable = true;
    config.drop = 0.05;
  } else if (c.faults == Faults::kCrash) {
    // Mobile and varcopies keep single-copy leaves, so losing one wedges
    // ops that need it; the budget ends those episodes early.
    config.step_budget = 20000;
    config.crashes = {{.round = 1, .after_steps = 30, .processor = 2},
                      {.round = 2, .after_steps = 10, .processor = 2,
                       .restart = true}};
  }
  WireContractObserver observer;
  sim::EpisodeHooks hooks;
  hooks.on_start = [&](Cluster&, net::SimNetwork& sim,
                       const std::vector<sim::EpisodeOp>&) {
    sim.SetObserver(&observer);
  };
  sim::RunEpisodeUnder(config, /*strategy=*/nullptr, /*recorder=*/nullptr,
                       hooks);
  EXPECT_GT(observer.seen, 100u);
  if (c.faults == Faults::kLossyReliable) {
    EXPECT_GT(observer.sacks, 0u);
  }
  if (c.faults == Faults::kCrash) {
    EXPECT_GT(observer.crash_drops, 0u);
  }
  EXPECT_EQ(observer.broken, 0u) << observer.first_broken;
}

std::string CaseName(const ContractCase& c) {
  const char* faults[] = {"Clean", "LossyReliable", "Crash"};
  return std::string(ProtocolKindName(c.protocol)) +
         faults[static_cast<int>(c.faults)];
}

void PrintTo(const ContractCase& c, std::ostream* os) { *os << CaseName(c); }

std::vector<ContractCase> AllContractCases() {
  std::vector<ContractCase> cases;
  for (ProtocolKind protocol :
       {ProtocolKind::kSyncSplit, ProtocolKind::kSemiSyncSplit,
        ProtocolKind::kNaive, ProtocolKind::kVigorous,
        ProtocolKind::kMobile, ProtocolKind::kVarCopies}) {
    for (Faults faults :
         {Faults::kClean, Faults::kLossyReliable, Faults::kCrash}) {
      cases.push_back({protocol, faults});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PerProtocol, WireContract, ::testing::ValuesIn(AllContractCases()),
    [](const auto& param_info) { return CaseName(param_info.param); });

}  // namespace
}  // namespace lazytree
