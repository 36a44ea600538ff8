// The action payload rule: an Action keeps every field inline except the
// node it may carry, which lives out of line and is shared by the action's
// copies. A counting operator new checks what a message, an action copy
// and the reliable layer's window copy cost on the heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/msg/message.h"
#include "src/net/reliable.h"
#include "src/net/sim_network.h"

// Counts every global allocation in this test binary and remembers the
// largest block, so a test can check that no copy of a snapshot's entries
// was made.
namespace {
size_t g_allocations = 0;
size_t g_largest = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  g_largest = std::max(g_largest, n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on memory from operator new once these inline into a
// delete-expression; here operator new is malloc, so the pair matches.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace lazytree {
namespace {

constexpr size_t kEntries = 512;

NodeSnapshot BigLeaf() {
  NodeSnapshot node;
  node.id = NodeId::Make(1, 7);
  node.range = KeyRange{0, kKeyInfinity};
  for (Key k = 0; k < kEntries; ++k) node.entries.push_back(Entry{k, k});
  node.copies = {0, 1};
  node.pc = 0;
  return node;
}

Action CreateAction(const NodeSnapshot& node) {
  Action a;
  a.kind = ActionKind::kCreateNode;
  a.target = node.id;
  a.snapshot = node;
  return a;
}

TEST(ActionPayload, MessageWithoutNodeIsOneBlock) {
  Action a;
  a.kind = ActionKind::kInsertOp;
  a.key = 42;
  a.value = 7;
  a.origin = 0;
  EXPECT_FALSE(a.snapshot.valid());
  EXPECT_EQ(*a.snapshot, NodeSnapshot{}) << "a null ref reads as the default";
  const size_t before = g_allocations;
  Message m(0, 1, std::move(a));
  EXPECT_EQ(g_allocations - before, 1u) << "the action vector's buffer only";
  const size_t before_copy = g_allocations;
  Message copy = m;
  EXPECT_EQ(g_allocations - before_copy, 1u);
  EXPECT_EQ(copy, m);
}

TEST(ActionPayload, CopyingCreateNodeSharesTheSnapshot) {
  const Action a = CreateAction(BigLeaf());
  ASSERT_TRUE(a.snapshot.valid());
  const size_t before = g_allocations;
  const Action copy = a;
  EXPECT_EQ(g_allocations - before, 0u) << "a copy must not copy entries";
  EXPECT_EQ(&*copy.snapshot, &*a.snapshot);
  EXPECT_EQ(copy, a);

  // Equality compares contents, not identity.
  Action rebuilt = CreateAction(BigLeaf());
  EXPECT_NE(&*rebuilt.snapshot, &*a.snapshot);
  EXPECT_EQ(rebuilt, a);
  NodeSnapshot changed = BigLeaf();
  changed.entries.back().payload = 1;
  rebuilt.snapshot = std::move(changed);
  EXPECT_NE(rebuilt, a);
}

/// Remembers where each delivered action's snapshot lives.
class SnapshotRecorder : public net::Receiver {
 public:
  void Deliver(Message m) override {
    for (const Action& a : m.actions) seen.push_back(&*a.snapshot);
  }
  std::vector<const NodeSnapshot*> seen;
};

// The reliable layer keeps a copy of every data message for retransmission
// and resends copies of it: both share the sender's snapshot, as does the
// message the receiver finally gets.
TEST(ActionPayload, ReliableWindowCopySharesTheSnapshot) {
  net::SimNetwork sim(3);
  net::ReliableNetwork reliable(&sim, net::ReliabilityOptions{},
                                /*real_timers=*/false);
  SnapshotRecorder r0, r1;
  reliable.Register(0, &r0);
  reliable.Register(1, &r1);
  reliable.Start();

  Message m(0, 1, CreateAction(BigLeaf()));
  const NodeSnapshot* sent = &*m.actions[0].snapshot;
  const size_t entry_bytes = kEntries * sizeof(Entry);

  g_largest = 0;
  reliable.Send(std::move(m));
  EXPECT_LT(g_largest, entry_bytes) << "Send copied the snapshot's entries";
  EXPECT_EQ(reliable.Unacked(), 1u);

  // Fire the retransmission while the original is still queued.
  g_largest = 0;
  ASSERT_TRUE(reliable.Pump());
  EXPECT_LT(g_largest, entry_bytes) << "a resend copied the entries";
  EXPECT_EQ(reliable.stats().Snapshot().retransmits, 1u);

  ASSERT_TRUE(reliable.WaitQuiescent(std::chrono::milliseconds(5000)));
  ASSERT_EQ(r1.seen.size(), 1u);
  EXPECT_EQ(r1.seen[0], sent);
  reliable.Stop();
}

}  // namespace
}  // namespace lazytree
