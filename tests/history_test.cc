// History theory tests (§3): the checkers must accept synthetic correct
// executions and pinpoint each kind of violation.

#include <gtest/gtest.h>

#include "src/history/checker.h"

namespace lazytree {
namespace {

using history::CheckAll;
using history::CheckComplete;
using history::CheckCompatible;
using history::CheckOrdered;
using history::CopyKey;
using history::HistoryLog;
using history::IssuedUpdate;
using history::Record;
using history::UpdateClass;

NodeId Id(uint32_t seq) { return NodeId::Make(0, seq); }

Record InsertRecord(UpdateId u, NodeId node, ProcessorId copy, Key key,
                    bool initial) {
  Record r;
  r.update = u;
  r.cls = UpdateClass::kInsert;
  r.node = node;
  r.copy = copy;
  r.key = key;
  r.initial = initial;
  return r;
}

NodeSnapshot Snap(NodeId id, std::vector<Entry> entries) {
  NodeSnapshot s;
  s.id = id;
  s.entries = std::move(entries);
  return s;
}

TEST(HistoryLog, TracksCopiesAndIssues) {
  HistoryLog log;
  log.RegisterIssued({1, UpdateClass::kInsert, Id(1), 10, 100});
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  EXPECT_EQ(log.RecordCount(), 1u);
  EXPECT_EQ(log.Issued().size(), 1u);
  EXPECT_EQ(log.Copies().size(), 1u);
  log.Reset();
  EXPECT_EQ(log.RecordCount(), 0u);
}

TEST(HistoryLog, DisabledLogIgnoresEverything) {
  HistoryLog log(/*enabled=*/false);
  log.RegisterIssued({1, UpdateClass::kInsert, Id(1), 10, 100});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  EXPECT_EQ(log.RecordCount(), 0u);
  EXPECT_TRUE(log.Issued().empty());
}

TEST(CheckerComplete, FlagsLostUpdates) {
  HistoryLog log;
  log.RegisterIssued({1, UpdateClass::kInsert, Id(1), 10, 0});
  log.RegisterIssued({2, UpdateClass::kInsert, Id(1), 20, 0});
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  // Update 2 never lands anywhere.
  auto report = CheckComplete(log);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("u=2"), std::string::npos);
}

TEST(CheckerComplete, InheritedUpdatesCount) {
  HistoryLog log;
  log.RegisterIssued({1, UpdateClass::kInsert, Id(1), 10, 0});
  log.OnCopyCreated(Id(1), 0, {1});  // arrived via seed snapshot
  EXPECT_TRUE(CheckComplete(log).ok());
}

TEST(CheckerComplete, DeadCopiesStillCount) {
  // "A deleted node is conceptually retained" (§3.1).
  HistoryLog log;
  log.RegisterIssued({1, UpdateClass::kInsert, Id(1), 10, 0});
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  log.OnCopyDeleted(Id(1), 0);
  EXPECT_TRUE(CheckComplete(log).ok());
}

TEST(CheckerCompatible, AcceptsReorderedCommutingUpdates) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.OnCopyCreated(Id(1), 1, {});
  // Same two inserts, opposite order at the two copies: lazy updates
  // commute, so this is exactly what the paper allows.
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  log.Append(InsertRecord(2, Id(1), 0, 20, false));
  log.Append(InsertRecord(2, Id(1), 1, 20, true));
  log.Append(InsertRecord(1, Id(1), 1, 10, false));
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 0}, {20, 0}});
  finals[{Id(1), 1}] = Snap(Id(1), {{10, 0}, {20, 0}});
  EXPECT_TRUE(CheckCompatible(log, finals).ok());
}

TEST(CheckerCompatible, FlagsMissingUpdateAtOneCopy) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.OnCopyCreated(Id(1), 1, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 0}});
  finals[{Id(1), 1}] = Snap(Id(1), {{10, 0}});
  auto report = CheckCompatible(log, finals);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("uniform histories differ"),
            std::string::npos);
}

TEST(CheckerCompatible, FlagsDivergentFinalValues) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {1});
  log.OnCopyCreated(Id(1), 1, {1});
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 0}});
  finals[{Id(1), 1}] = Snap(Id(1), {{10, 1}});  // different payload
  auto report = CheckCompatible(log, finals);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("entries"), std::string::npos);
}

TEST(CheckerCompatible, FlagsDoubleApplication) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  log.Append(InsertRecord(1, Id(1), 0, 10, false));
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 0}});
  auto report = CheckCompatible(log, finals);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("applied 2x"), std::string::npos);
}

TEST(CheckerCompatible, DeadCopiesAreNotCompared) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.OnCopyCreated(Id(1), 1, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));
  log.OnCopyDeleted(Id(1), 1);  // never saw update 1, but it is dead
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 0}});
  EXPECT_TRUE(CheckCompatible(log, finals).ok());
}

Record LinkRecord(UpdateId u, ProcessorId copy, Version version,
                  bool rewritten) {
  Record r;
  r.update = u;
  r.cls = UpdateClass::kLinkChange;
  r.node = Id(1);
  r.copy = copy;
  r.version = version;
  r.link = 0;
  r.initial = true;
  r.rewritten = rewritten;
  return r;
}

TEST(CheckerOrdered, AcceptsIncreasingVersions) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(LinkRecord(1, 0, 1, false));
  log.Append(LinkRecord(2, 0, 2, false));
  EXPECT_TRUE(CheckOrdered(log).ok());
}

TEST(CheckerOrdered, FlagsOutOfOrderApplication) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(LinkRecord(1, 0, 5, false));
  log.Append(LinkRecord(2, 0, 3, false));  // applied, but older version
  auto report = CheckOrdered(log);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("ordered"), std::string::npos);
}

TEST(CheckerOrdered, RewrittenRecordsAreExempt) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(LinkRecord(1, 0, 5, false));
  log.Append(LinkRecord(2, 0, 3, /*rewritten=*/true));
  EXPECT_TRUE(CheckOrdered(log).ok());
}

TEST(CheckerAll, MergesAllThree) {
  HistoryLog log;
  log.RegisterIssued({9, UpdateClass::kInsert, Id(1), 1, 0});
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(LinkRecord(1, 0, 5, false));
  log.Append(LinkRecord(2, 0, 3, false));
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {});
  auto report = CheckAll(log, finals);
  // complete (u=9 lost) + ordered (version regression) both fire.
  EXPECT_GE(report.violations.size(), 2u);
}

TEST(CheckerReport, ViolationCapKeepsOutputBounded) {
  HistoryLog log;
  for (uint32_t i = 1; i <= 40; ++i) {
    log.RegisterIssued({i, UpdateClass::kInsert, Id(1), i, 0});
  }
  auto report = CheckComplete(log);
  EXPECT_EQ(report.violations.size(), 17u);  // 16 + suppression notice
  EXPECT_EQ(report.violations.back(), "... further violations suppressed");
}

// ---------------------------------------------------------------------------
// Negative paths must *pinpoint*: a violation string that doesn't name the
// update, copy, and versions involved sends the reader back to a debugger.
// These tests pin the diagnostic contract, not just the pass/fail bit.
// ---------------------------------------------------------------------------

TEST(CheckerMessages, CompleteViolationNamesUpdateAndKey) {
  HistoryLog log;
  log.RegisterIssued({7, UpdateClass::kInsert, Id(1), 425, 1});
  auto report = CheckComplete(log);
  ASSERT_EQ(report.violations.size(), 1u);
  const std::string& v = report.violations.front();
  EXPECT_NE(v.find("u=7"), std::string::npos) << v;
  EXPECT_NE(v.find("key=425"), std::string::npos) << v;
  EXPECT_NE(v.find("never applied"), std::string::npos) << v;
}

TEST(CheckerMessages, LinkChangeInversionNamesCopyAndBothVersions) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 3, {});
  Record newer = LinkRecord(1, 3, 5, false);
  Record older = LinkRecord(2, 3, 2, false);  // version-order inversion
  log.Append(newer);
  log.Append(older);
  auto report = CheckOrdered(log);
  ASSERT_EQ(report.violations.size(), 1u);
  const std::string& v = report.violations.front();
  EXPECT_NE(v.find("link-change v=2"), std::string::npos) << v;
  EXPECT_NE(v.find("after v=5"), std::string::npos) << v;
  EXPECT_NE(v.find("@p3"), std::string::npos) << v;
}

TEST(CheckerMessages, LinkKindsAreOrderedIndependently) {
  // A right-link at v=5 then a parent-link at v=2 is NOT an inversion —
  // each link kind carries its own version counter.
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  Record right = LinkRecord(1, 0, 5, false);
  right.link = 0;
  Record parent = LinkRecord(2, 0, 2, false);
  parent.link = 1;
  log.Append(right);
  log.Append(parent);
  EXPECT_TRUE(CheckOrdered(log).ok());
}

TEST(CheckerMessages, MembershipInversionNamesClassAndCopy) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 2, {});
  Record join = LinkRecord(1, 2, 4, false);
  join.cls = UpdateClass::kMembership;
  Record migrate = LinkRecord(2, 2, 4, false);  // equal version: not after
  migrate.cls = UpdateClass::kMigrate;
  log.Append(join);
  log.Append(migrate);
  auto report = CheckOrdered(log);
  ASSERT_EQ(report.violations.size(), 1u);
  const std::string& v = report.violations.front();
  EXPECT_NE(v.find("migrate"), std::string::npos) << v;
  EXPECT_NE(v.find("v=4"), std::string::npos) << v;
  EXPECT_NE(v.find("@p2"), std::string::npos) << v;
}

TEST(CheckerMessages, CompatibleDivergenceNamesBothCopies) {
  HistoryLog log;
  log.RegisterIssued({1, UpdateClass::kInsert, Id(1), 10, 100});
  log.OnCopyCreated(Id(1), 0, {});
  log.OnCopyCreated(Id(1), 1, {});
  log.Append(InsertRecord(1, Id(1), 0, 10, true));  // p1 never applies u=1
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 100}});
  finals[{Id(1), 1}] = Snap(Id(1), {});
  auto report = CheckCompatible(log, finals);
  ASSERT_FALSE(report.ok());
  const std::string joined = report.ToString();
  EXPECT_NE(joined.find("@p0"), std::string::npos) << joined;
  EXPECT_NE(joined.find("@p1"), std::string::npos) << joined;
  EXPECT_NE(joined.find("u=1"), std::string::npos) << joined;
}

TEST(CheckerMessages, DoubleApplicationNamesCountAndCopy) {
  HistoryLog log;
  log.OnCopyCreated(Id(1), 0, {});
  log.Append(InsertRecord(3, Id(1), 0, 10, true));
  log.Append(InsertRecord(3, Id(1), 0, 10, false));  // re-applied relay
  std::map<CopyKey, NodeSnapshot> finals;
  finals[{Id(1), 0}] = Snap(Id(1), {{10, 0}});
  auto report = CheckCompatible(log, finals);
  ASSERT_FALSE(report.ok());
  const std::string& v = report.violations.front();
  EXPECT_NE(v.find("applied 2x"), std::string::npos) << v;
  EXPECT_NE(v.find("@p0"), std::string::npos) << v;
}

}  // namespace
}  // namespace lazytree
