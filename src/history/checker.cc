#include "src/history/checker.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace lazytree::history {
namespace {

/// Violations reported per check (keeps failure output readable).
constexpr size_t kMaxViolations = 16;

/// Appends a violation unless the report is already full.
void Violate(CheckReport& report, std::string text) {
  if (report.violations.size() < kMaxViolations) {
    report.violations.push_back(std::move(text));
  } else if (report.violations.size() == kMaxViolations) {
    report.violations.push_back("... further violations suppressed");
  }
}

/// Uniform update set of one copy: backwards extension + applied records.
std::multiset<UpdateId> UniformSet(const CopyHistory& h) {
  std::multiset<UpdateId> ids(h.inherited.begin(), h.inherited.end());
  for (const Record& r : h.records) ids.insert(r.update);
  return ids;
}

std::string DescribeCopy(const CopyKey& key) {
  return key.node.ToString() + "@p" + std::to_string(key.copy);
}

}  // namespace

std::string CheckReport::ToString() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

CheckReport CheckComplete(const HistoryLog& log) {
  CheckReport report;
  // Every update seen anywhere (applied or inherited), across all copies
  // live or dead — a deleted node is "conceptually retained" (§3.1).
  std::unordered_set<UpdateId> seen;
  for (const auto& [key, copy_history] : log.Copies()) {
    for (UpdateId u : copy_history.inherited) seen.insert(u);
    for (const Record& r : copy_history.records) seen.insert(r.update);
  }
  for (const IssuedUpdate& issued : log.Issued()) {
    if (!seen.contains(issued.update)) {
      std::ostringstream os;
      os << "complete: issued " << UpdateClassName(issued.cls) << " u="
         << issued.update << " (key=" << issued.key
         << ") never applied at any copy";
      Violate(report, os.str());
    }
  }
  return report;
}

CheckReport CheckCompatible(
    const HistoryLog& log,
    const std::map<CopyKey, NodeSnapshot>& final_values) {
  CheckReport report;
  // Group live copies by logical node.
  std::map<NodeId, std::vector<std::pair<CopyKey, const CopyHistory*>>>
      by_node;
  const auto copies = log.Copies();
  for (const auto& [key, copy_history] : copies) {
    if (copy_history.live) by_node[key.node].push_back({key, &copy_history});
  }

  for (const auto& [node, node_copies] : by_node) {
    // 1. Uniform update sets must agree across copies; duplicates within
    //    a copy are protocol bugs (no protocol relies on re-applying).
    const std::multiset<UpdateId> reference = UniformSet(*node_copies[0].second);
    for (const auto& [key, copy_history] : node_copies) {
      auto ids = UniformSet(*copy_history);
      for (auto it = ids.begin(); it != ids.end();) {
        auto next = ids.upper_bound(*it);
        if (std::distance(it, next) > 1) {
          Violate(report, "compatible: update " + std::to_string(*it) +
                              " applied " +
                              std::to_string(std::distance(it, next)) +
                              "x at " + DescribeCopy(key));
        }
        it = next;
      }
    }
    for (size_t i = 1; i < node_copies.size(); ++i) {
      auto ids = UniformSet(*node_copies[i].second);
      if (ids != reference) {
        std::ostringstream os;
        os << "compatible: uniform histories differ for " << node.ToString()
           << ": " << DescribeCopy(node_copies[0].first) << " has "
           << reference.size() << " updates, "
           << DescribeCopy(node_copies[i].first) << " has " << ids.size();
        // Name one differing update to aid debugging.
        std::vector<UpdateId> diff;
        std::set_symmetric_difference(reference.begin(), reference.end(),
                                      ids.begin(), ids.end(),
                                      std::back_inserter(diff));
        if (!diff.empty()) os << " (e.g. u=" << diff.front() << ")";
        Violate(report, os.str());
      }
    }

    // 2. Final values must be identical across copies.
    const NodeSnapshot* reference_value = nullptr;
    CopyKey reference_key{};
    for (const auto& [key, copy_history] : node_copies) {
      auto it = final_values.find(key);
      if (it == final_values.end()) {
        Violate(report,
                "compatible: no final value supplied for live copy " +
                    DescribeCopy(key));
        continue;
      }
      const NodeSnapshot& v = it->second;
      if (reference_value == nullptr) {
        reference_value = &v;
        reference_key = key;
        continue;
      }
      const NodeSnapshot& ref = *reference_value;
      std::string mismatch;
      if (v.range != ref.range) mismatch = "range";
      else if (v.entries != ref.entries) mismatch = "entries";
      else if (v.right != ref.right) mismatch = "right link";
      else if (v.level != ref.level) mismatch = "level";
      if (!mismatch.empty()) {
        Violate(report,
                "compatible: final " + mismatch + " differs between " +
                    DescribeCopy(reference_key) + " and " +
                    DescribeCopy(key) + " of " + node.ToString());
      }
    }
  }
  return report;
}

CheckReport CheckOrdered(const HistoryLog& log) {
  CheckReport report;
  for (const auto& [key, copy_history] : log.Copies()) {
    // Link-changes: per link kind, applied versions strictly increase.
    Version last_link_version[3] = {0, 0, 0};
    Version last_membership_version = 0;
    for (const Record& r : copy_history.records) {
      if (r.rewritten) continue;  // reordered into the past, no effect
      if (r.cls == UpdateClass::kLinkChange) {
        Version& last = last_link_version[r.link % 3];
        if (r.version <= last) {
          Violate(report,
                  "ordered: link-change v=" + std::to_string(r.version) +
                      " applied after v=" + std::to_string(last) + " at " +
                      DescribeCopy(key));
        }
        last = std::max(last, r.version);
      } else if (r.cls == UpdateClass::kMembership ||
                 r.cls == UpdateClass::kMigrate) {
        if (r.version <= last_membership_version) {
          Violate(report,
                  "ordered: " + std::string(UpdateClassName(r.cls)) +
                      " v=" + std::to_string(r.version) +
                      " applied after v=" +
                      std::to_string(last_membership_version) + " at " +
                      DescribeCopy(key));
        }
        last_membership_version = std::max(last_membership_version, r.version);
      }
    }
  }
  return report;
}

CheckReport CheckAll(const HistoryLog& log,
                     const std::map<CopyKey, NodeSnapshot>& final_values) {
  CheckReport report = CheckComplete(log);
  report.Merge(CheckCompatible(log, final_values));
  report.Merge(CheckOrdered(log));
  return report;
}

}  // namespace lazytree::history
