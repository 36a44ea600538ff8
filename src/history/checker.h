// Executable versions of the paper's three correctness requirements (§3.1).
//
//   * Complete histories  — every issued update appears in some node's
//     update set (no action was lost in flight).
//   * Compatible histories — at quiescence, every live copy of a node has
//     the same uniform update set (after backwards-extension accounting)
//     and the same final value.
//   * Ordered histories   — ordered-action classes (link-changes,
//     membership registrations) apply in version order at every copy.
//
// Tests call these after driving a protocol to quiescence; a non-empty
// violation list pinpoints the copy and update at fault.

#ifndef LAZYTREE_HISTORY_CHECKER_H_
#define LAZYTREE_HISTORY_CHECKER_H_

#include <map>
#include <string>
#include <vector>

#include "src/history/history.h"

namespace lazytree::history {

struct CheckReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string ToString() const;

  void Merge(CheckReport other) {
    for (auto& v : other.violations) violations.push_back(std::move(v));
  }
};

// Each check reports at most 16 violations, then one suppression notice.
// An update applied twice at one copy is always a violation.

/// Complete-history requirement.
CheckReport CheckComplete(const HistoryLog& log);

/// Compatible-history requirement. `final_values` maps every *live* copy
/// to its final snapshot (range, entries, links), taken at quiescence.
CheckReport CheckCompatible(
    const HistoryLog& log,
    const std::map<CopyKey, NodeSnapshot>& final_values);

/// Ordered-history requirement.
CheckReport CheckOrdered(const HistoryLog& log);

/// All three, merged.
CheckReport CheckAll(const HistoryLog& log,
                     const std::map<CopyKey, NodeSnapshot>& final_values);

}  // namespace lazytree::history

#endif  // LAZYTREE_HISTORY_CHECKER_H_
