#include "src/msg/action.h"

#include <sstream>

namespace lazytree {

const char* ActionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kInvalid: return "invalid";
    case ActionKind::kSearch: return "search";
    case ActionKind::kInsertOp: return "insert_op";
    case ActionKind::kDeleteOp: return "delete_op";
    case ActionKind::kScanOp: return "scan_op";
    case ActionKind::kReturnValue: return "return_value";
    case ActionKind::kInsert: return "Insert";
    case ActionKind::kRelayedInsert: return "insert";
    case ActionKind::kDelete: return "Delete";
    case ActionKind::kRelayedDelete: return "delete";
    case ActionKind::kSplitStart: return "split_start";
    case ActionKind::kSplitAck: return "split_ack";
    case ActionKind::kSplitEnd: return "split_end";
    case ActionKind::kRelayedSplit: return "split";
    case ActionKind::kCreateNode: return "create_node";
    case ActionKind::kRootHint: return "root_hint";
    case ActionKind::kLinkChange: return "link_change";
    case ActionKind::kRelayedLinkChange: return "relayed_link_change";
    case ActionKind::kMigrateNode: return "migrate_node";
    case ActionKind::kMigrateAck: return "migrate_ack";
    case ActionKind::kJoin: return "join";
    case ActionKind::kJoinGrant: return "join_grant";
    case ActionKind::kRelayedJoin: return "relayed_join";
    case ActionKind::kUnjoin: return "unjoin";
    case ActionKind::kRelayedUnjoin: return "relayed_unjoin";
    case ActionKind::kVigorousLock: return "vig_lock";
    case ActionKind::kVigorousLockAck: return "vig_lock_ack";
    case ActionKind::kVigorousApply: return "vig_apply";
    case ActionKind::kVigorousApplyDelete: return "vig_apply_delete";
    case ActionKind::kVigorousApplySplit: return "vig_apply_split";
    case ActionKind::kMaxKind: return "max_kind";
  }
  return "?";
}

std::string Action::ToString() const {
  std::ostringstream os;
  os << ActionKindName(kind) << "(" << target.ToString();
  if (op != kNoOp) os << " op=" << op;
  if (update != kNoUpdate) os << " u=" << update;
  switch (kind) {
    case ActionKind::kSearch:
    case ActionKind::kInsertOp:
    case ActionKind::kInsert:
    case ActionKind::kRelayedInsert:
    case ActionKind::kDeleteOp:
    case ActionKind::kScanOp:
    case ActionKind::kDelete:
    case ActionKind::kRelayedDelete:
      os << " key=" << key << " val=" << value;
      break;
    case ActionKind::kReturnValue:
      os << " key=" << key << " found=" << (found ? "y" : "n");
      break;
    case ActionKind::kSplitEnd:
    case ActionKind::kRelayedSplit:
      os << " sep=" << sep << " sib=" << new_node.ToString();
      break;
    case ActionKind::kLinkChange:
      os << " link=" << static_cast<int>(link) << " ->"
         << new_node.ToString() << " v=" << version;
      break;
    default:
      break;
  }
  if (version != 0) os << " v=" << version;
  os << ")";
  return os.str();
}

}  // namespace lazytree
