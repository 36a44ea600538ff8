#include "src/server/processor.h"

#include "src/util/logging.h"

namespace lazytree {

Processor::Processor(ProcessorId id, uint32_t cluster_size,
                     net::Network* network, history::HistoryLog* history,
                     const TreeConfig& config, size_t piggyback_window)
    : id_(id),
      cluster_size_(cluster_size),
      config_(config),
      network_(network),
      history_(history),
      store_(cluster_size),
      out_(id, network, piggyback_window),
      ops_(id) {
  network_->Register(id_, this);
}

void Processor::SetHandler(std::unique_ptr<ProtocolHandler> handler) {
  handler_ = std::move(handler);
}

void Processor::Deliver(Message m) {
  if (crashed_) return;  // defensive; the sim network drops these already
  // Scope per message: a coalesced message's actions emit their outputs
  // as one message per destination. Nested inside a DeliverBatch scope
  // this is a no-op (only the outermost EndCombine flushes).
  out_.BeginCombine();
  for (Action& action : m.actions) HandleAction(action);
  out_.EndCombine();
}

void Processor::DeliverBatch(std::vector<Message>& batch) {
  // One outbox scope across the whole drained batch: same-destination
  // outputs of *different* inbox messages fuse too (this is where a burst
  // of searches past the root collapses into one upstream message).
  out_.BeginCombine();
  for (Message& m : batch) Deliver(std::move(m));
  out_.EndCombine();
}

void Processor::HandleAction(Action& action) {
  actions_handled_.fetch_add(1, std::memory_order_relaxed);
  if (action.kind == ActionKind::kReturnValue) {
    CompleteReturnLocal(std::move(action));
    return;
  }
  LAZYTREE_CHECK(handler_ != nullptr) << "no protocol installed on p" << id_;
  handler_->Handle(action);
}

void Processor::CompleteReturnLocal(Action action) {
  OpResult result;
  result.op = action.op;
  result.key = action.key;
  result.hops = action.hops;
  result.entries = std::move(action.range_results);
  switch (action.rc) {
    case Action::Rc::kOk:
      result.status = Status::OK();
      result.value = action.value;
      break;
    case Action::Rc::kNotFound:
      result.status = Status::NotFound("key absent");
      break;
    case Action::Rc::kExists:
      result.status = Status::AlreadyExists("key exists");
      break;
    case Action::Rc::kNone:
      result.status = Status::Internal("return without rc");
      break;
  }
  ops_.Complete(result);
}

Node* Processor::InstallNode(std::unique_ptr<Node> node) {
  if (history_ != nullptr && history_->enabled()) {
    history_->OnCopyCreated(node->id(), id_, node->applied_updates());
  }
  return store_.Install(std::move(node));
}

void Processor::RemoveNode(NodeId node, ProcessorId forward_to) {
  if (history_ != nullptr && history_->enabled()) {
    history_->OnCopyDeleted(node, id_);
  }
  store_.Remove(node, forward_to);
}

void Processor::Crash() {
  LAZYTREE_CHECK(!crashed_) << "p" << id_ << " crashed twice";
  crashed_ = true;
  ++crash_epoch_;
  // Volatile memory is gone: every local copy dies (the history log keeps
  // their records — a deleted copy is "conceptually retained", §3.1).
  std::vector<NodeId> ids;
  store_.ForEach([&](const Node& node) { ids.push_back(node.id()); });
  for (NodeId id : ids) RemoveNode(id);
  store_.Reset();
  aas_.Reset();
  handler_.reset();  // parked actions and protocol state are volatile too
  out_.Clear();
  ops_.FailAllPending(Status::Unavailable("processor crashed"));
}

void Processor::Restart(std::unique_ptr<ProtocolHandler> handler,
                        NodeId root_hint, int32_t root_level) {
  LAZYTREE_CHECK(crashed_) << "restart of live p" << id_;
  // Operations submitted while the processor was down never made it into
  // the tree (their self-send was dropped): fail them now.
  ops_.FailAllPending(Status::Unavailable("processor was down"));
  handler_ = std::move(handler);
  if (root_hint.valid()) store_.SetRootHint(root_hint, root_level);
  crashed_ = false;
}

OpId Processor::Submit(ActionKind kind, Key key, Value value,
                       OpCallback callback) {
  ClientOp op;
  op.kind = kind;
  op.origin = id_;
  op.op = ops_.Begin(std::move(callback));
  op.key = key;
  op.value = value;
  out_.SubmitClient(op);
  return op.op;
}

OpId Processor::SubmitSearch(Key key, OpCallback callback) {
  LAZYTREE_CHECK(key != kKeyInfinity) << "reserved key";
  return Submit(ActionKind::kSearch, key, 0, std::move(callback));
}

OpId Processor::SubmitInsert(Key key, Value value, OpCallback callback) {
  LAZYTREE_CHECK(key != kKeyInfinity) << "reserved key";
  return Submit(ActionKind::kInsertOp, key, value, std::move(callback));
}

OpId Processor::SubmitDelete(Key key, OpCallback callback) {
  LAZYTREE_CHECK(key != kKeyInfinity) << "reserved key";
  return Submit(ActionKind::kDeleteOp, key, 0, std::move(callback));
}

OpId Processor::SubmitScan(Key start, uint64_t limit, OpCallback callback) {
  // The scan limit rides in `value`.
  return Submit(ActionKind::kScanOp,
                start == kKeyInfinity ? kKeyInfinity - 1 : start, limit,
                std::move(callback));
}

}  // namespace lazytree
