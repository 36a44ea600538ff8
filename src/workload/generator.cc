#include "src/workload/generator.h"

#include "src/util/logging.h"

namespace lazytree::workload {

const char* GenOpName(GenOp::Type type) {
  switch (type) {
    case GenOp::Type::kInsert: return "insert";
    case GenOp::Type::kSearch: return "search";
    case GenOp::Type::kDelete: return "delete";
    case GenOp::Type::kScan: return "scan";
    case GenOp::Type::kRmw: return "rmw";
  }
  return "?";
}

Generator::Generator(OpMix mix, KeyDistribution* keys, uint64_t seed,
                     KeyDistribution* fresh)
    : mix_(mix),
      keys_(keys),
      fresh_(fresh != nullptr ? fresh : keys),
      rng_(seed) {
  total_ = mix_.insert + mix_.search + mix_.erase + mix_.scan +
           mix_.update + mix_.rmw;
  LAZYTREE_CHECK(total_ > 0) << "empty op mix";
  LAZYTREE_CHECK(keys_ != nullptr) << "no key distribution";
}

GenOp Generator::Next() {
  GenOp op;
  double pick = rng_.NextDouble() * total_;
  if (pick < mix_.insert) {
    op.type = GenOp::Type::kInsert;
    op.key = fresh_->Next(rng_);
    op.value = rng_.Next();
    live_.push_back(op.key);
    return op;
  }
  pick -= mix_.insert;
  if (pick < mix_.update) {
    op.type = GenOp::Type::kInsert;
    op.key = keys_->Next(rng_);
    op.value = rng_.Next();
    return op;
  }
  pick -= mix_.update;
  if (pick < mix_.search) {
    op.type = GenOp::Type::kSearch;
    op.key = keys_->Next(rng_);
    return op;
  }
  pick -= mix_.search;
  if (pick < mix_.erase) {
    if (live_.empty()) {
      op.type = GenOp::Type::kSearch;
      op.key = keys_->Next(rng_);
      return op;
    }
    op.type = GenOp::Type::kDelete;
    const size_t idx = rng_.Below(live_.size());
    op.key = live_[idx];
    live_[idx] = live_.back();
    live_.pop_back();
    return op;
  }
  pick -= mix_.erase;
  if (pick < mix_.rmw) {
    op.type = GenOp::Type::kRmw;
    op.key = keys_->Next(rng_);
    return op;
  }
  op.type = GenOp::Type::kScan;
  op.key = keys_->Next(rng_);
  op.scan_limit = 1 + rng_.Below(32);
  return op;
}

}  // namespace lazytree::workload
