// Workload generator: turns an operation mix + key distribution into a
// reproducible operation stream (deletes draw from previously inserted
// keys, so streams make sense against a dictionary).

#ifndef LAZYTREE_WORKLOAD_GENERATOR_H_
#define LAZYTREE_WORKLOAD_GENERATOR_H_

#include <vector>

#include "src/workload/distributions.h"

namespace lazytree::workload {

/// Operation-type proportions; they need not sum to 1 (normalized).
struct OpMix {
  double insert = 0.5;
  double search = 0.5;
  double erase = 0.0;
  double scan = 0.0;
  double update = 0.0;  ///< a write of a key drawn like a search's
  double rmw = 0.0;     ///< read-modify-write: search, then write value+1
};

struct GenOp {
  enum class Type { kInsert, kSearch, kDelete, kScan, kRmw };
  Type type = Type::kSearch;
  Key key = 0;
  Value value = 0;
  uint64_t scan_limit = 0;
};

const char* GenOpName(GenOp::Type type);

class Generator {
 public:
  /// Searches, updates, scans and rmws draw from `keys`; inserts draw
  /// from `fresh`, or from `keys` when it is null. Neither is owned.
  Generator(OpMix mix, KeyDistribution* keys, uint64_t seed,
            KeyDistribution* fresh = nullptr);

  /// Produces the next operation. Delete targets come from keys this
  /// generator inserted earlier (each deleted at most once); when none
  /// are available a delete becomes a search.
  GenOp Next();

  size_t live_keys() const { return live_.size(); }

 private:
  OpMix mix_;
  double total_;
  KeyDistribution* keys_;
  KeyDistribution* fresh_;
  Rng rng_;
  std::vector<Key> live_;
};

}  // namespace lazytree::workload

#endif  // LAZYTREE_WORKLOAD_GENERATOR_H_
