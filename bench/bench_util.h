// Shared plumbing for the experiment benches (see DESIGN.md's experiment
// index): aligned-table printing. Each bench binary regenerates one
// figure/claim of the paper and prints the series EXPERIMENTS.md records;
// the benches that drive generic traffic do it with workload::Drive.

#ifndef LAZYTREE_BENCH_BENCH_UTIL_H_
#define LAZYTREE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/workload/driver.h"

namespace lazytree::bench {

/// Prints rows of left-aligned cells under a header. A column is as wide
/// as its header (at least 9); a wider cell shifts the rest of its row
/// but is always followed by a space, so cells never run together.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) {
      widths_.push_back(std::max<size_t>(h.size(), 9));
    }
  }

  void Header() {
    Row(headers_);
    std::vector<std::string> rules;
    for (size_t w : widths_) rules.emplace_back(w, '-');
    Row(rules);
  }

  void Row(const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::printf("%-*s ", static_cast<int>(widths_[i]), cells[i].c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
inline std::string FmtU(uint64_t v) { return std::to_string(v); }

/// The key space the paper benches draw from: [1, 2^40).
constexpr Key kKeySpace = 1ull << 40;

/// Insert/search traffic over `keys` with `window` ops outstanding.
inline workload::DriveSpec InsertSearch(workload::KeyDistribution* keys,
                                        uint64_t ops,
                                        double insert_fraction,
                                        uint64_t seed, uint32_t window = 32) {
  workload::DriveSpec spec;
  spec.mix = {.insert = insert_fraction, .search = 1 - insert_fraction};
  spec.keys = keys;
  spec.ops = ops;
  spec.seed = seed;
  spec.window = window;
  return spec;
}

/// Standard preamble naming the experiment.
inline void Banner(const char* exp_id, const char* paper_artifact,
                   const char* claim) {
  std::printf("=== %s — %s ===\n%s\n\n", exp_id, paper_artifact, claim);
}

}  // namespace lazytree::bench

#endif  // LAZYTREE_BENCH_BENCH_UTIL_H_
