// Key distributions for workload generation.
//
// The benches sweep access patterns because the dB-tree's behaviour is
// pattern-sensitive: sequential ingest hammers the rightmost leaf (the
// data-balancing motivation of [14]), Zipfian reads concentrate on a few
// hot paths (where interior replication pays), and uniform traffic is
// the neutral baseline.

#ifndef LAZYTREE_WORKLOAD_DISTRIBUTIONS_H_
#define LAZYTREE_WORKLOAD_DISTRIBUTIONS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/msg/key.h"
#include "src/util/rng.h"

namespace lazytree::workload {

/// Generates keys in [1, space) under some distribution.
class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;
  virtual Key Next(Rng& rng) = 0;
  virtual const char* name() const = 0;
  /// A write of `key` completed OK. Distributions that skew toward what
  /// was written (LatestDist) learn from it; the rest ignore it.
  virtual void Completed(Key /*key*/) {}
};

/// Uniform over the key space.
class UniformDist : public KeyDistribution {
 public:
  explicit UniformDist(Key space) : space_(space) {}
  Key Next(Rng& rng) override { return 1 + rng.Below(space_ - 1); }
  const char* name() const override { return "uniform"; }

 private:
  Key space_;
};

/// Strictly increasing keys — the time-ordered ingest pattern that sends
/// every insert to the current rightmost leaf.
class SequentialDist : public KeyDistribution {
 public:
  explicit SequentialDist(Key start = 1, Key stride = 1)
      : next_(start), stride_(stride) {}
  Key Next(Rng&) override {
    Key k = next_;
    next_ += stride_;
    return k;
  }
  const char* name() const override { return "sequential"; }

 private:
  Key next_;
  Key stride_;
};

/// Zipfian over `n` distinct ranks mapped onto the key space, using the
/// Gray et al. rejection-free approximation (as in YCSB). Rank r has
/// probability proportional to 1/r^theta.
class ZipfianDist : public KeyDistribution {
 public:
  ZipfianDist(uint64_t n, Key space, double theta = 0.99);
  Key Next(Rng& rng) override;
  const char* name() const override { return "zipfian"; }

  /// Rank -> key mapping (scrambled so hot ranks scatter over the space).
  Key KeyForRank(uint64_t rank) const;

  /// Samples just the rank in [1, n] (rank 1 hottest) — building block
  /// for distributions that map ranks onto something other than the key
  /// space (LatestDist maps them onto insert recency).
  uint64_t NextRank(Rng& rng) const;

 private:
  uint64_t n_;
  Key space_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

/// A fraction `hot_ops` of accesses hit a contiguous `hot_fraction` of
/// the key space (the classic hotspot model).
class HotspotDist : public KeyDistribution {
 public:
  HotspotDist(Key space, double hot_fraction, double hot_ops)
      : space_(space), hot_fraction_(hot_fraction), hot_ops_(hot_ops) {}
  Key Next(Rng& rng) override {
    const Key hot_span =
        std::max<Key>(1, static_cast<Key>(space_ * hot_fraction_));
    if (rng.Chance(hot_ops_)) return 1 + rng.Below(hot_span);
    return 1 + rng.Below(space_ - 1);
  }
  const char* name() const override { return "hotspot"; }

 private:
  Key space_;
  double hot_fraction_;
  double hot_ops_;
};

/// YCSB's "latest" distribution, made race-free: reads skew (zipfian)
/// toward the most recently *completed* inserts. The insert side calls
/// Publish(key) once the operation completed (workload::Drive does it
/// through Completed) — never at submit time — so every key Next() can
/// hand out refers to an insert whose reply some client has already
/// seen, and a search for it must succeed (the leaf applied the insert
/// before the reply was sent).
/// Sampling keys derived from the *issue* counter instead is the ycsb-d
/// anomaly BENCH_PR6 exposed: reads race their own in-flight inserts and
/// not_found explodes on the threads transport — 2563 vs 104 on sim for
/// the same seed, purely from the wider submit-to-apply window real
/// threads have (see EXPERIMENTS.md).
///
/// Concurrency: Publish and Next are both any-thread. The ring slots are
/// atomics; a sampler racing a publisher can read a slot that still
/// holds an older completed key, which is benign — it is still a
/// completed key. Slots start at key 1, so before the first Publish the
/// distribution probes a fixed (possibly absent) key.
class LatestDist : public KeyDistribution {
 public:
  /// `window` bounds how far back the recency skew reaches.
  explicit LatestDist(Key space, uint64_t window = 1024,
                      double theta = 0.99)
      : rank_dist_(window, space, theta), ring_(window), window_(window) {
    for (auto& slot : ring_) slot.store(1, std::memory_order_relaxed);
  }

  /// Records a completed insert's key (call from the completion path).
  void Publish(Key key) {
    const uint64_t h = head_.fetch_add(1, std::memory_order_acq_rel);
    ring_[h % window_].store(key, std::memory_order_release);
  }

  Key Next(Rng& rng) override {
    const uint64_t h = head_.load(std::memory_order_acquire);
    if (h == 0) return 1;  // nothing completed yet
    uint64_t rank = rank_dist_.NextRank(rng);  // 1 = most recent
    const uint64_t depth = h < window_ ? h : window_;
    if (rank > depth) rank = 1 + (rank - 1) % depth;
    return ring_[(h - rank) % window_].load(std::memory_order_acquire);
  }
  const char* name() const override { return "latest"; }
  void Completed(Key key) override { Publish(key); }

 private:
  ZipfianDist rank_dist_;
  std::vector<std::atomic<Key>> ring_;
  uint64_t window_;
  std::atomic<uint64_t> head_{0};
};

/// Factory by name ("uniform" | "sequential" | "zipfian" | "hotspot").
/// "latest" is not constructible here: it needs the caller's completed-
/// insert frontier (see LatestDist).
std::unique_ptr<KeyDistribution> MakeDistribution(const std::string& name,
                                                  Key space);

}  // namespace lazytree::workload

#endif  // LAZYTREE_WORKLOAD_DISTRIBUTIONS_H_
