// InlineEntries: a node copy's sorted entry array, stored inside the copy.
//
// Holds up to N entries in place, so a copy that fits is one allocation
// with its Node. A copy that outgrows N (a non-PC copy's overflow bucket,
// or a tree built with a larger fanout) spills to one heap block that
// doubles as it grows, as a std::vector would; a spilled array stays
// spilled. Only Node uses it.

#ifndef LAZYTREE_NODE_INLINE_ENTRIES_H_
#define LAZYTREE_NODE_INLINE_ENTRIES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "src/msg/action.h"
#include "src/util/logging.h"

namespace lazytree {

template <size_t N>
class InlineEntries {
  static_assert(std::is_trivially_copyable_v<Entry>,
                "entries move by plain copies");

 public:
  InlineEntries() = default;
  InlineEntries(const InlineEntries&) = delete;
  InlineEntries& operator=(const InlineEntries&) = delete;

  std::span<const Entry> view() const { return {data(), size_}; }
  size_t size() const { return size_; }
  Entry& operator[](size_t i) { return data()[i]; }

  /// Replaces the contents with `entries`.
  void assign(std::span<const Entry> entries) {
    size_ = 0;  // nothing to carry over if this spills
    Reserve(entries.size());
    std::copy(entries.begin(), entries.end(), data());
    size_ = static_cast<uint32_t>(entries.size());
  }

  /// Inserts `e` before position `pos`.
  void insert(size_t pos, Entry e) {
    if (size_ == capacity_) Reserve(2 * size_t{capacity_});
    Entry* d = data();
    std::copy_backward(d + pos, d + size_, d + size_ + 1);
    d[pos] = e;
    ++size_;
  }

  /// Removes the entry at `pos`.
  void erase(size_t pos) {
    Entry* d = data();
    std::copy(d + pos + 1, d + size_, d + pos);
    --size_;
  }

  /// Shrinks to the first `n` entries (drops a tail range). Precondition:
  /// n <= size().
  void resize(size_t n) {
    LAZYTREE_CHECK(n <= size_) << "InlineEntries only shrinks";
    size_ = static_cast<uint32_t>(n);
  }

 private:
  Entry* data() { return heap_ ? heap_.get() : inline_; }
  const Entry* data() const { return heap_ ? heap_.get() : inline_; }

  void Reserve(size_t n) {
    if (n <= capacity_) return;
    auto grown = std::make_unique<Entry[]>(n);
    std::copy(data(), data() + size_, grown.get());
    heap_ = std::move(grown);
    capacity_ = static_cast<uint32_t>(n);
  }

  std::unique_ptr<Entry[]> heap_;  // set once the entries outgrow inline_
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  Entry inline_[N];
};

}  // namespace lazytree

#endif  // LAZYTREE_NODE_INLINE_ENTRIES_H_
