// MorselSource: dynamic work distribution for parallel scans.
//
// Static partitioning (g % parts == part, fixed at plan time) lets one
// expensive group — heavy PDT deltas, no MinMax skip while siblings skip —
// serialize the whole pipeline on a single worker. A MorselSource is
// shared by all clones of one logical scan and hands out groups
// ("morsels", Leis et al.) one at a time on demand: fast workers simply
// take more groups, and elasticity comes for free (any number of
// consumers, decided at plan-build time, not data-layout time). A
// one-chain pipeline is the single-consumer case.
//
// The in-memory PDT tail (inserts past the last stable row) is a single
// indivisible morsel; exactly one consumer wins ClaimTail().
#ifndef X100_STORAGE_MORSEL_H_
#define X100_STORAGE_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace x100 {

class MorselSource {
 public:
  /// Distributes groups [0, num_groups), then the tail.
  explicit MorselSource(int num_groups) : num_groups_(num_groups) {}

  /// Claims the next unscanned group; -1 when exhausted.
  int NextGroup() {
    const int g = next_.fetch_add(1, std::memory_order_relaxed);
    return g < num_groups_ ? g : -1;
  }

  /// The group the next NextGroup() call would hand out; -1 when
  /// exhausted. Advisory only (another clone may claim it first) — the
  /// scan's read-ahead peeks here to warm the pool for whoever wins.
  int PeekNext() const {
    const int g = next_.load(std::memory_order_relaxed);
    return g < num_groups_ ? g : -1;
  }

  /// True for exactly one caller: that scan merges the PDT tail inserts.
  bool ClaimTail() {
    return !tail_claimed_.exchange(true, std::memory_order_acq_rel);
  }

  /// Groups handed out so far (monitoring / tests).
  int64_t handed() const {
    const int n = next_.load(std::memory_order_relaxed);
    return n < num_groups_ ? n : num_groups_;
  }

 private:
  const int num_groups_;
  std::atomic<int> next_{0};
  std::atomic<bool> tail_claimed_{false};
};

using MorselSourcePtr = std::shared_ptr<MorselSource>;

}  // namespace x100

#endif  // X100_STORAGE_MORSEL_H_
