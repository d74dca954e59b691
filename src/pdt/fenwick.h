// Fenwick (binary indexed) tree over the stable-SID space: O(log n) prefix
// counts of inserts/deletes, which give the SID<->RID arithmetic of the
// Positional Delta Tree.
//
// Blocked: positions are split into blocks of kBlockPositions. A dense
// tree over the blocks holds each block's total, and a block gets its own
// tree only on the first Add inside it. A table nobody updates therefore
// costs a few bytes per block, not 8 bytes per row, and a write pays
// counters only for the blocks it touches.
#ifndef X100_PDT_FENWICK_H_
#define X100_PDT_FENWICK_H_

#include <cstdint>
#include <vector>

namespace x100 {

class Fenwick {
 public:
  static constexpr int64_t kBlockPositions = 4096;

  explicit Fenwick(int64_t n)
      : n_(n),
        block_totals_((n + kBlockPositions - 1) / kBlockPositions, 0),
        blocks_(block_totals_.size()) {}

  /// Adds `delta` at position i (0-based, i < n).
  void Add(int64_t i, int64_t delta) {
    const int64_t b = i / kBlockPositions;
    std::vector<int64_t>& tree = blocks_[b];
    if (tree.empty()) {
      tree.assign(BlockLength(b), 0);
      allocated_blocks_++;
    }
    const int64_t len = static_cast<int64_t>(tree.size());
    for (int64_t x = i % kBlockPositions + 1; x <= len; x += x & -x) {
      tree[x - 1] += delta;
    }
    const int64_t nb = static_cast<int64_t>(block_totals_.size());
    for (int64_t x = b + 1; x <= nb; x += x & -x) block_totals_[x - 1] += delta;
  }

  /// Sum of positions [0, i] (i may be -1 -> 0).
  int64_t Prefix(int64_t i) const {
    if (i >= n_) i = n_ - 1;
    if (i < 0) return 0;
    const int64_t b = i / kBlockPositions;
    int64_t s = 0;
    for (int64_t x = b; x > 0; x -= x & -x) s += block_totals_[x - 1];
    const std::vector<int64_t>& tree = blocks_[b];
    if (!tree.empty()) {
      for (int64_t x = i % kBlockPositions + 1; x > 0; x -= x & -x) {
        s += tree[x - 1];
      }
    }
    return s;
  }

  int64_t Total() const { return Prefix(n_ - 1); }
  int64_t size() const { return n_; }
  /// Blocks that carry their own tree (had at least one Add).
  int64_t allocated_blocks() const { return allocated_blocks_; }

 private:
  int64_t BlockLength(int64_t b) const {
    const int64_t rest = n_ - b * kBlockPositions;
    return rest < kBlockPositions ? rest : kBlockPositions;
  }

  int64_t n_;
  // Fenwick tree over per-block totals; entry x-1 holds node x.
  std::vector<int64_t> block_totals_;
  // Per-block Fenwick trees over in-block offsets, same layout; empty
  // until the block's first Add.
  std::vector<std::vector<int64_t>> blocks_;
  int64_t allocated_blocks_ = 0;
};

}  // namespace x100

#endif  // X100_PDT_FENWICK_H_
