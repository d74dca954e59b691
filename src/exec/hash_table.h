// HashTable: the one hash table of the pipeline breakers. The join build
// keeps each radix partition in one (drain partials, re-size splits,
// merged and deferred partitions, spill chunks); GroupTable keeps its key
// rows in one.
//
// It holds a RowBuffer, one u64 key hash per row and a bucket-chain index
// over those hashes, chained by row id: a head per bucket and a `next` per
// row, as in Vectorwise (Zukowski, PhD thesis, 2009; Boncz et al., CIDR
// 2005). A table that was never indexed only collects rows and hashes.
// The index has one sizing rule: n rows indexed at once (BuildIndex) get
// max(16, NextPow2(2n)) buckets; rows appended to an indexed table are
// linked as they arrive, and the buckets double while the load is above
// 0.7. A row is linked at its bucket's head, so a chain lists its rows
// newest first.
//
// Keys are the columns `key_cols` of the rows. Two keys are equal when
// each key cell is (EqualCells, vector/vector.h): NULL equals NULL,
// otherwise the cell type's == — NaN equals nothing, -0.0 equals 0.0.
#ifndef X100_EXEC_HASH_TABLE_H_
#define X100_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "simd/prefetch.h"
#include "vector/row_buffer.h"

namespace x100 {

class HashTable {
 public:
  HashTable(const Schema& schema, std::vector<int> key_cols)
      : rows_(schema),
        key_cols_(std::move(key_cols)),
        key_cells_(key_cols_.size()) {
    AfterAppend();
  }
  // key_cells_ points into rows_.
  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  const RowBuffer& rows() const { return rows_; }
  int64_t size() const { return rows_.rows(); }
  uint64_t hash(int64_t r) const { return hashes_[r]; }

  /// Appends positions [from, from + n) of `cols` read through `sel`
  /// (RowBuffer::Append), with hashes[0..n) as their key hashes.
  void Append(const std::vector<const Vector*>& cols, const sel_t* sel,
              int from, int n, const uint64_t* hashes);
  /// Appends rows of `other` (this table's schema and keys) with their
  /// hashes: the `n` rows listed in `rows`, or all of them.
  void AppendFrom(const HashTable& other, const int64_t* rows = nullptr,
                  int64_t n = 0);
  /// Appends every row of `rows` (this table's schema), with
  /// hashes[0..rows.rows()) as their key hashes.
  void AppendRows(const RowBuffer& rows, const uint64_t* hashes);

  /// Indexes every row at once (the sizing rule above).
  void BuildIndex();

  /// The head of `hash`'s chain, or -1; the table must be indexed.
  int64_t Head(uint64_t hash) const { return buckets_[hash & mask_]; }
  int64_t Next(int64_t r) const { return next_[r]; }
  /// Hints `hash`'s bucket head into cache ahead of a lookup.
  void PrefetchBucket(uint64_t hash) const {
    if (!buckets_.empty()) PrefetchRead(&buckets_[hash & mask_]);
  }

  /// The first row from chain position `node` on (Head(hash) or a Next)
  /// whose hash is `hash` and whose keys equal row `i` of `keys` (one
  /// vector per key column, in key order); -1 when there is none.
  int64_t Find(int64_t node, uint64_t hash,
               const std::vector<const Vector*>& keys, int i) const {
    return Walk(node, hash, [&](int64_t r) {
      for (size_t k = 0; k < key_cells_.size(); k++) {
        if (!EqualCells(keys[k]->cells(), i, key_cells_[k], r)) return false;
      }
      return true;
    });
  }
  /// The row whose keys equal row `j` of `other` (same schema and keys),
  /// or -1.
  int64_t Find(const HashTable& other, int64_t j) const {
    const uint64_t h = other.hashes_[j];
    return Walk(Head(h), h, [&](int64_t r) {
      for (size_t k = 0; k < key_cells_.size(); k++) {
        if (!EqualCells(other.key_cells_[k], j, key_cells_[k], r)) {
          return false;
        }
      }
      return true;
    });
  }

  /// Rows, hashes and index, for memory accounting.
  size_t MemoryBytes() const;
  /// What an index built at once over n rows adds (buckets, chain and
  /// hashes): merge-time admission estimates with the sizing rule.
  static int64_t IndexBytes(int64_t n);

  /// Appends the spill serialization of rows [begin, end) to `out`:
  /// [i64 rows][rows u64 hashes][RowBuffer::Serialize bytes]. Hashes ride
  /// along so a reload never re-evaluates keys, and build and probe stay
  /// agreed on partition and bucket.
  void Serialize(int64_t begin, int64_t end, std::vector<uint8_t>* out) const;
  /// Appends the rows of a Serialize blob; kIoError when it is corrupt.
  Status AppendSerialized(const uint8_t* data, size_t size);

 private:
  template <typename Eq>
  int64_t Walk(int64_t node, uint64_t hash, Eq eq) const {
    for (; node >= 0; node = next_[node]) {
      if (hashes_[node] == hash && eq(node)) return node;
    }
    return -1;
  }
  /// Ends every append: re-reads the key columns (their arrays may have
  /// moved) and, when the table is indexed, grows the buckets to the
  /// sizing rule and links the new rows.
  void AfterAppend();
  /// Re-chains the linked rows over `buckets` buckets.
  void Rehash(size_t buckets);

  RowBuffer rows_;
  std::vector<int> key_cols_;
  std::vector<Cells> key_cells_;  // rows_.cells(key_cols_[k])
  std::vector<uint64_t> hashes_;
  std::vector<int64_t> buckets_;  // head row per bucket, -1 empty
  std::vector<int64_t> next_;     // per linked row: next row of its chain
  uint64_t mask_ = 0;
};

}  // namespace x100

#endif  // X100_EXEC_HASH_TABLE_H_
