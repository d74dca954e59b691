#include "exec/hash_table.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/pod_serde.h"

namespace x100 {

namespace {
uint64_t BucketsFor(int64_t n) {
  return std::max<uint64_t>(16, NextPow2(static_cast<uint64_t>(n) * 2));
}
}  // namespace

void HashTable::Append(const std::vector<const Vector*>& cols,
                       const sel_t* sel, int from, int n,
                       const uint64_t* hashes) {
  rows_.Append(cols, sel, from, n);
  hashes_.insert(hashes_.end(), hashes, hashes + n);
  AfterAppend();
}

void HashTable::AppendFrom(const HashTable& other, const int64_t* rows,
                           int64_t n) {
  rows_.AppendFrom(other.rows_, rows, n);
  if (rows == nullptr) {
    hashes_.insert(hashes_.end(), other.hashes_.begin(), other.hashes_.end());
  } else {
    for (int64_t j = 0; j < n; j++) hashes_.push_back(other.hashes_[rows[j]]);
  }
  AfterAppend();
}

void HashTable::AppendRows(const RowBuffer& rows, const uint64_t* hashes) {
  rows_.AppendFrom(rows);
  hashes_.insert(hashes_.end(), hashes, hashes + rows.rows());
  AfterAppend();
}

void HashTable::BuildIndex() {
  next_.resize(hashes_.size());
  Rehash(BucketsFor(size()));
}

void HashTable::AfterAppend() {
  for (size_t k = 0; k < key_cols_.size(); k++) {
    key_cells_[k] = rows_.cells(key_cols_[k]);
  }
  if (buckets_.empty()) return;
  // Doubling before linking leaves the chains a row-at-a-time growth
  // leaves: Rehash links the old rows in order, then the new rows go on
  // their buckets' heads in order.
  size_t buckets = buckets_.size();
  while (static_cast<size_t>(size()) * 10 > buckets * 7) buckets *= 2;
  if (buckets != buckets_.size()) Rehash(buckets);
  for (int64_t r = static_cast<int64_t>(next_.size()); r < size(); r++) {
    const uint64_t slot = hashes_[r] & mask_;
    next_.push_back(buckets_[slot]);
    buckets_[slot] = r;
  }
}

void HashTable::Rehash(size_t buckets) {
  buckets_.assign(buckets, -1);
  mask_ = buckets - 1;
  for (int64_t r = 0; r < static_cast<int64_t>(next_.size()); r++) {
    const uint64_t slot = hashes_[r] & mask_;
    next_[r] = buckets_[slot];
    buckets_[slot] = r;
  }
}

size_t HashTable::MemoryBytes() const {
  return rows_.MemoryBytes() +
         (buckets_.capacity() + next_.capacity() + hashes_.capacity()) *
             sizeof(int64_t);
}

int64_t HashTable::IndexBytes(int64_t n) {
  return (static_cast<int64_t>(BucketsFor(n)) + 2 * n) *
         static_cast<int64_t>(sizeof(int64_t));
}

void HashTable::Serialize(int64_t begin, int64_t end,
                          std::vector<uint8_t>* out) const {
  serde::AppendPod<int64_t>(out, end - begin);
  const auto* h = reinterpret_cast<const uint8_t*>(hashes_.data());
  out->insert(out->end(), h + begin * sizeof(uint64_t),
              h + end * sizeof(uint64_t));
  rows_.Serialize(nullptr, begin, end, out);
}

Status HashTable::AppendSerialized(const uint8_t* data, size_t size) {
  serde::Reader in{data, size};
  int64_t n;
  std::vector<uint64_t> hashes;
  if (!in.TakePod(&n) || n < 0 ||
      !in.TakePodVec(static_cast<size_t>(n), &hashes)) {
    return Status::IoError("corrupt hash table spill blob: truncated");
  }
  std::unique_ptr<RowBuffer> rb;
  X100_ASSIGN_OR_RETURN(
      rb, RowBuffer::Deserialize(rows_.schema(), data + in.pos,
                                 in.remaining()));
  if (rb->rows() != n) {
    return Status::IoError("corrupt hash table spill blob: row count");
  }
  AppendRows(*rb, hashes.data());
  return Status::OK();
}

}  // namespace x100
