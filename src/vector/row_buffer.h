// RowBuffer: the columnar row store. TableBuilder stages a block group in
// one; the pipeline breakers materialize in them (a join build partition,
// the group table's key rows, a sort run, the Grace probe's deferred rows).
//
// Each column is one typed byte array (StrRef cells for strings, pointing
// into the buffer's one StringHeap). A column gets null flags at its first
// NULL, and a NULL slot holds the safe value Vector::SetNull writes: zero
// bytes, or StrRef("", 0). Rows arrive a column at a time: a dense column
// is one memcpy, a column under a selection one gather. They leave the
// same way (Gather): a contiguous range is one memcpy, a row list one
// typed gather.
#ifndef X100_VECTOR_ROW_BUFFER_H_
#define X100_VECTOR_ROW_BUFFER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "vector/schema.h"
#include "vector/string_heap.h"
#include "vector/vector.h"

namespace x100 {

class RowBuffer {
 public:
  explicit RowBuffer(Schema schema)
      : schema_(std::move(schema)), cols_(schema_.num_fields()) {}

  const Schema& schema() const { return schema_; }
  int64_t rows() const { return rows_; }

  /// Appends the live positions [from, from + n) of `cols` (one vector of
  /// the field's type per field), read through `sel` when it is non-null.
  /// A single row is n = 1. Strings are copied into this buffer's heap.
  void Append(const std::vector<const Vector*>& cols, const sel_t* sel,
              int from, int n);

  /// Appends rows of `other`, which has this buffer's schema: the `n` rows
  /// listed in `rows`, or all of them when `rows` is nullptr.
  void AppendFrom(const RowBuffer& other, const int64_t* rows = nullptr,
                  int64_t n = 0);

  /// Appends one row of values (each NULL or of its field's type).
  void AppendValues(const std::vector<Value>& row);

  template <typename T>
  const T* Col(int c) const {
    return reinterpret_cast<const T*>(cols_[c].data.data());
  }
  /// Column c's null flags (1 = NULL), or nullptr before its first NULL.
  const uint8_t* Nulls(int c) const {
    return cols_[c].nulls.empty() ? nullptr : cols_[c].nulls.data();
  }
  bool IsNull(int c, int64_t row) const {
    return !cols_[c].nulls.empty() && cols_[c].nulls[row] != 0;
  }
  /// Column c's cells and null flags, for EqualCells / CompareCells.
  Cells cells(int c) const {
    return {schema_.field(c).type, cols_[c].data.data(), Nulls(c)};
  }

  /// The read-side twin of Append: copies column c of `n` rows into
  /// positions [out_pos, out_pos + n) of `out` (a vector of the field's
  /// type) — rows [from, from + n), or rows[from + j] when `rows` is
  /// non-null. Strings are copied into out's heap; NULL rows arrive
  /// NULL, holding the safe value.
  void Gather(int c, const int64_t* rows, int64_t from, int n, Vector* out,
              int out_pos) const;

  /// Value view of one cell.
  Value GetValue(int c, int64_t row) const;

  /// Capacity of the cell and flag arrays plus the string bytes.
  size_t MemoryBytes() const;

  /// Appends the spill serialization of rows [begin, end) to `out`, taken
  /// in `order`'s permutation (order[begin] first), or in row order when
  /// `order` is nullptr. Sorted runs spill in emit order this way. The
  /// schema is not serialized: the reloader supplies it.
  void Serialize(const int64_t* order, int64_t begin, int64_t end,
                 std::vector<uint8_t>* out) const;

  /// Rebuilds a buffer from Serialize bytes. Fails with kIoError on a
  /// truncated or corrupt blob (a spill reload must never fault).
  static Result<std::unique_ptr<RowBuffer>> Deserialize(
      const Schema& schema, const uint8_t* data, size_t size);

 private:
  struct Column {
    std::vector<uint8_t> data;   // rows * TypeWidth bytes
    std::vector<uint8_t> nulls;  // one flag per row from the first NULL on
  };

  /// Appends n cells to column c; cell j is position at(j) of `src`, a
  /// typed array of the column's type with null flags `src_nulls` (or
  /// nullptr). `dense`: at(j) == at(0) + j.
  template <typename At>
  void AppendCells(int c, const void* src, const uint8_t* src_nulls,
                   bool dense, At at, int64_t n);

  Schema schema_;
  std::vector<Column> cols_;
  StringHeap heap_;
  int64_t rows_ = 0;
};

}  // namespace x100

#endif  // X100_VECTOR_ROW_BUFFER_H_
