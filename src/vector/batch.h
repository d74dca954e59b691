// Batch: the multi-column unit flowing between vectorized operators.
//
// A batch holds one Vector per column plus an optional selection vector.
// Selection vectors are the X100 mechanism for cheap filtering: SelectOp
// emits the indexes of qualifying rows instead of copying survivors, and
// downstream primitives iterate the selection.
#ifndef X100_VECTOR_BATCH_H_
#define X100_VECTOR_BATCH_H_

#include <memory>
#include <vector>

#include "vector/schema.h"
#include "vector/vector.h"

namespace x100 {

class Batch {
 public:
  Batch(const Schema& schema, int capacity) : capacity_(capacity) {
    cols_.reserve(schema.num_fields());
    for (const Field& f : schema.fields()) {
      cols_.push_back(std::make_unique<Vector>(f.type, capacity));
    }
    sel_buf_ = std::make_unique<sel_t[]>(capacity);
  }

  int capacity() const { return capacity_; }
  int num_columns() const { return static_cast<int>(cols_.size()); }

  Vector* column(int i) { return cols_[i].get(); }
  const Vector* column(int i) const { return cols_[i].get(); }
  /// Every column, in schema order (what RowBuffer::Append reads).
  std::vector<const Vector*> columns() const {
    std::vector<const Vector*> out;
    for (const auto& c : cols_) out.push_back(c.get());
    return out;
  }

  /// Number of physical rows filled in the vectors.
  int rows() const { return rows_; }
  void set_rows(int n) { rows_ = n; }

  /// Selection vector: when non-null, only the listed positions are live.
  const sel_t* sel() const { return has_sel_ ? sel_buf_.get() : nullptr; }
  sel_t* MutableSel() { return sel_buf_.get(); }
  void SetSelCount(int n) {
    has_sel_ = true;
    sel_count_ = n;
  }
  void ClearSel() {
    has_sel_ = false;
    sel_count_ = 0;
  }
  bool has_sel() const { return has_sel_; }

  /// Live rows: selection count if a selection is active, else all rows.
  int ActiveRows() const { return has_sel_ ? sel_count_ : rows_; }

  /// Resets row/selection state and string heaps for refill by a producer.
  void Reset() {
    rows_ = 0;
    ClearSel();
    for (auto& c : cols_) {
      if (c->heap()) c->heap()->Reset();
      c->ClearNulls();
    }
  }

  /// Densifies: materializes selected rows into a fresh batch with no
  /// selection vector (used at pipeline breakers and result collection).
  std::unique_ptr<Batch> Compact(const Schema& schema) const;

  size_t MemoryBytes() const {
    size_t b = sizeof(Batch) + static_cast<size_t>(capacity_) * sizeof(sel_t);
    for (const auto& c : cols_) b += c->MemoryBytes();
    return b;
  }

 private:
  int capacity_;
  int rows_ = 0;
  bool has_sel_ = false;
  int sel_count_ = 0;
  std::vector<std::unique_ptr<Vector>> cols_;
  std::unique_ptr<sel_t[]> sel_buf_;
};

}  // namespace x100

#endif  // X100_VECTOR_BATCH_H_
