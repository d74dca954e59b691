// Vector: a typed array of up to `capacity` values — the unit of work of
// vectorized execution.
//
// NULL handling follows the paper (§"NULLs"): a vector optionally carries a
// separate null-indicator column (uint8_t, 1 = NULL) while the value slots
// at NULL positions hold a "safe" value (0 / empty string) so that
// NULL-oblivious kernels can process the full vector without faulting.
#ifndef X100_VECTOR_VECTOR_H_
#define X100_VECTOR_VECTOR_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/types.h"
#include "vector/string_heap.h"

namespace x100 {

class Value;  // common/value.h

/// Index type of selection vectors.
using sel_t = int32_t;

/// The one TypeId -> C type dispatch over cells: returns f(T()) for the
/// cell type T of `type` (uint8_t for bool, int32_t for i32 and date,
/// StrRef for strings). Typed loops over cells are written once, as a
/// generic lambda; the switch runs once per call.
template <typename F>
decltype(auto) VisitCellType(TypeId type, F&& f) {
  switch (type) {
    case TypeId::kBool: return f(uint8_t());
    case TypeId::kI8: return f(int8_t());
    case TypeId::kI16: return f(int16_t());
    case TypeId::kI32:
    case TypeId::kDate: return f(int32_t());
    case TypeId::kI64: return f(int64_t());
    case TypeId::kF64: return f(double());
    case TypeId::kStr: break;
  }
  return f(StrRef());
}

/// A typed cell array and its null flags (1 = NULL; nullptr: no NULLs):
/// a Vector's values or a RowBuffer column.
struct Cells {
  TypeId type;
  const void* data;
  const uint8_t* nulls;

  bool IsNull(int64_t i) const { return nulls != nullptr && nulls[i] != 0; }
  template <typename T>
  const T& at(int64_t i) const {
    return static_cast<const T*>(data)[i];
  }
};

/// Key equality of cell i of `a` and cell j of `b` (one type): NULL
/// equals NULL, otherwise the cell type's == (NaN equals nothing, -0.0
/// equals 0.0). Join and group-by keys compare with this.
inline bool EqualCells(const Cells& a, int64_t i, const Cells& b, int64_t j) {
  const bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an == bn;
  return VisitCellType(a.type, [&](auto t) {
    using T = decltype(t);
    return a.at<T>(i) == b.at<T>(j);
  });
}

/// Sort order of cell i of `a` and cell j of `b`, cells of C type T: -1,
/// 0 or 1. Ascending, numbers come first, then NaN, then NULL; -0.0 ties
/// 0.0. A loop that dispatches the type once calls this directly.
template <typename T>
int CompareCellsAs(const Cells& a, int64_t i, const Cells& b, int64_t j) {
  const bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an == bn ? 0 : (an ? 1 : -1);
  const T& x = a.at<T>(i);
  const T& y = b.at<T>(j);
  if constexpr (std::is_same_v<T, double>) {
    const bool xn = std::isnan(x), yn = std::isnan(y);
    if (xn || yn) return xn == yn ? 0 : (xn ? 1 : -1);
  }
  return x < y ? -1 : (y < x ? 1 : 0);
}

/// CompareCellsAs for cells of any one type.
inline int CompareCells(const Cells& a, int64_t i, const Cells& b, int64_t j) {
  return VisitCellType(a.type, [&](auto t) {
    return CompareCellsAs<decltype(t)>(a, i, b, j);
  });
}

class Vector {
 public:
  Vector(TypeId type, int capacity)
      : type_(type), capacity_(capacity), width_(TypeWidth(type)) {
    data_ = std::make_unique<uint8_t[]>(
        static_cast<size_t>(capacity_) * width_);
    if (type_ == TypeId::kStr) heap_ = std::make_unique<StringHeap>();
  }

  Vector(const Vector&) = delete;
  Vector& operator=(const Vector&) = delete;

  TypeId type() const { return type_; }
  int capacity() const { return capacity_; }

  /// Raw data access. T must match the vector's physical type.
  template <typename T>
  T* Data() {
    return reinterpret_cast<T*>(data_.get());
  }
  template <typename T>
  const T* Data() const {
    return reinterpret_cast<const T*>(data_.get());
  }
  void* RawData() { return data_.get(); }
  const void* RawData() const { return data_.get(); }

  /// Null-indicator column; allocated on first use. 1 = NULL. Re-arming
  /// after ClearNulls() starts from an all-clear buffer (stale flags from
  /// a previous batch must not resurrect).
  uint8_t* MutableNulls() {
    if (!nulls_) {
      nulls_ = std::make_unique<uint8_t[]>(capacity_);
      std::memset(nulls_.get(), 0, capacity_);
    } else if (!has_nulls_) {
      std::memset(nulls_.get(), 0, capacity_);
    }
    has_nulls_ = true;
    return nulls_.get();
  }
  const uint8_t* nulls() const { return nulls_.get(); }
  bool has_nulls() const { return has_nulls_; }

  /// Declares the vector NULL-free (does not free the buffer; cheap toggle).
  void ClearNulls() { has_nulls_ = false; }

  /// Marks position i NULL and stores the safe value.
  void SetNull(int i) {
    MutableNulls()[i] = 1;
    // Safe value so NULL-oblivious kernels stay well-defined.
    if (type_ == TypeId::kStr) {
      Data<StrRef>()[i] = StrRef("", 0);
    } else {
      std::memset(data_.get() + static_cast<size_t>(i) * width_, 0, width_);
    }
  }

  bool IsNull(int i) const { return has_nulls_ && nulls_[i] != 0; }

  /// The values and null flags, for EqualCells / CompareCells.
  Cells cells() const {
    return {type_, data_.get(), has_nulls_ ? nulls_.get() : nullptr};
  }

  /// String heap backing StrRef values (kStr vectors only).
  StringHeap* heap() { return heap_.get(); }

  /// Stores `v` (NULL, or a value of this vector's type) at position i;
  /// a string is copied into the heap.
  void SetValue(int i, const Value& v);
  /// The value at position i (NULL-aware).
  Value GetValue(int i) const;

  /// Copies `n` values (and null flags) of `src` into positions
  /// [dst_offset, dst_offset + n): positions [src_offset, src_offset + n),
  /// read through `sel` when it is non-null (sel[src_offset + j]).
  /// Strings are re-added to this vector's heap.
  void CopyFrom(const Vector& src, int src_offset, int n, int dst_offset,
                const sel_t* sel = nullptr);

  /// Byte footprint of the vector's buffers (memory accounting).
  size_t MemoryBytes() const {
    size_t b = static_cast<size_t>(capacity_) * width_;
    if (nulls_) b += capacity_;
    if (heap_) b += heap_->bytes_allocated();
    return b;
  }

 private:
  TypeId type_;
  int capacity_;
  int width_;
  std::unique_ptr<uint8_t[]> data_;
  std::unique_ptr<uint8_t[]> nulls_;
  bool has_nulls_ = false;
  std::unique_ptr<StringHeap> heap_;
};

/// The one conversion between a Value and a cell of a typed column array
/// (a Vector's or a RowBuffer's). Writes `v`, NULL or a value of `type`,
/// into `cell`: a string is copied into `heap`, and NULL writes the safe
/// value (zero bytes, or StrRef("", 0)).
void ValueToCell(const Value& v, TypeId type, void* cell, StringHeap* heap);
/// Reads the non-NULL `cell` of `type` as a Value.
Value CellToValue(TypeId type, const void* cell);

}  // namespace x100

#endif  // X100_VECTOR_VECTOR_H_
