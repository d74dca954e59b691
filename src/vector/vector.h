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
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/types.h"
#include "vector/string_heap.h"

namespace x100 {

class Value;  // common/value.h

/// Index type of selection vectors.
using sel_t = int32_t;

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

  /// String heap backing StrRef values (kStr vectors only).
  StringHeap* heap() { return heap_.get(); }

  /// Stores `v` (NULL, or a value of this vector's type) at position i;
  /// a string is copied into the heap.
  void SetValue(int i, const Value& v);
  /// The value at position i (NULL-aware).
  Value GetValue(int i) const;

  /// Copies `n` values (and null flags) from `src` starting at src_offset.
  /// Strings are re-added to this vector's heap.
  void CopyFrom(const Vector& src, int src_offset, int n, int dst_offset);

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
