#include "vector/vector.h"

#include "common/value.h"

namespace x100 {

void Vector::CopyFrom(const Vector& src, int src_offset, int n,
                      int dst_offset, const sel_t* sel) {
  assert(src.type_ == type_);
  assert(dst_offset + n <= capacity_);
  const auto at = [sel, src_offset](int j) {
    return sel != nullptr ? sel[src_offset + j] : src_offset + j;
  };
  VisitCellType(type_, [&](auto t) {
    using T = decltype(t);
    const T* in = src.Data<T>();
    T* out = Data<T>() + dst_offset;
    if constexpr (std::is_same_v<T, StrRef>) {
      for (int j = 0; j < n; j++) out[j] = heap_->Add(in[at(j)].view());
    } else if (sel == nullptr) {
      std::memcpy(out, in + src_offset, static_cast<size_t>(n) * sizeof(T));
    } else {
      for (int j = 0; j < n; j++) out[j] = in[sel[src_offset + j]];
    }
  });
  if (src.has_nulls_) {
    uint8_t* nd = MutableNulls() + dst_offset;
    for (int j = 0; j < n; j++) nd[j] = src.nulls_[at(j)];
  } else if (has_nulls_) {
    std::memset(nulls_.get() + dst_offset, 0, n);
  }
}

void Vector::SetValue(int i, const Value& v) {
  ValueToCell(v, type_, data_.get() + static_cast<size_t>(i) * width_,
              heap_.get());
  if (v.is_null()) {
    MutableNulls()[i] = 1;
  } else if (has_nulls_) {
    nulls_[i] = 0;
  }
}

Value Vector::GetValue(int i) const {
  if (IsNull(i)) return Value::Null(type_);
  return CellToValue(type_, data_.get() + static_cast<size_t>(i) * width_);
}

void ValueToCell(const Value& v, TypeId type, void* cell, StringHeap* heap) {
  if (v.is_null()) {
    if (type == TypeId::kStr) {
      *static_cast<StrRef*>(cell) = StrRef("", 0);
    } else {
      std::memset(cell, 0, TypeWidth(type));
    }
    return;
  }
  switch (type) {
    case TypeId::kBool:
      *static_cast<uint8_t*>(cell) = v.AsBool() ? 1 : 0;
      break;
    case TypeId::kI8:
      *static_cast<int8_t*>(cell) = static_cast<int8_t>(v.AsI64());
      break;
    case TypeId::kI16:
      *static_cast<int16_t*>(cell) = static_cast<int16_t>(v.AsI64());
      break;
    case TypeId::kI32:
    case TypeId::kDate:
      *static_cast<int32_t*>(cell) = static_cast<int32_t>(v.AsI64());
      break;
    case TypeId::kI64: *static_cast<int64_t*>(cell) = v.AsI64(); break;
    case TypeId::kF64: *static_cast<double*>(cell) = v.AsF64(); break;
    case TypeId::kStr:
      *static_cast<StrRef*>(cell) = heap->Add(v.AsStr());
      break;
  }
}

Value CellToValue(TypeId type, const void* cell) {
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(*static_cast<const uint8_t*>(cell) != 0);
    case TypeId::kI8: return Value::I8(*static_cast<const int8_t*>(cell));
    case TypeId::kI16: return Value::I16(*static_cast<const int16_t*>(cell));
    case TypeId::kI32: return Value::I32(*static_cast<const int32_t*>(cell));
    case TypeId::kDate: return Value::Date(*static_cast<const int32_t*>(cell));
    case TypeId::kI64: return Value::I64(*static_cast<const int64_t*>(cell));
    case TypeId::kF64: return Value::F64(*static_cast<const double*>(cell));
    case TypeId::kStr:
      return Value::Str(static_cast<const StrRef*>(cell)->ToString());
  }
  return Value::Null(type);
}

}  // namespace x100
