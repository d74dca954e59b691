#include "vector/vector.h"

#include "common/value.h"

namespace x100 {

void Vector::CopyFrom(const Vector& src, int src_offset, int n,
                      int dst_offset) {
  assert(src.type_ == type_);
  assert(dst_offset + n <= capacity_);
  if (type_ == TypeId::kStr) {
    const StrRef* in = src.Data<StrRef>() + src_offset;
    StrRef* out = Data<StrRef>() + dst_offset;
    for (int i = 0; i < n; i++) out[i] = heap_->Add(in[i].view());
  } else {
    std::memcpy(data_.get() + static_cast<size_t>(dst_offset) * width_,
                src.data_.get() + static_cast<size_t>(src_offset) * width_,
                static_cast<size_t>(n) * width_);
  }
  if (src.has_nulls_) {
    uint8_t* nd = MutableNulls();
    std::memcpy(nd + dst_offset, src.nulls_.get() + src_offset, n);
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
