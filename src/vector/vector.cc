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
  if (v.is_null()) {
    SetNull(i);
    return;
  }
  switch (type_) {
    case TypeId::kBool: Data<uint8_t>()[i] = v.AsBool() ? 1 : 0; break;
    case TypeId::kI8: Data<int8_t>()[i] = static_cast<int8_t>(v.AsI64()); break;
    case TypeId::kI16:
      Data<int16_t>()[i] = static_cast<int16_t>(v.AsI64());
      break;
    case TypeId::kI32:
    case TypeId::kDate:
      Data<int32_t>()[i] = static_cast<int32_t>(v.AsI64());
      break;
    case TypeId::kI64: Data<int64_t>()[i] = v.AsI64(); break;
    case TypeId::kF64: Data<double>()[i] = v.AsF64(); break;
    case TypeId::kStr: Data<StrRef>()[i] = heap_->Add(v.AsStr()); break;
  }
  if (has_nulls_) nulls_[i] = 0;
}

}  // namespace x100
