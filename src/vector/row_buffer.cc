// RowBuffer appends and its spill serialization, the byte format pipeline
// breakers write through SpillFile when a memory reservation fails.
//
// Layout (all little-endian, matching the in-memory representation):
//   i64  rows
//   per column (schema order):
//     u8   has_nulls
//     [rows bytes of null flags when has_nulls]
//     kStr column:   per row { u32 len, len payload bytes } (NULL rows
//                    write len 0) — StrRef pointers never hit disk.
//     other columns: rows * TypeWidth raw cell bytes
// The schema itself is not serialized: the reloading site always knows it
// (it constructed the spilled buffer), and spilled blobs never outlive
// their query. Deserialize treats every length field as untrusted
// (common/pod_serde.h): corrupt blobs fail with kIoError, never fault.
#include "vector/row_buffer.h"

#include <cstring>
#include <string_view>

#include "common/pod_serde.h"

namespace x100 {

template <typename At>
void RowBuffer::AppendCells(int c, const void* src, const uint8_t* src_nulls,
                            bool dense, At at, int64_t n) {
  Column& col = cols_[c];
  const TypeId type = schema_.field(c).type;
  const size_t w = TypeWidth(type);
  bool null_seen = false;
  for (int64_t j = 0; src_nulls != nullptr && j < n; j++) {
    null_seen |= src_nulls[at(j)] != 0;
  }
  if (null_seen || !col.nulls.empty()) {
    // The first NULL turns the flags on, clear for the rows before it.
    col.nulls.resize(static_cast<size_t>(rows_ + n), 0);
    uint8_t* flags = col.nulls.data() + rows_;
    for (int64_t j = 0; null_seen && j < n; j++) {
      flags[j] = src_nulls[at(j)] != 0 ? 1 : 0;
    }
  }
  const size_t off = col.data.size();
  col.data.resize(off + static_cast<size_t>(n) * w);
  uint8_t* dst = col.data.data() + off;
  if (type == TypeId::kStr) {
    const auto* refs = static_cast<const StrRef*>(src);
    auto* out = reinterpret_cast<StrRef*>(dst);
    for (int64_t j = 0; j < n; j++) {
      const int64_t i = at(j);
      out[j] = null_seen && src_nulls[i] != 0 ? StrRef("", 0)
                                              : heap_.Add(refs[i].view());
    }
    return;
  }
  const auto* bytes = static_cast<const uint8_t*>(src);
  if (dense) {
    std::memcpy(dst, bytes + static_cast<size_t>(at(0)) * w,
                static_cast<size_t>(n) * w);
  } else {
    for (int64_t j = 0; j < n; j++) {
      std::memcpy(dst + j * w, bytes + static_cast<size_t>(at(j)) * w, w);
    }
  }
  for (int64_t j = 0; null_seen && j < n; j++) {
    if (src_nulls[at(j)] != 0) std::memset(dst + j * w, 0, w);
  }
}

void RowBuffer::Append(const std::vector<const Vector*>& cols,
                       const sel_t* sel, int from, int n) {
  if (n <= 0) return;
  const auto at = [sel, from](int64_t j) -> int64_t {
    return sel != nullptr ? sel[from + j] : from + j;
  };
  for (int c = 0; c < schema_.num_fields(); c++) {
    const Vector& v = *cols[c];
    AppendCells(c, v.RawData(), v.has_nulls() ? v.nulls() : nullptr,
                sel == nullptr, at, n);
  }
  rows_ += n;
}

void RowBuffer::AppendFrom(const RowBuffer& other, const int64_t* rows,
                           int64_t n) {
  if (rows == nullptr) n = other.rows_;
  if (n <= 0) return;
  const auto at = [rows](int64_t j) { return rows != nullptr ? rows[j] : j; };
  for (int c = 0; c < schema_.num_fields(); c++) {
    AppendCells(c, other.cols_[c].data.data(), other.Nulls(c),
                rows == nullptr, at, n);
  }
  rows_ += n;
}

void RowBuffer::AppendValues(const std::vector<Value>& row) {
  for (int c = 0; c < schema_.num_fields(); c++) {
    Column& col = cols_[c];
    const TypeId type = schema_.field(c).type;
    if (row[c].is_null() || !col.nulls.empty()) {
      col.nulls.resize(static_cast<size_t>(rows_), 0);
      col.nulls.push_back(row[c].is_null() ? 1 : 0);
    }
    const size_t off = col.data.size();
    col.data.resize(off + TypeWidth(type));
    ValueToCell(row[c], type, col.data.data() + off, &heap_);
  }
  rows_++;
}

void RowBuffer::Gather(int c, const int64_t* rows, int64_t from, int n,
                       Vector* out, int out_pos) const {
  if (n <= 0) return;
  const Column& col = cols_[c];
  const auto at = [rows, from](int64_t j) {
    return rows != nullptr ? rows[from + j] : from + j;
  };
  VisitCellType(schema_.field(c).type, [&](auto t) {
    using T = decltype(t);
    const T* in = reinterpret_cast<const T*>(col.data.data());
    T* dst = out->Data<T>() + out_pos;
    if constexpr (std::is_same_v<T, StrRef>) {
      for (int j = 0; j < n; j++) dst[j] = out->heap()->Add(in[at(j)].view());
    } else if (rows == nullptr) {
      std::memcpy(dst, in + from, static_cast<size_t>(n) * sizeof(T));
    } else {
      for (int j = 0; j < n; j++) dst[j] = in[rows[from + j]];
    }
  });
  if (!col.nulls.empty()) {
    uint8_t* flags = out->MutableNulls() + out_pos;
    for (int j = 0; j < n; j++) flags[j] = col.nulls[at(j)];
  } else if (out->has_nulls()) {
    std::memset(out->MutableNulls() + out_pos, 0, n);
  }
}

Value RowBuffer::GetValue(int c, int64_t row) const {
  const TypeId type = schema_.field(c).type;
  if (IsNull(c, row)) return Value::Null(type);
  return CellToValue(
      type, cols_[c].data.data() + static_cast<size_t>(row) * TypeWidth(type));
}

size_t RowBuffer::MemoryBytes() const {
  size_t b = heap_.bytes_allocated();
  for (const Column& c : cols_) b += c.data.capacity() + c.nulls.capacity();
  return b;
}

void RowBuffer::Serialize(const int64_t* order, int64_t begin, int64_t end,
                          std::vector<uint8_t>* out) const {
  const auto row = [order](int64_t i) { return order ? order[i] : i; };
  serde::AppendPod<int64_t>(out, end - begin);
  for (int c = 0; c < schema_.num_fields(); c++) {
    const Column& col = cols_[c];
    const size_t w = TypeWidth(schema_.field(c).type);
    serde::AppendPod<uint8_t>(out, col.nulls.empty() ? 0 : 1);
    if (!col.nulls.empty() && order == nullptr) {
      out->insert(out->end(), col.nulls.begin() + begin,
                  col.nulls.begin() + end);
    } else if (!col.nulls.empty()) {
      for (int64_t i = begin; i < end; i++) out->push_back(col.nulls[row(i)]);
    }
    if (schema_.field(c).type == TypeId::kStr) {
      // NULL slots hold StrRef("", 0): they write length 0.
      for (int64_t i = begin; i < end; i++) {
        const std::string_view sv = Col<StrRef>(c)[row(i)].view();
        serde::AppendPod<uint32_t>(out, static_cast<uint32_t>(sv.size()));
        const auto* p = reinterpret_cast<const uint8_t*>(sv.data());
        out->insert(out->end(), p, p + sv.size());
      }
    } else if (order == nullptr) {
      out->insert(out->end(), col.data.begin() + begin * w,
                  col.data.begin() + end * w);
    } else {
      for (int64_t i = begin; i < end; i++) {
        const uint8_t* p = col.data.data() + static_cast<size_t>(row(i)) * w;
        out->insert(out->end(), p, p + w);
      }
    }
  }
}

Result<std::unique_ptr<RowBuffer>> RowBuffer::Deserialize(
    const Schema& schema, const uint8_t* data, size_t size) {
  const Status corrupt =
      Status::IoError("corrupt spill blob: truncated row buffer");
  serde::Reader in{data, size};
  int64_t rows;
  if (!in.TakePod(&rows) || rows < 0) return corrupt;
  // A row count no blob of this size could hold is corruption; rejecting
  // it here keeps every per-row loop below bounded by the blob itself.
  if (static_cast<uint64_t>(rows) > in.remaining()) return corrupt;
  auto buf = std::make_unique<RowBuffer>(schema);
  for (int c = 0; c < schema.num_fields(); c++) {
    Column& col = buf->cols_[c];
    uint8_t has_nulls;
    if (!in.TakePod(&has_nulls)) return corrupt;
    if (has_nulls && !in.TakePodVec(static_cast<size_t>(rows), &col.nulls)) {
      return corrupt;
    }
    const size_t w = TypeWidth(schema.field(c).type);
    if (schema.field(c).type != TypeId::kStr) {
      if (!in.TakePodVec(static_cast<size_t>(rows) * w, &col.data)) {
        return corrupt;
      }
      continue;
    }
    col.data.resize(static_cast<size_t>(rows) * w);
    auto* refs = reinterpret_cast<StrRef*>(col.data.data());
    for (int64_t r = 0; r < rows; r++) {
      uint32_t len;
      const uint8_t* p = nullptr;
      if (!in.TakePod(&len) || !in.Take(len, &p)) return corrupt;
      const bool null = has_nulls && col.nulls[r] != 0;
      refs[r] = buf->heap_.Add(
          null ? std::string_view()
               : std::string_view(reinterpret_cast<const char*>(p), len));
    }
  }
  buf->rows_ = rows;
  return buf;
}

}  // namespace x100
