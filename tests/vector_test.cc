// Unit tests for the vectorized data model: Vector, Batch, StringHeap,
// Schema, selection vectors, the two-column NULL representation and the
// RowBuffer row store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "vector/batch.h"
#include "vector/row_buffer.h"
#include "vector/schema.h"
#include "vector/string_heap.h"
#include "vector/vector.h"

namespace x100 {
namespace {

TEST(StringHeapTest, AddCopiesData) {
  StringHeap heap;
  std::string src = "hello";
  StrRef r = heap.Add(src);
  src[0] = 'X';  // mutate the source; heap copy must be unaffected
  EXPECT_EQ(r.ToString(), "hello");
}

TEST(StringHeapTest, GrowsAcrossChunks) {
  StringHeap heap(16);  // tiny chunks to force growth
  std::vector<StrRef> refs;
  for (int i = 0; i < 100; i++) {
    refs.push_back(heap.Add("string-" + std::to_string(i)));
  }
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(refs[i].ToString(), "string-" + std::to_string(i));
  }
}

TEST(StringHeapTest, ResetReclaims) {
  StringHeap heap;
  heap.Add("abcdef");
  EXPECT_GT(heap.bytes_allocated(), 0u);
  heap.Reset();
  EXPECT_EQ(heap.bytes_allocated(), 0u);
}

TEST(StringHeapTest, EmptyString) {
  StringHeap heap;
  StrRef r = heap.Add("");
  EXPECT_EQ(r.len, 0u);
  EXPECT_EQ(r.ToString(), "");
}

TEST(VectorTest, TypedAccess) {
  Vector v(TypeId::kI32, 8);
  int32_t* d = v.Data<int32_t>();
  for (int i = 0; i < 8; i++) d[i] = i * i;
  EXPECT_EQ(v.Data<int32_t>()[7], 49);
  EXPECT_EQ(v.type(), TypeId::kI32);
  EXPECT_EQ(v.capacity(), 8);
}

TEST(VectorTest, NullsLazyAndSafeValues) {
  Vector v(TypeId::kI64, 4);
  EXPECT_FALSE(v.has_nulls());
  int64_t* d = v.Data<int64_t>();
  d[0] = 11;
  d[1] = 22;
  v.SetNull(1);
  EXPECT_TRUE(v.has_nulls());
  EXPECT_TRUE(v.IsNull(1));
  EXPECT_FALSE(v.IsNull(0));
  // The paper's "safe value": NULL slot holds 0 so kernels stay defined.
  EXPECT_EQ(d[1], 0);
  EXPECT_EQ(d[0], 11);
}

TEST(VectorTest, ClearNullsIsCheapToggle) {
  Vector v(TypeId::kI32, 4);
  v.SetNull(2);
  EXPECT_TRUE(v.has_nulls());
  v.ClearNulls();
  EXPECT_FALSE(v.has_nulls());
  EXPECT_FALSE(v.IsNull(2));
}

TEST(VectorTest, StringVectorHasHeap) {
  Vector v(TypeId::kStr, 4);
  ASSERT_NE(v.heap(), nullptr);
  StrRef* d = v.Data<StrRef>();
  d[0] = v.heap()->Add("x100");
  EXPECT_EQ(d[0].ToString(), "x100");
  Vector iv(TypeId::kI32, 4);
  EXPECT_EQ(iv.heap(), nullptr);
}

TEST(VectorTest, SetNullOnStringGivesEmptySafeValue) {
  Vector v(TypeId::kStr, 4);
  StrRef* d = v.Data<StrRef>();
  d[1] = v.heap()->Add("junk");
  v.SetNull(1);
  EXPECT_EQ(d[1].len, 0u);
  EXPECT_TRUE(v.IsNull(1));
}

TEST(VectorTest, CopyFromFixedWidth) {
  Vector a(TypeId::kI32, 8), b(TypeId::kI32, 8);
  for (int i = 0; i < 8; i++) a.Data<int32_t>()[i] = i;
  a.SetNull(3);
  b.CopyFrom(a, 2, 4, 0);
  EXPECT_EQ(b.Data<int32_t>()[0], 2);
  EXPECT_EQ(b.Data<int32_t>()[1], 0);  // was NULL -> safe value
  EXPECT_EQ(b.Data<int32_t>()[2], 4);
  EXPECT_TRUE(b.IsNull(1));            // a[3] null -> b[1]
  EXPECT_FALSE(b.IsNull(0));
}

TEST(VectorTest, CopyFromStringsReAddsToOwnHeap) {
  Vector a(TypeId::kStr, 4), b(TypeId::kStr, 4);
  a.Data<StrRef>()[0] = a.heap()->Add("alpha");
  a.Data<StrRef>()[1] = a.heap()->Add("beta");
  b.CopyFrom(a, 0, 2, 1);
  a.heap()->Reset();  // invalidate source heap
  EXPECT_EQ(b.Data<StrRef>()[1].ToString(), "alpha");
  EXPECT_EQ(b.Data<StrRef>()[2].ToString(), "beta");
}

TEST(SchemaTest, FindField) {
  Schema s({Field("a", TypeId::kI32), Field("b", TypeId::kStr, true)});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.FindField("b"), 1);
  EXPECT_EQ(s.FindField("z"), -1);
  EXPECT_TRUE(s.field(1).nullable);
  EXPECT_EQ(s.ToString(), "(a i32, b str null)");
}

Schema TwoColSchema() {
  return Schema({Field("x", TypeId::kI32), Field("s", TypeId::kStr)});
}

TEST(BatchTest, ConstructionMatchesSchema) {
  Batch b(TwoColSchema(), 16);
  EXPECT_EQ(b.num_columns(), 2);
  EXPECT_EQ(b.capacity(), 16);
  EXPECT_EQ(b.column(0)->type(), TypeId::kI32);
  EXPECT_EQ(b.column(1)->type(), TypeId::kStr);
  EXPECT_EQ(b.ActiveRows(), 0);
}

TEST(BatchTest, SelectionVectorControlsActiveRows) {
  Batch b(TwoColSchema(), 16);
  b.set_rows(10);
  EXPECT_EQ(b.ActiveRows(), 10);
  sel_t* sel = b.MutableSel();
  sel[0] = 1;
  sel[1] = 4;
  sel[2] = 9;
  b.SetSelCount(3);
  EXPECT_TRUE(b.has_sel());
  EXPECT_EQ(b.ActiveRows(), 3);
  b.ClearSel();
  EXPECT_EQ(b.ActiveRows(), 10);
}

TEST(BatchTest, CompactGathersSelectedRows) {
  Schema schema = TwoColSchema();
  Batch b(schema, 8);
  for (int i = 0; i < 8; i++) {
    b.column(0)->Data<int32_t>()[i] = i * 10;
    b.column(1)->Data<StrRef>()[i] =
        b.column(1)->heap()->Add("s" + std::to_string(i));
  }
  b.column(0)->SetNull(4);
  b.set_rows(8);
  sel_t* sel = b.MutableSel();
  sel[0] = 1;
  sel[1] = 4;
  sel[2] = 7;
  b.SetSelCount(3);

  auto c = b.Compact(schema);
  EXPECT_EQ(c->rows(), 3);
  EXPECT_FALSE(c->has_sel());
  EXPECT_EQ(c->column(0)->Data<int32_t>()[0], 10);
  EXPECT_TRUE(c->column(0)->IsNull(1));
  EXPECT_EQ(c->column(0)->Data<int32_t>()[2], 70);
  EXPECT_EQ(c->column(1)->Data<StrRef>()[0].ToString(), "s1");
  EXPECT_EQ(c->column(1)->Data<StrRef>()[2].ToString(), "s7");
}

TEST(BatchTest, CompactWithoutSelectionCopiesAll) {
  Schema schema({Field("x", TypeId::kI64)});
  Batch b(schema, 4);
  for (int i = 0; i < 3; i++) b.column(0)->Data<int64_t>()[i] = i + 100;
  b.set_rows(3);
  auto c = b.Compact(schema);
  EXPECT_EQ(c->rows(), 3);
  EXPECT_EQ(c->column(0)->Data<int64_t>()[2], 102);
}

TEST(BatchTest, ResetClearsStateAndHeaps) {
  Schema schema = TwoColSchema();
  Batch b(schema, 4);
  b.column(1)->Data<StrRef>()[0] = b.column(1)->heap()->Add("zzz");
  b.column(0)->SetNull(0);
  b.set_rows(4);
  b.MutableSel()[0] = 0;
  b.SetSelCount(1);
  b.Reset();
  EXPECT_EQ(b.rows(), 0);
  EXPECT_FALSE(b.has_sel());
  EXPECT_FALSE(b.column(0)->has_nulls());
  EXPECT_EQ(b.column(1)->heap()->bytes_allocated(), 0u);
}

TEST(BatchTest, MemoryAccounting) {
  Schema schema({Field("x", TypeId::kI64)});
  Batch b(schema, 1024);
  // At least the data buffer + the selection buffer.
  EXPECT_GE(b.MemoryBytes(), 1024 * sizeof(int64_t) + 1024 * sizeof(sel_t));
}

// ---------------------------------------------------------------------------
// RowBuffer: every append path against a simple model of the store
// ---------------------------------------------------------------------------

using Rows = std::vector<std::vector<Value>>;

Schema StoreSchema() {
  return Schema({Field("b", TypeId::kBool, true),
                 Field("i8", TypeId::kI8, true),
                 Field("i16", TypeId::kI16, true),
                 Field("i32", TypeId::kI32, true),
                 Field("d", TypeId::kDate, true),
                 Field("i64", TypeId::kI64, true),
                 Field("f", TypeId::kF64, true),
                 Field("s", TypeId::kStr, true)});
}

/// Model rows over StoreSchema. Column c has its first NULL at row
/// kFirstNull[c] (-1: none), then a NULL at about one row in four.
Rows ModelRows(int n) {
  constexpr int kFirstNull[] = {5, -1, 0, 17, 33, -1, 2, 20};
  const Schema schema = StoreSchema();
  Rng rng(42);
  Rows rows(n);
  for (int r = 0; r < n; r++) {
    for (int c = 0; c < schema.num_fields(); c++) {
      const TypeId t = schema.field(c).type;
      const bool null = kFirstNull[c] >= 0 && r >= kFirstNull[c] &&
                        (r == kFirstNull[c] || rng.Uniform(0, 3) == 0);
      const int64_t x = rng.Uniform(INT64_MIN, INT64_MAX);
      if (null) {
        rows[r].push_back(Value::Null(t));
        continue;
      }
      switch (t) {
        case TypeId::kBool: rows[r].push_back(Value::Bool(x & 1)); break;
        case TypeId::kI8:
          rows[r].push_back(Value::I8(static_cast<int8_t>(x)));
          break;
        case TypeId::kI16:
          rows[r].push_back(Value::I16(static_cast<int16_t>(x)));
          break;
        case TypeId::kI32:
          rows[r].push_back(Value::I32(static_cast<int32_t>(x)));
          break;
        case TypeId::kDate:
          rows[r].push_back(Value::Date(static_cast<int32_t>(x % 40000)));
          break;
        case TypeId::kI64: rows[r].push_back(Value::I64(x)); break;
        case TypeId::kF64:
          rows[r].push_back(Value::F64(static_cast<double>(x) / 7.0));
          break;
        case TypeId::kStr:
          rows[r].push_back(Value::Str(
              std::string(static_cast<size_t>(x & 15), 'a' + r % 26)));
          break;
      }
    }
  }
  return rows;
}

/// The model's bytes of a cell of `type`: the value's little-endian
/// bytes, or zero bytes for NULL.
std::vector<uint8_t> ModelBytes(TypeId type, const Value& v) {
  std::vector<uint8_t> out(TypeWidth(type), 0);
  if (v.is_null()) return out;
  const int64_t i = type == TypeId::kF64 ? 0 : v.AsI64();
  const int8_t i8 = static_cast<int8_t>(i);
  const int16_t i16 = static_cast<int16_t>(i);
  const int32_t i32 = static_cast<int32_t>(i);
  const double f = type == TypeId::kF64 ? v.AsF64() : 0;
  switch (type) {
    case TypeId::kBool: out[0] = i != 0; break;
    case TypeId::kI8: std::memcpy(out.data(), &i8, 1); break;
    case TypeId::kI16: std::memcpy(out.data(), &i16, 2); break;
    case TypeId::kI32:
    case TypeId::kDate: std::memcpy(out.data(), &i32, 4); break;
    case TypeId::kI64: std::memcpy(out.data(), &i, 8); break;
    case TypeId::kF64: std::memcpy(out.data(), &f, 8); break;
    case TypeId::kStr: break;
  }
  return out;
}

/// A batch holding `rows`, with garbage under every NULL slot: the store
/// must write the safe value whatever the source slot holds.
std::unique_ptr<Batch> ModelBatch(const Rows& rows) {
  const Schema schema = StoreSchema();
  auto b = std::make_unique<Batch>(schema, static_cast<int>(rows.size()));
  for (int c = 0; c < schema.num_fields(); c++) {
    Vector* v = b->column(c);
    for (size_t r = 0; r < rows.size(); r++) {
      v->SetValue(static_cast<int>(r), rows[r][c]);
      if (!rows[r][c].is_null()) continue;
      if (v->type() == TypeId::kStr) {
        v->Data<StrRef>()[r] = v->heap()->Add("garbage");
      } else {
        std::memset(static_cast<uint8_t*>(v->RawData()) +
                        r * TypeWidth(v->type()),
                    0xAB, TypeWidth(v->type()));
      }
    }
  }
  b->set_rows(static_cast<int>(rows.size()));
  return b;
}

/// Checks `buf` against the model rows: each cell's bytes (the string
/// for kStr) and NULL flag. With `exact_flags`, a column has flags iff
/// one of its rows is NULL (flags from the first NULL on).
void ExpectModel(const RowBuffer& buf, const Rows& want,
                 const std::string& what, bool exact_flags = true) {
  ASSERT_EQ(buf.rows(), static_cast<int64_t>(want.size())) << what;
  for (int c = 0; c < buf.schema().num_fields(); c++) {
    const TypeId t = buf.schema().field(c).type;
    const size_t w = TypeWidth(t);
    bool any_null = false;
    for (const auto& row : want) any_null |= row[c].is_null();
    if (exact_flags) {
      EXPECT_EQ(buf.Nulls(c) != nullptr, any_null) << what << " col " << c;
    }
    for (size_t r = 0; r < want.size(); r++) {
      const Value& v = want[r][c];
      const std::string at = what + " row " + std::to_string(r) + " col " +
                             std::to_string(c);
      EXPECT_EQ(buf.IsNull(c, r), v.is_null()) << at;
      if (t == TypeId::kStr) {
        const StrRef s = buf.Col<StrRef>(c)[r];
        EXPECT_NE(s.data, nullptr) << at;
        EXPECT_EQ(s.view(), v.is_null() ? "" : v.AsStr()) << at;
        continue;
      }
      const uint8_t* cell = buf.Col<uint8_t>(c) + r * w;
      EXPECT_EQ(std::vector<uint8_t>(cell, cell + w), ModelBytes(t, v)) << at;
    }
  }
}

Rows Pick(const Rows& rows, const std::vector<int64_t>& at) {
  Rows out;
  for (int64_t r : at) out.push_back(rows[r]);
  return out;
}

TEST(RowBufferTest, EveryAppendPathMatchesTheModel) {
  const Rows model = ModelRows(40);
  const auto batch = ModelBatch(model);
  const std::vector<const Vector*> cols = batch->columns();
  const Schema schema = StoreSchema();
  {
    RowBuffer buf(schema);
    buf.Append(cols, nullptr, 0, 40);
    ExpectModel(buf, model, "dense");
  }
  {
    std::vector<sel_t> sel;
    std::vector<int64_t> picked;
    for (int r = 0; r < 40; r++) {
      if (r % 3 == 1) continue;
      sel.push_back(r);
      picked.push_back(r);
    }
    RowBuffer buf(schema);
    buf.Append(cols, sel.data(), 0, static_cast<int>(sel.size()));
    ExpectModel(buf, Pick(model, picked), "selection");
    RowBuffer part(schema);
    part.Append(cols, sel.data(), 4, 9);
    ExpectModel(part,
                Pick(model, std::vector<int64_t>(picked.begin() + 4,
                                                 picked.begin() + 13)),
                "selection from 4");
  }
  {
    RowBuffer buf(schema);
    buf.Append(cols, nullptr, 0, 7);
    buf.Append(cols, nullptr, 7, 20);
    buf.Append(cols, nullptr, 27, 13);
    ExpectModel(buf, model, "split across calls");
  }
  {
    RowBuffer buf(schema);
    for (int r = 0; r < 40; r++) buf.Append(cols, nullptr, r, 1);
    ExpectModel(buf, model, "one row at a time");
  }
  RowBuffer src(schema);
  src.Append(cols, nullptr, 0, 40);
  {
    RowBuffer buf(schema);
    buf.AppendFrom(src);
    ExpectModel(buf, model, "AppendFrom all");
    // Onto rows without flags yet: the first NULLs arrive from `src`.
    RowBuffer grown(schema);
    const Rows head = Pick(model, {1, 1, 1});
    for (const auto& row : head) grown.AppendValues(row);
    grown.AppendFrom(src);
    Rows want = head;
    want.insert(want.end(), model.begin(), model.end());
    ExpectModel(grown, want, "AppendFrom all after AppendValues");
  }
  {
    const std::vector<int64_t> list = {39, 0, 17, 17, 5, 33, 1};
    RowBuffer buf(schema);
    buf.AppendFrom(src, list.data(), static_cast<int64_t>(list.size()));
    ExpectModel(buf, Pick(model, list), "AppendFrom row list");
    RowBuffer no_nulls(schema);
    const std::vector<int64_t> clean = {1, 1};
    no_nulls.AppendFrom(src, clean.data(), 2);
    ExpectModel(no_nulls, Pick(model, clean), "AppendFrom NULL-free rows");
  }
  {
    RowBuffer buf(schema);
    for (const auto& row : model) buf.AppendValues(row);
    ExpectModel(buf, model, "AppendValues");
    for (int c = 0; c < schema.num_fields(); c++) {
      for (int r = 0; r < 40; r++) {
        const Value got = buf.GetValue(c, r);
        EXPECT_EQ(got.is_null(), model[r][c].is_null());
        if (!got.is_null()) {
          EXPECT_TRUE(got.SqlEquals(model[r][c]));
        }
      }
    }
  }
}

TEST(RowBufferTest, NullFlagsStartAtTheFirstNull) {
  const Schema schema({Field("x", TypeId::kI64, true),
                       Field("s", TypeId::kStr, true)});
  Batch b(schema, 8);
  for (int i = 0; i < 8; i++) {
    b.column(0)->Data<int64_t>()[i] = 100 + i;
    b.column(1)->Data<StrRef>()[i] = b.column(1)->heap()->Add("v");
  }
  b.set_rows(8);
  const std::vector<const Vector*> cols = b.columns();
  auto flags = [](const RowBuffer& buf, int c) {
    return std::vector<uint8_t>(buf.Nulls(c), buf.Nulls(c) + buf.rows());
  };
  // After k rows: four rows without flags, then a NULL row.
  RowBuffer after_k(schema);
  after_k.Append(cols, nullptr, 0, 4);
  EXPECT_EQ(after_k.Nulls(0), nullptr);
  after_k.AppendValues({Value::Null(TypeId::kI64), Value::Null(TypeId::kStr)});
  EXPECT_EQ(flags(after_k, 0), (std::vector<uint8_t>{0, 0, 0, 0, 1}));
  EXPECT_EQ(flags(after_k, 1), (std::vector<uint8_t>{0, 0, 0, 0, 1}));
  // Mid-batch: one call whose fourth row is NULL.
  b.column(0)->SetNull(3);
  b.column(1)->SetNull(3);
  RowBuffer mid(schema);
  mid.Append(cols, nullptr, 0, 6);
  EXPECT_EQ(flags(mid, 0), (std::vector<uint8_t>{0, 0, 0, 1, 0, 0}));
  // In a later call: three clean rows, then a call starting at the NULL.
  RowBuffer later(schema);
  later.Append(cols, nullptr, 0, 3);
  EXPECT_EQ(later.Nulls(0), nullptr);
  EXPECT_EQ(later.Nulls(1), nullptr);
  later.Append(cols, nullptr, 3, 2);
  EXPECT_EQ(flags(later, 0), (std::vector<uint8_t>{0, 0, 0, 1, 0}));
  for (const RowBuffer* buf : {&after_k, &mid, &later}) {
    const int64_t r = buf == &after_k ? 4 : 3;
    EXPECT_EQ(buf->Col<int64_t>(0)[r], 0);
    const StrRef s = buf->Col<StrRef>(1)[r];
    EXPECT_NE(s.data, nullptr);
    EXPECT_EQ(s.len, 0u);
  }
}

TEST(RowBufferTest, StringsSurviveAResetOfTheSourceHeap) {
  const Schema schema({Field("s", TypeId::kStr)});
  Vector v(TypeId::kStr, 4);
  for (int i = 0; i < 4; i++) {
    v.Data<StrRef>()[i] = v.heap()->Add("row-" + std::to_string(i) +
                                        std::string(30, 'x'));
  }
  RowBuffer buf(schema);
  buf.Append({&v}, nullptr, 0, 4);
  v.heap()->Reset();
  for (int i = 0; i < 4; i++) {
    v.Data<StrRef>()[i] = v.heap()->Add(std::string(36, 'z'));
  }
  auto copy = std::make_unique<RowBuffer>(schema);
  copy->AppendFrom(buf);
  for (int i = 0; i < 4; i++) {
    const std::string want = "row-" + std::to_string(i) + std::string(30, 'x');
    EXPECT_EQ(buf.Col<StrRef>(0)[i].view(), want);
    EXPECT_EQ(copy->Col<StrRef>(0)[i].view(), want);
  }
}

TEST(RowBufferTest, SerializeRoundTripsInRowAndPermutedOrder) {
  const Rows model = ModelRows(40);
  const auto batch = ModelBatch(model);
  RowBuffer buf(StoreSchema());
  buf.Append(batch->columns(), nullptr, 0, 40);

  std::vector<uint8_t> blob;
  buf.Serialize(nullptr, 0, buf.rows(), &blob);
  auto rt = RowBuffer::Deserialize(StoreSchema(), blob.data(), blob.size());
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  ExpectModel(**rt, model, "row order");

  std::vector<int64_t> order(40);
  for (int64_t i = 0; i < 40; i++) order[i] = (i * 17 + 3) % 40;
  std::vector<uint8_t> slice;
  buf.Serialize(order.data(), 5, 30, &slice);
  auto st = RowBuffer::Deserialize(StoreSchema(), slice.data(), slice.size());
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  // A slice carries its column's flags whether or not it holds a NULL.
  ExpectModel(**st,
              Pick(model, std::vector<int64_t>(order.begin() + 5,
                                               order.begin() + 30)),
              "permuted slice", /*exact_flags=*/false);

  // Every strict prefix of a blob is truncated.
  for (size_t cut = 0; cut < blob.size(); cut++) {
    auto bad = RowBuffer::Deserialize(StoreSchema(), blob.data(), cut);
    ASSERT_FALSE(bad.ok()) << "cut " << cut;
    EXPECT_EQ(bad.status().code(), StatusCode::kIoError) << "cut " << cut;
  }
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(RowBufferTest, SpillBytesArePinned) {
  // A fixed buffer of every type, with NULLs, an empty string and strings
  // of several lengths. The hashes were recorded from the spill format
  // before the row store moved to vector/; a change here changes the
  // bytes every breaker spills.
  const Schema schema({Field("b", TypeId::kBool, true),
                       Field("i8", TypeId::kI8),
                       Field("i16", TypeId::kI16, true),
                       Field("i32", TypeId::kI32),
                       Field("d", TypeId::kDate, true),
                       Field("i64", TypeId::kI64),
                       Field("f", TypeId::kF64, true),
                       Field("s", TypeId::kStr, true)});
  Batch b(schema, 16);
  for (int i = 0; i < 12; i++) {
    b.column(0)->Data<uint8_t>()[i] = i % 2;
    b.column(1)->Data<int8_t>()[i] = static_cast<int8_t>(i * 3 - 20);
    b.column(2)->Data<int16_t>()[i] = static_cast<int16_t>(i * 1000 - 5000);
    b.column(3)->Data<int32_t>()[i] = i * 100000;
    b.column(4)->Data<int32_t>()[i] = 9000 + i;
    b.column(5)->Data<int64_t>()[i] = i * 1000000000007LL - 3;
    b.column(6)->Data<double>()[i] = i * 0.25 - 1.5;
    const std::string s = i == 3 ? "" : "s" + std::string(i, 'a' + i);
    b.column(7)->Data<StrRef>()[i] = b.column(7)->heap()->Add(s);
  }
  b.column(0)->SetNull(7);
  for (int i = 1; i < 12; i += 4) b.column(2)->SetNull(i);
  b.column(4)->SetNull(0);
  b.column(6)->SetNull(11);
  b.column(7)->SetNull(5);
  b.column(7)->SetNull(9);
  b.set_rows(12);
  RowBuffer buf(schema);
  buf.Append(b.columns(), nullptr, 0, 12);

  std::vector<uint8_t> all, slice;
  buf.Serialize(nullptr, 0, buf.rows(), &all);
  const std::vector<int64_t> order = {11, 0, 5, 3, 7};
  buf.Serialize(order.data(), 0, 5, &slice);
  EXPECT_EQ(all.size(), 518u);
  EXPECT_EQ(Fnv1a(all), 0x8f2e214056ce9dd8ULL);
  EXPECT_EQ(slice.size(), 222u);
  EXPECT_EQ(Fnv1a(slice), 0xf8cb1546b3352e05ULL);
}

}  // namespace
}  // namespace x100
