// Execution engine tests: expression programs, scans (with PDT merge and
// MinMax skipping), filters, projections, all join flavors (including the
// NULL-semantics anti joins of §"NULL intricacies"), aggregation, sort,
// the root drain over parallel chains, cancellation, and scans checked
// against a model of random update histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "exec/select_project.h"
#include "exec/sort.h"
#include "exec/values.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "pdt/transaction.h"
#include "pdt/view.h"
#include "storage/morsel.h"
#include "storage/simulated_disk.h"
#include "storage/spill_device.h"

namespace x100 {
namespace {

// ---------------------------------------------------------------------------
// Expression programs
// ---------------------------------------------------------------------------

class ExprTest : public ::testing::Test {
 protected:
  Schema schema_{{Field("a", TypeId::kI64), Field("b", TypeId::kI64),
                  Field("f", TypeId::kF64), Field("s", TypeId::kStr),
                  Field("n", TypeId::kI64, /*nullable=*/true)}};

  std::unique_ptr<Batch> MakeBatch(int n) {
    auto b = std::make_unique<Batch>(schema_, 64);
    for (int i = 0; i < n; i++) {
      b->column(0)->Data<int64_t>()[i] = i;
      b->column(1)->Data<int64_t>()[i] = i * 10;
      b->column(2)->Data<double>()[i] = i * 0.5;
      b->column(3)->Data<StrRef>()[i] =
          b->column(3)->heap()->Add("row" + std::to_string(i));
      if (i % 3 == 0) {
        b->column(4)->SetNull(i);
      } else {
        b->column(4)->Data<int64_t>()[i] = i;
      }
    }
    b->set_rows(n);
    return b;
  }

  Result<const Vector*> Run(ExprPtr e, Batch& batch) {
    ExprPtr bound;
    X100_ASSIGN_OR_RETURN(bound, BindExpr(e, schema_));
    std::unique_ptr<ExprProgram> prog;
    X100_ASSIGN_OR_RETURN(prog, ExprProgram::Compile(bound, 64));
    program_keepalive_.push_back(std::move(prog));
    return program_keepalive_.back()->Eval(batch);
  }

  std::vector<std::unique_ptr<ExprProgram>> program_keepalive_;
};

TEST_F(ExprTest, ArithmeticChain) {
  auto b = MakeBatch(10);
  // (a + b) * 2
  auto r = Run(Mul(Add(Col("a"), Col("b")), Lit(Value::I64(2))), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<int64_t>()[4], (4 + 40) * 2);
  EXPECT_EQ((*r)->Data<int64_t>()[9], (9 + 90) * 2);
}

TEST_F(ExprTest, ConstantOfEveryTypeFillsEveryPosition) {
  // A constant program broadcasts its value into every live position; a
  // string is one heap copy that every slot shares.
  const Value consts[] = {Value::Bool(true),   Value::I8(-7),
                          Value::I16(-300),    Value::I32(123456),
                          Value::Date(9131),   Value::I64(int64_t{1} << 40),
                          Value::F64(-2.5),    Value::Str("broadcast")};
  for (const int rows : {1, 37, 64}) {
    auto b = MakeBatch(rows);
    for (const Value& c : consts) {
      auto r = Run(Lit(c), *b);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const Vector* v = *r;
      ASSERT_EQ(v->type(), c.type());
      for (int i = 0; i < rows; i++) {
        ASSERT_TRUE(v->GetValue(i).SqlEquals(c))
            << TypeName(c.type()) << " rows=" << rows << " position " << i
            << ": " << v->GetValue(i).ToString();
        if (c.type() == TypeId::kStr) {
          EXPECT_EQ(v->Data<StrRef>()[i].data, v->Data<StrRef>()[0].data);
        }
      }
    }
  }
}

TEST_F(ExprTest, MixedTypePromotion) {
  auto b = MakeBatch(4);
  // a (i64) + f (f64) -> f64
  auto r = Run(Add(Col("a"), Col("f")), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), TypeId::kF64);
  EXPECT_DOUBLE_EQ((*r)->Data<double>()[3], 3 + 1.5);
}

TEST_F(ExprTest, ComparisonYieldsBool) {
  auto b = MakeBatch(6);
  auto r = Run(Ge(Col("a"), Lit(Value::I64(3))), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), TypeId::kBool);
  EXPECT_EQ((*r)->Data<uint8_t>()[2], 0);
  EXPECT_EQ((*r)->Data<uint8_t>()[3], 1);
}

TEST_F(ExprTest, NullPropagationTwoColumn) {
  auto b = MakeBatch(6);
  // n + 1: NULL rows stay NULL via the indicator column; values computed
  // NULL-obliviously over safe values.
  auto r = Run(Add(Col("n"), Lit(Value::I64(1))), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->has_nulls());
  EXPECT_TRUE((*r)->IsNull(0));
  EXPECT_TRUE((*r)->IsNull(3));
  EXPECT_FALSE((*r)->IsNull(1));
  EXPECT_EQ((*r)->Data<int64_t>()[1], 2);
}

TEST_F(ExprTest, IsNullMaterializesIndicator) {
  auto b = MakeBatch(6);
  auto r = Run(Call("isnull", {Col("n")}), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<uint8_t>()[0], 1);
  EXPECT_EQ((*r)->Data<uint8_t>()[1], 0);
  auto r2 = Run(Call("isnotnull", {Col("n")}), *b);
  EXPECT_EQ((*r2)->Data<uint8_t>()[0], 0);
  EXPECT_EQ((*r2)->Data<uint8_t>()[1], 1);
}

TEST_F(ExprTest, DivisionByZeroSurfacesError) {
  auto b = MakeBatch(4);
  auto r = Run(Div(Col("b"), Col("a")), *b);  // a[0] == 0
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDivisionByZero());
}

TEST_F(ExprTest, OverflowSurfacesError) {
  auto b = MakeBatch(4);
  auto r = Run(Mul(Add(Col("a"), Lit(Value::I64(1ll << 62))),
                   Lit(Value::I64(4))),
               *b);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOverflow());
}

TEST_F(ExprTest, StringFunctions) {
  auto b = MakeBatch(3);
  auto r = Run(Call("upper", {Col("s")}), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<StrRef>()[1].ToString(), "ROW1");
  auto r2 = Run(Call("concat", {Col("s"), Lit(Value::Str("!"))}), *b);
  EXPECT_EQ((*r2)->Data<StrRef>()[2].ToString(), "row2!");
}

TEST_F(ExprTest, SelectionVectorSparseEvaluation) {
  auto b = MakeBatch(8);
  sel_t* sel = b->MutableSel();
  sel[0] = 2;
  sel[1] = 5;
  b->SetSelCount(2);
  auto r = Run(Add(Col("a"), Col("b")), *b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Data<int64_t>()[2], 22);
  EXPECT_EQ((*r)->Data<int64_t>()[5], 55);
}

TEST_F(ExprTest, UnknownColumnFailsBinding) {
  auto b = MakeBatch(1);
  auto r = Run(Col("zzz"), *b);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Operators over in-memory values
// ---------------------------------------------------------------------------

Schema KV() {
  return Schema({Field("k", TypeId::kI64), Field("v", TypeId::kStr)});
}

std::vector<std::vector<Value>> KvRows(
    std::initializer_list<std::pair<int64_t, const char*>> rows) {
  std::vector<std::vector<Value>> out;
  for (const auto& [k, v] : rows) {
    out.push_back({Value::I64(k), Value::Str(v)});
  }
  return out;
}

TEST(ValuesOpTest, ProducesRows) {
  ExecContext ctx;
  ValuesOp op(KV(), KvRows({{1, "a"}, {2, "b"}, {3, "c"}}));
  auto res = CollectRows(&op, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->rows[1][0].AsI64(), 2);
  EXPECT_EQ(res->rows[2][1].AsStr(), "c");
}

TEST(SelectOpTest, FiltersWithSelectionVector) {
  ExecContext ctx;
  auto values = std::make_unique<ValuesOp>(
      KV(), KvRows({{1, "a"}, {5, "b"}, {3, "c"}, {9, "d"}, {2, "e"}}));
  SelectOp sel(std::move(values), Gt(Col("k"), Lit(Value::I64(2))));
  auto res = CollectRows(&sel, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "b");
  EXPECT_EQ(res->rows[1][1].AsStr(), "c");
  EXPECT_EQ(res->rows[2][1].AsStr(), "d");
}

TEST(SelectOpTest, NullPredicateRowsDoNotQualify) {
  ExecContext ctx;
  Schema s({Field("x", TypeId::kI64, true)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::I64(1)}, {Value::Null(TypeId::kI64)}, {Value::I64(3)}});
  SelectOp sel(std::move(values), Gt(Col("x"), Lit(Value::I64(0))));
  auto res = CollectRows(&sel, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 2u);  // the NULL row is out
}

TEST(ProjectOpTest, ComputesExpressions) {
  ExecContext ctx;
  auto values = std::make_unique<ValuesOp>(
      KV(), KvRows({{2, "x"}, {7, "y"}}));
  std::vector<ProjectItem> items;
  items.push_back({"k2", Mul(Col("k"), Col("k"))});
  items.push_back({"tag", Call("upper", {Col("v")})});
  ProjectOp proj(std::move(values), std::move(items));
  auto res = CollectRows(&proj, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->schema.field(0).name, "k2");
  EXPECT_EQ(res->rows[1][0].AsI64(), 49);
  EXPECT_EQ(res->rows[0][1].AsStr(), "X");
}

TEST(ProjectOpTest, PreservesSelectionFromFilter) {
  ExecContext ctx;
  auto values = std::make_unique<ValuesOp>(
      KV(), KvRows({{1, "a"}, {2, "b"}, {3, "c"}, {4, "d"}}));
  auto sel = std::make_unique<SelectOp>(std::move(values),
                                        Eq(Col("k"), Lit(Value::I64(3))));
  std::vector<ProjectItem> items;
  items.push_back({"kk", Add(Col("k"), Lit(Value::I64(100)))});
  ProjectOp proj(std::move(sel), std::move(items));
  auto res = CollectRows(&proj, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 103);
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

struct JoinFixture {
  ExecContext ctx;
  Schema left{{Field("lk", TypeId::kI64, true), Field("lv", TypeId::kStr)}};
  Schema right{{Field("rk", TypeId::kI64, true), Field("rv", TypeId::kStr)}};

  std::unique_ptr<ValuesOp> Left(std::vector<std::vector<Value>> rows) {
    return std::make_unique<ValuesOp>(left, std::move(rows));
  }
  std::unique_ptr<ValuesOp> Right(std::vector<std::vector<Value>> rows) {
    return std::make_unique<ValuesOp>(right, std::move(rows));
  }
};

/// One-element chain list: the serial case of a pipeline sink.
std::vector<OperatorPtr> OneChain(OperatorPtr op) {
  std::vector<OperatorPtr> chains;
  chains.push_back(std::move(op));
  return chains;
}

/// A serial hash join: one build chain behind a JoinBuildState, probed by
/// one JoinProbeOp.
std::unique_ptr<JoinProbeOp> SerialJoin(OperatorPtr build, OperatorPtr probe,
                                        std::vector<int> build_keys,
                                        std::vector<int> probe_keys,
                                        JoinType type) {
  auto state = std::make_shared<JoinBuildState>(OneChain(std::move(build)),
                                                std::move(build_keys));
  return std::make_unique<JoinProbeOp>(std::move(probe), std::move(state),
                                       std::move(probe_keys), type);
}

std::vector<Value> R(int64_t k, const char* v) {
  return {Value::I64(k), Value::Str(v)};
}
std::vector<Value> RN(const char* v) {
  return {Value::Null(TypeId::kI64), Value::Str(v)};
}

TEST(HashJoinTest, InnerJoinMatchesAndDuplicates) {
  JoinFixture f;
  // build: right, probe: left.
  auto join = SerialJoin(f.Right({R(1, "r1"), R(2, "r2"), R(2, "r2b")}),
                         f.Left({R(1, "l1"), R(2, "l2"), R(3, "l3")}),
                         {0}, {0}, JoinType::kInner);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  // 1 match for k=1, 2 for k=2, 0 for k=3.
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->schema.num_fields(), 4);
}

TEST(HashJoinTest, InnerJoinNullKeysNeverMatch) {
  JoinFixture f;
  auto join = SerialJoin(f.Right({R(1, "r1"), RN("rnull")}),
                         f.Left({R(1, "l1"), RN("lnull")}), {0}, {0},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l1");
}

TEST(HashJoinTest, LeftOuterEmitsNullPaddedRows) {
  JoinFixture f;
  auto join = SerialJoin(f.Right({R(1, "r1")}),
                         f.Left({R(1, "l1"), R(7, "l7")}), {0}, {0},
                         JoinType::kLeftOuter);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);
  // Unmatched l7: build side NULL.
  bool found = false;
  for (const auto& row : res->rows) {
    if (row[1].AsStr() == "l7") {
      EXPECT_TRUE(row[2].is_null());
      EXPECT_TRUE(row[3].is_null());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(HashJoinTest, SemiJoinEmitsEachProbeOnce) {
  JoinFixture f;
  auto join = SerialJoin(f.Right({R(2, "a"), R(2, "b")}),
                         f.Left({R(2, "l2"), R(3, "l3")}), {0}, {0},
                         JoinType::kSemi);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l2");
  EXPECT_EQ(res->schema.num_fields(), 2);  // probe columns only
}

// The §"NULL intricacies" cases: NOT EXISTS vs NOT IN.
TEST(HashJoinTest, AntiJoinNotExistsSemantics) {
  JoinFixture f;
  // NOT EXISTS(rk = lk): NULL probe keys survive (no match possible).
  auto join = SerialJoin(f.Right({R(1, "r1"), RN("rnull")}),
                         f.Left({R(1, "l1"), R(5, "l5"), RN("lnull")}),
                         {0}, {0}, JoinType::kAnti);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l5");
  EXPECT_EQ(res->rows[1][1].AsStr(), "lnull");
}

TEST(HashJoinTest, AntiJoinNotInNullProbeDropped) {
  JoinFixture f;
  // NOT IN over a build side *without* NULLs: NULL probe keys are dropped
  // (x NOT IN S is UNKNOWN when x is NULL).
  auto join = SerialJoin(f.Right({R(1, "r1")}),
                         f.Left({R(1, "l1"), R(5, "l5"), RN("lnull")}),
                         {0}, {0}, JoinType::kAntiNullAware);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "l5");
}

TEST(HashJoinTest, AntiJoinNotInNullBuildPoisonsAll) {
  JoinFixture f;
  // NOT IN over a build side *with* a NULL: no probe row can qualify.
  auto join = SerialJoin(f.Right({R(1, "r1"), RN("rnull")}),
                         f.Left({R(1, "l1"), R(5, "l5")}), {0}, {0},
                         JoinType::kAntiNullAware);
  auto res = CollectRows(join.get(), &f.ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 0u);
}

TEST(HashJoinTest, MultiColumnKeys) {
  ExecContext ctx;
  Schema two{{Field("a", TypeId::kI64), Field("b", TypeId::kStr)}};
  auto build = std::make_unique<ValuesOp>(
      two, std::vector<std::vector<Value>>{
               {Value::I64(1), Value::Str("x")},
               {Value::I64(1), Value::Str("y")}});
  auto probe = std::make_unique<ValuesOp>(
      two, std::vector<std::vector<Value>>{
               {Value::I64(1), Value::Str("x")},
               {Value::I64(1), Value::Str("z")}});
  auto join = SerialJoin(std::move(build), std::move(probe), {0, 1}, {0, 1},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][1].AsStr(), "x");
}

TEST(HashJoinTest, OutputOverflowResumesCorrectly) {
  // One probe row matching 5000 build rows must span multiple output
  // batches without loss.
  ExecContext ctx;
  ctx.vector_size = 128;
  Schema s({Field("k", TypeId::kI64), Field("i", TypeId::kI64)});
  std::vector<std::vector<Value>> build_rows;
  for (int i = 0; i < 5000; i++) {
    build_rows.push_back({Value::I64(42), Value::I64(i)});
  }
  auto build = std::make_unique<ValuesOp>(s, std::move(build_rows));
  auto probe = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{{Value::I64(42), Value::I64(-1)}});
  auto join = SerialJoin(std::move(build), std::move(probe), {0}, {0},
                         JoinType::kInner);
  auto res = CollectRows(join.get(), &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 5000u);
}

/// Passes its child's batches through and records the query's task quota
/// slots in use at every pull.
class QuotaProbeOp : public Operator {
 public:
  struct Seen {
    std::mutex mu;
    std::vector<int> in_use;
  };
  QuotaProbeOp(OperatorPtr child, Seen* seen)
      : child_(std::move(child)), seen_(seen) {}
  ~QuotaProbeOp() override { Close(); }

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "QuotaProbe"; }

 protected:
  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    return child_->Open(ctx);
  }
  Result<Batch*> NextImpl() override {
    {
      std::lock_guard<std::mutex> lock(seen_->mu);
      seen_->in_use.push_back(ctx_->quota->in_use());
    }
    return child_->Next();
  }
  void CloseImpl() override { child_->Close(); }

 private:
  OperatorPtr child_;
  Seen* seen_;
  ExecContext* ctx_ = nullptr;
};

TEST(HashJoinTest, BuildDrainsUnderTheWholeQuota) {
  // Four probe clones share one build of four chains under a 4-slot
  // quota. The build runs from the first clone's Open, before the probe
  // pipeline takes a slot, so its drain is granted all four: no probe
  // task holds a slot beside it.
  TaskScheduler pool(4);
  TaskQuota quota(4);
  ExecContext ctx;
  ctx.scheduler = &pool;
  ctx.quota = &quota;
  Schema s({Field("k", TypeId::kI64)});
  QuotaProbeOp::Seen seen;
  std::vector<OperatorPtr> build;
  std::vector<OperatorPtr> probes;
  for (int w = 0; w < 4; w++) {
    std::vector<std::vector<Value>> build_rows;
    for (int i = 0; i < 5000; i++) {
      build_rows.push_back({Value::I64(w * 5000 + i)});
    }
    build.push_back(std::make_unique<QuotaProbeOp>(
        std::make_unique<ValuesOp>(s, std::move(build_rows)), &seen));
  }
  auto state = std::make_shared<JoinBuildState>(std::move(build),
                                                std::vector<int>{0});
  for (int w = 0; w < 4; w++) {
    std::vector<std::vector<Value>> probe_rows;
    for (int i = 0; i < 100; i++) {
      probe_rows.push_back({Value::I64(w * 5000 + i)});
    }
    probes.push_back(std::make_unique<JoinProbeOp>(
        std::make_unique<ValuesOp>(s, std::move(probe_rows)), state,
        std::vector<int>{0}, JoinType::kInner));
  }
  auto res = CollectChains(Borrow(probes), &ctx);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 400u);
  ASSERT_FALSE(seen.in_use.empty());
  const auto [fewest, most] =
      std::minmax_element(seen.in_use.begin(), seen.in_use.end());
  EXPECT_EQ(*fewest, 4);
  EXPECT_EQ(*most, 4);
  EXPECT_EQ(quota.in_use(), 0);
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

TEST(HashAggTest, GroupByWithAllAggregates) {
  ExecContext ctx;
  Schema s({Field("g", TypeId::kStr), Field("x", TypeId::kI64)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::Str("a"), Value::I64(1)},
             {Value::Str("b"), Value::I64(10)},
             {Value::Str("a"), Value::I64(3)},
             {Value::Str("b"), Value::I64(30)},
             {Value::Str("a"), Value::I64(5)}});
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, Col("x"), "sum_x"});
  aggs.push_back({AggKind::kMin, Col("x"), "min_x"});
  aggs.push_back({AggKind::kMax, Col("x"), "max_x"});
  aggs.push_back({AggKind::kAvg, Col("x"), "avg_x"});
  HashAggOp agg(OneChain(std::move(values)), std::move(keys), std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);
  for (const auto& row : res->rows) {
    if (row[0].AsStr() == "a") {
      EXPECT_EQ(row[1].AsI64(), 3);
      EXPECT_EQ(row[2].AsI64(), 9);
      EXPECT_EQ(row[3].AsI64(), 1);
      EXPECT_EQ(row[4].AsI64(), 5);
      EXPECT_DOUBLE_EQ(row[5].AsF64(), 3.0);
    } else {
      EXPECT_EQ(row[1].AsI64(), 2);
      EXPECT_EQ(row[2].AsI64(), 40);
    }
  }
}

TEST(HashAggTest, GlobalAggregateOnEmptyInput) {
  ExecContext ctx;
  Schema s({Field("x", TypeId::kI64)});
  auto values =
      std::make_unique<ValuesOp>(s, std::vector<std::vector<Value>>{});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, Col("x"), "sum_x"});
  HashAggOp agg(OneChain(std::move(values)), {}, std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 0);
  EXPECT_TRUE(res->rows[0][1].is_null());  // SUM over nothing is NULL
}

TEST(HashAggTest, NullInputsSkipped) {
  ExecContext ctx;
  Schema s({Field("x", TypeId::kI64, true)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{{Value::I64(5)},
                                         {Value::Null(TypeId::kI64)},
                                         {Value::I64(7)}});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, Col("x"), "cnt_x"});
  aggs.push_back({AggKind::kAvg, Col("x"), "avg_x"});
  HashAggOp agg(OneChain(std::move(values)), {}, std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0][0].AsI64(), 2);  // COUNT(x) skips NULL
  EXPECT_DOUBLE_EQ(res->rows[0][1].AsF64(), 6.0);
}

TEST(HashAggTest, NullGroupKeysFormOneGroup) {
  ExecContext ctx;
  Schema s({Field("g", TypeId::kI64, true), Field("x", TypeId::kI64)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::Null(TypeId::kI64), Value::I64(1)},
             {Value::I64(1), Value::I64(2)},
             {Value::Null(TypeId::kI64), Value::I64(3)}});
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kSum, Col("x"), "s"});
  HashAggOp agg(OneChain(std::move(values)), std::move(keys), std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 2u);  // NULL group + group 1
  for (const auto& row : res->rows) {
    if (row[0].is_null()) EXPECT_EQ(row[1].AsI64(), 4);
  }
}

TEST(HashAggTest, ManyGroupsTriggerRehash) {
  ExecContext ctx;
  Schema s({Field("g", TypeId::kI64)});
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 5000; i++) rows.push_back({Value::I64(i % 2000)});
  auto values = std::make_unique<ValuesOp>(s, std::move(rows));
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "c"});
  HashAggOp agg(OneChain(std::move(values)), std::move(keys), std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 2000u);
}

TEST(HashAggTest, EmittedPartitionsReleaseTheirCharge) {
  // A radix-partitioned aggregation frees each merged partition once it
  // is emitted, so an operator above it drains under a budget the
  // emitted groups no longer hold.
  MemoryTracker tracker;
  ExecContext ctx;
  ctx.memory = &tracker;
  Schema s({Field("g", TypeId::kI64)});
  constexpr int kGroups = 20000;
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < kGroups; i++) rows.push_back({Value::I64(i)});
  std::vector<ProjectItem> keys;
  keys.push_back({"g", Col("g")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "c"});
  HashAggOp agg(OneChain(std::make_unique<ValuesOp>(s, std::move(rows))),
                std::move(keys), std::move(aggs), /*radix_bits=*/2);
  ASSERT_TRUE(agg.Open(&ctx).ok());
  auto first = agg.Next();
  ASSERT_TRUE(first.ok() && *first != nullptr);
  const int64_t charged = tracker.used();
  ASSERT_GT(charged, 0);
  int64_t emitted = (*first)->ActiveRows();
  bool fell = false;
  while (true) {
    auto b = agg.Next();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    if (*b == nullptr) break;
    emitted += (*b)->ActiveRows();
    fell |= tracker.used() < charged;
  }
  EXPECT_EQ(emitted, kGroups);
  EXPECT_TRUE(fell);
  EXPECT_EQ(tracker.used(), 0);  // at end of stream, before Close
  agg.Close();
}

TEST(GroupTableTest, MergeWrapsI64SumsLikeTheKernel) {
  // Two one-group tables whose SUM and AVG i64 accumulators overflow
  // when added: the barrier merge wraps (two's complement), as the fold
  // kernels do, instead of overflowing a signed add.
  const Schema key_schema({Field("k", TypeId::kI64)});
  const std::vector<AggKind> kinds = {AggKind::kSum, AggKind::kAvg};
  const std::vector<TypeId> in_types = {TypeId::kI64, TypeId::kI64};
  Vector key(TypeId::kI64, 1);
  key.Data<int64_t>()[0] = 7;
  const std::vector<const Vector*> keys = {&key};
  GroupTable dst(key_schema, kinds, in_types);
  GroupTable src(key_schema, kinds, in_types);
  const int64_t addends[] = {INT64_MAX - 1, int64_t{1} << 62};
  GroupTable* tables[] = {&dst, &src};
  for (int t = 0; t < 2; t++) {
    auto gid = tables[t]->FindOrAdd(keys, 0, /*hash=*/99);
    ASSERT_TRUE(gid.ok());
    ASSERT_EQ(*gid, 0u);
    for (size_t a = 0; a < kinds.size(); a++) {
      tables[t]->accum(a).i64[0] = addends[t];
      tables[t]->accum(a).count[0] = 1;
    }
  }
  ASSERT_TRUE(dst.MergeFrom(src).ok());
  ASSERT_EQ(dst.num_groups(), 1);
  const int64_t want = static_cast<int64_t>(
      static_cast<uint64_t>(addends[0]) + static_cast<uint64_t>(addends[1]));
  for (size_t a = 0; a < kinds.size(); a++) {
    EXPECT_EQ(dst.accum(a).i64[0], want) << AggKindName(kinds[a]);
    EXPECT_EQ(dst.accum(a).count[0], 2);
  }
}

// ---------------------------------------------------------------------------
// Sort / TopN
// ---------------------------------------------------------------------------

TEST(SortOpTest, MultiKeyWithDirections) {
  ExecContext ctx;
  Schema s({Field("a", TypeId::kI64), Field("b", TypeId::kStr)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{
             {Value::I64(2), Value::Str("x")},
             {Value::I64(1), Value::Str("b")},
             {Value::I64(2), Value::Str("a")},
             {Value::I64(1), Value::Str("a")}});
  SortOp sort(OneChain(std::move(values)), {{0, true}, {1, false}});
  auto res = CollectRows(&sort, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 4u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 1);
  EXPECT_EQ(res->rows[0][1].AsStr(), "b");  // desc within group
  EXPECT_EQ(res->rows[3][1].AsStr(), "a");
}

TEST(SortOpTest, NullsSortLastAscending) {
  ExecContext ctx;
  Schema s({Field("a", TypeId::kI64, true)});
  auto values = std::make_unique<ValuesOp>(
      s, std::vector<std::vector<Value>>{{Value::Null(TypeId::kI64)},
                                         {Value::I64(2)},
                                         {Value::I64(1)}});
  SortOp sort(OneChain(std::move(values)), {{0, true}});
  auto res = CollectRows(&sort, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0][0].AsI64(), 1);
  EXPECT_TRUE(res->rows[2][0].is_null());
}

TEST(SortOpTest, TopNLimitsOutput) {
  ExecContext ctx;
  Schema s({Field("a", TypeId::kI64)});
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 1000; i++) rows.push_back({Value::I64((i * 37) % 997)});
  auto values = std::make_unique<ValuesOp>(s, std::move(rows));
  SortOp sort(OneChain(std::move(values)), {{0, false}}, 5);
  auto res = CollectRows(&sort, &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 5u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 996);
  for (size_t i = 1; i < 5; i++) {
    EXPECT_LE(res->rows[i][0].AsI64(), res->rows[i - 1][0].AsI64());
  }
}

TEST(SortRunMergerTest, LoserTreeIsAStableMergeOfTheRuns) {
  // Keys tied across runs (NULL, NaN, -0.0 against 0.0, repeats) leave
  // the merge in run order: its output equals a stable sort of the runs
  // concatenated in run order. Odd runs are spilled, and run 1 spans
  // several chunks.
  const Schema schema({Field("k", TypeId::kF64, /*nullable=*/true),
                       Field("run", TypeId::kI64), Field("pos", TypeId::kI64)});
  const std::vector<SortKey> keys = {{0, true}};
  const Value pool[] = {Value::Null(TypeId::kF64), Value::F64(std::nan("")),
                        Value::F64(-0.0), Value::F64(0.0), Value::F64(1.5),
                        Value::F64(-2.0)};
  SimulatedDisk disk;
  SpillDevice device(&disk);
  Rng rng(7);
  for (const int k : {1, 2, 3, 5, 145}) {
    std::vector<std::unique_ptr<RowBuffer>> bufs;
    std::vector<SortRun> runs(k);
    for (int r = 0; r < k; r++) {
      auto buf = std::make_unique<RowBuffer>(schema);
      const int n = r == 1 ? 2 * kSpillChunkRows + 100 : 1 + (r * 7 + 3) % 40;
      for (int i = 0; i < n; i++) {
        buf->AppendValues({pool[rng.Uniform(0, 5)], Value::I64(r),
                           Value::I64(i)});
      }
      const Cells key = buf->cells(0);
      std::vector<int64_t> order(n);
      for (int i = 0; i < n; i++) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return CompareCells(key, a, key, b) < 0;
      });
      if (r % 2 == 1) {
        ASSERT_TRUE(runs[r]
                        .spill
                        .Append(&device, n,
                                [&](int64_t begin, int64_t end,
                                    std::vector<uint8_t>* out) {
                                  buf->Serialize(order.data(), begin, end,
                                                 out);
                                })
                        .ok());
      } else {
        runs[r].rows = buf.get();
        runs[r].order = order;
      }
      bufs.push_back(std::move(buf));
    }
    // The expected output: every run's sorted rows in run order, stably
    // sorted by key.
    std::vector<std::pair<int, int64_t>> want;  // (run, row)
    for (int r = 0; r < k; r++) {
      std::vector<int64_t> order(bufs[r]->rows());
      for (int64_t i = 0; i < bufs[r]->rows(); i++) order[i] = i;
      const Cells key = bufs[r]->cells(0);
      std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return CompareCells(key, a, key, b) < 0;
      });
      for (int64_t i : order) want.emplace_back(r, i);
    }
    std::stable_sort(want.begin(), want.end(), [&](const auto& a,
                                                   const auto& b) {
      return CompareCells(bufs[a.first]->cells(0), a.second,
                          bufs[b.first]->cells(0), b.second) < 0;
    });
    SortRunMerger merger;
    ASSERT_TRUE(merger.Init(&schema, &keys, -1, nullptr, &runs).ok());
    Batch out(schema, kDefaultVectorSize);
    size_t next = 0;
    while (true) {
      out.Reset();
      int n = 0;
      ASSERT_TRUE(merger.NextBatch(&out, &n).ok());
      if (n == 0) break;
      for (int j = 0; j < n; j++, next++) {
        ASSERT_LT(next, want.size()) << "k=" << k;
        ASSERT_EQ(out.column(1)->Data<int64_t>()[j], want[next].first)
            << "k=" << k << " row " << next;
        ASSERT_EQ(out.column(2)->Data<int64_t>()[j], want[next].second)
            << "k=" << k << " row " << next;
      }
    }
    EXPECT_EQ(next, want.size()) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Scan over stored tables (+ PDT)
// ---------------------------------------------------------------------------

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableBuilder b("t",
                   Schema({Field("id", TypeId::kI64),
                           Field("val", TypeId::kI32),
                           Field("s", TypeId::kStr)}),
                   Layout::kDsm, &disk_, 256);
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(b.AppendRow({Value::I64(i), Value::I32(i % 100),
                               Value::Str("s" + std::to_string(i % 10))})
                      .ok());
    }
    auto t = b.Finish();
    ASSERT_TRUE(t.ok());
    table_ = std::make_unique<UpdatableTable>(std::move(t).value());
    buffers_ = std::make_unique<BufferManager>(&disk_, 64 << 20);
  }

  std::unique_ptr<ScanOp> MakeScan(std::vector<int> cols,
                                   std::vector<ScanPredicate> preds = {}) {
    ScanOptions opts;
    opts.columns = std::move(cols);
    opts.predicates = std::move(preds);
    return std::make_unique<ScanOp>(table_->View(), table_->SnapshotPdt(),
                                    buffers_.get(), std::move(opts));
  }

  SimulatedDisk disk_;
  std::unique_ptr<UpdatableTable> table_;
  std::unique_ptr<BufferManager> buffers_;
  TransactionManager tm_;
};

TEST_F(ScanTest, FullScanAllRows) {
  ExecContext ctx;
  auto scan = MakeScan({0, 1, 2});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1000u);
  EXPECT_EQ(res->rows[999][0].AsI64(), 999);
  EXPECT_EQ(res->rows[123][1].AsI64(), 23);
  EXPECT_EQ(res->rows[45][2].AsStr(), "s5");
}

TEST_F(ScanTest, ColumnSubsetAndOrder) {
  ExecContext ctx;
  auto scan = MakeScan({2, 0});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->schema.field(0).name, "s");
  EXPECT_EQ(res->schema.field(1).name, "id");
  EXPECT_EQ(res->rows[7][1].AsI64(), 7);
}

TEST_F(ScanTest, MinMaxSkipsGroups) {
  ExecContext ctx;
  // id >= 900: only the last group (rows 768..1000, groups of 256) + part.
  auto scan =
      MakeScan({0}, {{0, RangeOp::kGe, Value::I64(900)}});
  ScanOp* raw = scan.get();
  auto res = CollectRows(raw, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_GE(raw->groups_skipped(), 3);
  // Scan emits whole groups; exact filtering is SelectOp's job.
  EXPECT_EQ(res->rows.size(), 232u);  // rows 768..999
}

TEST_F(ScanTest, ScanMergesPdtDeltas) {
  ExecContext ctx;
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Delete(0).ok());
  ASSERT_TRUE(txn->Update(500, 1, Value::I32(-5)).ok());
  ASSERT_TRUE(txn->Append({Value::I64(5000), Value::I32(1),
                           Value::Str("tail")})
                  .ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  auto scan = MakeScan({0, 1, 2});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1000u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 1);        // sid 0 deleted
  // Update(500) ran after Delete(0): it targeted sid 501, now at rid 500.
  EXPECT_EQ(res->rows[500][1].AsI64(), -5);
  EXPECT_EQ(res->rows[500][0].AsI64(), 501);
  EXPECT_EQ(res->rows[999][0].AsI64(), 5000);   // appended tail
  EXPECT_EQ(res->rows[999][2].AsStr(), "tail");
}

TEST_F(ScanTest, MinMaxNotSkippedWhenDeltasPresent) {
  ExecContext ctx;
  auto txn = tm_.Begin(table_.get());
  // Make a row in group 0 suddenly match id >= 900.
  ASSERT_TRUE(txn->Update(5, 0, Value::I64(950)).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  auto scan = MakeScan({0}, {{0, RangeOp::kGe, Value::I64(900)}});
  auto res = CollectRows(scan.get(), &ctx);
  ASSERT_TRUE(res.ok());
  bool found = false;
  for (const auto& row : res->rows) found |= row[0].AsI64() == 950;
  EXPECT_TRUE(found);
}

TEST_F(ScanTest, PipelineScanSelectProjectAgg) {
  ExecContext ctx;
  auto scan = MakeScan({0, 1});
  auto sel = std::make_unique<SelectOp>(std::move(scan),
                                        Lt(Col("val"), Lit(Value::I32(10))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, Col("id"), "sum_id"});
  HashAggOp agg(OneChain(std::move(sel)), {}, std::move(aggs));
  auto res = CollectRows(&agg, &ctx);
  ASSERT_TRUE(res.ok());
  // val = id % 100 < 10 -> ids 0..9, 100..109, ... 10 per hundred.
  EXPECT_EQ(res->rows[0][0].AsI64(), 100);
  int64_t expect_sum = 0;
  for (int i = 0; i < 1000; i++) {
    if (i % 100 < 10) expect_sum += i;
  }
  EXPECT_EQ(res->rows[0][1].AsI64(), expect_sum);
}

// ---------------------------------------------------------------------------
// Root drain + cancellation
// ---------------------------------------------------------------------------

TEST_F(ScanTest, RootDrainUnionsPartitionedScans) {
  // Two scan clones split the table through one shared MorselSource; the
  // root drain must see every row exactly once (one clone wins the tail).
  ExecContext ctx;
  auto morsels = std::make_shared<MorselSource>(table_->base()->num_groups());
  std::vector<OperatorPtr> chains;
  for (int w = 0; w < 2; w++) {
    ScanOptions opts;
    opts.columns = {0};
    opts.morsels = morsels;
    chains.push_back(std::make_unique<ScanOp>(
        table_->View(), table_->SnapshotPdt(), buffers_.get(),
        std::move(opts)));
  }
  auto res = CollectChains(Borrow(chains), &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows.size(), 1000u);
  int64_t sum = 0;
  for (const auto& row : res->rows) sum += row[0].AsI64();
  EXPECT_EQ(sum, 999ll * 1000 / 2);
}

/// An endless source of i64 batches that counts its opens, closes, Close
/// calls and in-flight Next calls, and the fewest chains open at any
/// pull; `fail_open` makes its Open fail, `fail_at` > 0 makes its
/// fail_at-th Next return an error, and `cancel_at` > 0 makes its
/// cancel_at-th Next fire `cancel_token`.
class ChainProbeOp : public Operator {
 public:
  struct Counters {
    std::atomic<int> opened{0};
    std::atomic<int> closed{0};
    std::atomic<int> close_calls{0};
    std::atomic<int> in_next{0};
    std::atomic<int> min_opened_at_pull{1 << 30};
    std::atomic<int64_t> batches{0};
  };
  explicit ChainProbeOp(Counters* counters) : counters_(counters) {}
  ~ChainProbeOp() override { Close(); }

  bool fail_open = false;
  int fail_at = 0;
  int cancel_at = 0;
  CancellationToken* cancel_token = nullptr;

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "ChainProbe"; }

 protected:
  Status OpenImpl(ExecContext* ctx) override {
    if (fail_open) return Status::Internal("open failed");
    ctx_ = ctx;
    out_ = std::make_unique<Batch>(schema_, ctx->vector_size);
    open_ = true;
    counters_->opened++;
    return Status::OK();
  }
  Result<Batch*> NextImpl() override {
    counters_->in_next++;
    const int opened = counters_->opened.load();
    int seen = counters_->min_opened_at_pull.load();
    while (opened < seen &&
           !counters_->min_opened_at_pull.compare_exchange_weak(seen,
                                                                opened)) {
    }
    auto r = Produce();
    counters_->in_next--;
    return r;
  }
  void CloseImpl() override {
    counters_->close_calls++;
    if (open_) counters_->closed++;
    open_ = false;
  }

 private:
  Result<Batch*> Produce() {
    X100_RETURN_IF_ERROR(ctx_->CheckCancel());
    nexts_++;
    if (nexts_ == cancel_at) cancel_token->Cancel();
    if (nexts_ == fail_at) return Status::Internal("chain failed");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    out_->Reset();
    for (int i = 0; i < ctx_->vector_size; i++) {
      out_->column(0)->Data<int64_t>()[i] = i;
    }
    out_->set_rows(ctx_->vector_size);
    counters_->batches++;
    return out_.get();
  }

  Counters* counters_;
  Schema schema_{{Field("x", TypeId::kI64)}};
  ExecContext* ctx_ = nullptr;
  std::unique_ptr<Batch> out_;
  bool open_ = false;
  int nexts_ = 0;
};

TEST(CancellationTest, OperatorTreeStopsPromptly) {
  ExecContext ctx;
  CancellationToken token;
  ctx.cancel = &token;
  // An effectively infinite values source would run forever; cancel from
  // another thread must stop it.
  Schema s({Field("x", TypeId::kI64)});
  std::vector<std::vector<Value>> rows(10000, {Value::I64(1)});
  auto values = std::make_unique<ValuesOp>(s, std::move(rows));
  // Heavy cross join to keep it busy: join values with itself.
  std::vector<std::vector<Value>> rows2(10000, {Value::I64(1)});
  auto values2 = std::make_unique<ValuesOp>(s, std::move(rows2));
  auto join = SerialJoin(std::move(values), std::move(values2), {0}, {0},
                         JoinType::kInner);  // 10^8 output pairs
  ASSERT_TRUE(join->Open(&ctx).ok());
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  Status final_status = Status::OK();
  while (true) {
    auto b = join->Next();
    if (!b.ok()) {
      final_status = b.status();
      break;
    }
    if (*b == nullptr) break;
  }
  canceller.join();
  join->Close();
  EXPECT_TRUE(final_status.IsCancelled());
}

TEST(CancellationTest, RootDrainJoinsChainsOnCancel) {
  // A cancel before the drain runs no chain; one during it returns
  // Cancelled only after every chain task has closed its chain. Four
  // endless chains on two workers: the cancel is what ends the drain.
  for (bool during : {false, true}) {
    TaskScheduler pool(2);
    CancellationToken token;
    ExecContext ctx;
    ctx.scheduler = &pool;
    ctx.cancel = &token;
    ChainProbeOp::Counters counters;
    std::vector<OperatorPtr> chains;
    for (int w = 0; w < 4; w++) {
      auto op = std::make_unique<ChainProbeOp>(&counters);
      op->cancel_token = &token;
      if (w == 0 && during) op->cancel_at = 3;
      chains.push_back(std::move(op));
    }
    if (!during) token.Cancel();
    auto res = CollectChains(Borrow(chains), &ctx);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
    EXPECT_EQ(counters.in_next.load(), 0);
    EXPECT_EQ(counters.opened.load(), counters.closed.load());
    if (during) {
      EXPECT_GE(counters.batches.load(), 2);
    } else {
      EXPECT_EQ(counters.opened.load(), 0);
    }
  }
}

TEST(CancellationTest, RootDrainReturnsTheFailingChainsError) {
  // An error in one chain is what the drain returns, and it stops the
  // other (endless) chains: without that the drain would never end.
  for (int workers : {1, 2, 4}) {
    TaskScheduler pool(workers);
    ExecContext ctx;
    ctx.scheduler = &pool;
    ChainProbeOp::Counters counters;
    std::vector<OperatorPtr> chains;
    for (int w = 0; w < 4; w++) {
      auto op = std::make_unique<ChainProbeOp>(&counters);
      if (w == 0) op->fail_at = 20;
      chains.push_back(std::move(op));
    }
    auto res = CollectChains(Borrow(chains), &ctx);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInternal)
        << res.status().ToString();
    EXPECT_EQ(counters.in_next.load(), 0);
    EXPECT_EQ(counters.opened.load(), counters.closed.load());
  }
}

TEST(DrainChainsTest, OpensEveryChainBeforePullingAny) {
  // The open phase runs on the drain's thread before any chain task
  // exists: every chain's first pull sees all four chains open.
  for (int workers : {1, 4}) {
    TaskScheduler pool(workers);
    ExecContext ctx;
    ctx.scheduler = &pool;
    ChainProbeOp::Counters counters;
    std::vector<OperatorPtr> chains;
    for (int w = 0; w < 4; w++) {
      chains.push_back(std::make_unique<ChainProbeOp>(&counters));
    }
    std::atomic<int> pulled{0};
    const Status s = DrainChains(&ctx, Borrow(chains),
                                 [&pulled](int, Batch&) -> Result<bool> {
                                   pulled++;
                                   return false;  // one batch per chain
                                 });
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(pulled.load(), 4);
    EXPECT_EQ(counters.min_opened_at_pull.load(), 4) << "workers=" << workers;
    EXPECT_EQ(counters.closed.load(), 4);
    EXPECT_EQ(counters.close_calls.load(), 4);
  }
}

TEST(DrainChainsTest, FailedOpenPullsNoChainAndClosesEveryChain) {
  // Chain k's Open fails: the drain returns its error, opens no later
  // chain, pulls none, and closes all four (the unopened ones too).
  for (int k = 0; k < 4; k++) {
    TaskScheduler pool(2);
    ExecContext ctx;
    ctx.scheduler = &pool;
    ChainProbeOp::Counters counters;
    std::vector<OperatorPtr> chains;
    for (int w = 0; w < 4; w++) {
      auto op = std::make_unique<ChainProbeOp>(&counters);
      op->fail_open = w == k;
      chains.push_back(std::move(op));
    }
    const Status s = DrainChains(
        &ctx, Borrow(chains), [](int, Batch&) -> Result<bool> { return true; });
    const std::string where = "failing chain " + std::to_string(k);
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString() << " " << where;
    EXPECT_EQ(counters.opened.load(), k) << where;
    EXPECT_EQ(counters.min_opened_at_pull.load(), 1 << 30) << where;
    EXPECT_EQ(counters.closed.load(), k) << where;
    EXPECT_EQ(counters.close_calls.load(), 4) << where;
  }
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel scans
// ---------------------------------------------------------------------------

TEST(MorselSourceTest, HandsOutEachGroupExactlyOnce) {
  MorselSource src(64);
  std::mutex mu;
  std::vector<int> claimed;
  int tails = 0;
  std::vector<std::thread> pullers;
  for (int t = 0; t < 4; t++) {
    pullers.emplace_back([&] {
      std::vector<int> mine;
      while (true) {
        const int g = src.NextGroup();
        if (g < 0) break;
        mine.push_back(g);
      }
      const bool tail = src.ClaimTail();
      std::lock_guard<std::mutex> lock(mu);
      claimed.insert(claimed.end(), mine.begin(), mine.end());
      tails += tail ? 1 : 0;
    });
  }
  for (auto& t : pullers) t.join();
  EXPECT_EQ(tails, 1);  // exactly one consumer merges the PDT tail
  std::sort(claimed.begin(), claimed.end());
  ASSERT_EQ(claimed.size(), 64u);
  for (int g = 0; g < 64; g++) EXPECT_EQ(claimed[g], g);
  EXPECT_EQ(src.handed(), 64);
}

TEST_F(ScanTest, RootDrainDeterministicAcrossChainAndWorkerCounts) {
  // Every row comes back exactly once whatever the chain count and the
  // pool size, more chains than workers (and than block groups) included.
  for (int workers : {1, 2, 8}) {
    for (int n : {1, 2, 8}) {
      TaskScheduler pool(workers);
      ExecContext ctx;
      ctx.scheduler = &pool;
      auto morsels =
          std::make_shared<MorselSource>(table_->base()->num_groups());
      std::vector<OperatorPtr> chains;
      for (int w = 0; w < n; w++) {
        ScanOptions opts;
        opts.columns = {0};
        opts.morsels = morsels;
        chains.push_back(std::make_unique<ScanOp>(
            table_->View(), table_->SnapshotPdt(), buffers_.get(),
            std::move(opts)));
      }
      auto res = CollectChains(Borrow(chains), &ctx);
      const std::string where =
          "workers=" + std::to_string(workers) + " chains=" + std::to_string(n);
      ASSERT_TRUE(res.ok()) << res.status().ToString() << " " << where;
      std::vector<int64_t> ids;
      for (const auto& row : res->rows) ids.push_back(row[0].AsI64());
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids.size(), 1000u) << where;
      for (int64_t i = 0; i < 1000; i++) ASSERT_EQ(ids[i], i) << where;
      EXPECT_EQ(morsels->handed(), table_->base()->num_groups()) << where;
    }
  }
}

TEST_F(ScanTest, RootDrainCancellationJoinsInFlightTasks) {
  // Scan clones cancelled while the drain's tasks may be in flight: the
  // drain returns Cancelled, every opened clone closed.
  TaskScheduler pool(2);
  CancellationToken token;
  ExecContext ctx;
  ctx.scheduler = &pool;
  ctx.cancel = &token;
  auto morsels =
      std::make_shared<MorselSource>(table_->base()->num_groups());
  ChainProbeOp::Counters counters;
  std::vector<OperatorPtr> chains;
  auto trigger = std::make_unique<ChainProbeOp>(&counters);
  trigger->cancel_token = &token;
  trigger->cancel_at = 2;
  chains.push_back(std::move(trigger));
  for (int w = 0; w < 2; w++) {
    ScanOptions opts;
    opts.columns = {0};
    opts.morsels = morsels;
    auto scan = std::make_unique<ScanOp>(table_->View(), table_->SnapshotPdt(),
                                         buffers_.get(), std::move(opts));
    ProjectItem item{"x", Col("id")};
    chains.push_back(std::make_unique<ProjectOp>(std::move(scan),
                                                 std::vector<ProjectItem>{item}));
  }
  auto res = CollectChains(Borrow(chains), &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
  EXPECT_EQ(counters.in_next.load(), 0);
  EXPECT_EQ(counters.opened.load(), counters.closed.load());
}

// ---------------------------------------------------------------------------
// Model-based scan: random PDT histories over a multi-column table
// ---------------------------------------------------------------------------

constexpr int64_t kModelGroupRows = 3000;

/// a: sorted i64 (PFOR-DELTA); b: i32 with PFOR exceptions, some on
/// vector edges; c: f64; d: a PDICT string; e: a nullable i64 with NULL
/// runs.
Schema ModelSchema() {
  return Schema({Field("a", TypeId::kI64), Field("b", TypeId::kI32),
                 Field("c", TypeId::kF64), Field("d", TypeId::kStr),
                 Field("e", TypeId::kI64, /*nullable=*/true)});
}

std::vector<Value> BaseRow(int64_t i) {
  const bool outlier = i % 100 == 37 || i % 1024 == 0 || i % 1024 == 1023;
  return {Value::I64(i * 3),
          Value::I32(static_cast<int32_t>(outlier ? (1 << 30) + i : i % 50)),
          Value::F64(static_cast<double>(i) * 0.125),
          Value::Str("d" + std::to_string(i % 13)),
          (i / 100) % 3 == 0 ? Value::Null(TypeId::kI64) : Value::I64(i * 7)};
}

std::vector<Value> FreshRow(int64_t id, Rng* rng) {
  return {Value::I64(id),
          Value::I32(static_cast<int32_t>(rng->Bernoulli(0.1) ? id : id % 50)),
          Value::F64(static_cast<double>(id) * 0.5),
          Value::Str("new" + std::to_string(id % 5)),
          rng->Bernoulli(0.3) ? Value::Null(TypeId::kI64) : Value::I64(-id)};
}

std::string RowKey(const std::vector<Value>& row) {
  std::string key;
  for (const Value& v : row) key += v.ToString() + "|";
  return key;
}

/// A random rid below `n`; a third of them on a vector or group edge.
int64_t PickRid(Rng* rng, int64_t n) {
  if (rng->Bernoulli(0.35)) {
    const int64_t unit = rng->Bernoulli(0.5) ? 1024 : kModelGroupRows;
    const int64_t edge =
        unit * rng->Uniform(0, n / unit) + rng->Uniform(-1, 1);
    return std::clamp<int64_t>(edge, 0, n - 1);
  }
  return rng->Uniform(0, n - 1);
}

void ApplyRandomOps(Transaction* txn, std::vector<std::vector<Value>>* model,
                    Rng* rng, int64_t* next_id, int ops) {
  for (int op = 0; op < ops; op++) {
    const int64_t n = static_cast<int64_t>(model->size());
    const double dice = rng->NextDouble();
    if (dice < 0.35) {
      const int64_t rid = rng->Bernoulli(0.1) ? n : PickRid(rng, n + 1);
      std::vector<Value> row = FreshRow((*next_id)++, rng);
      ASSERT_TRUE(txn->Insert(rid, row).ok());
      model->insert(model->begin() + rid, std::move(row));
    } else if (dice < 0.6) {
      const int64_t rid = PickRid(rng, n);
      ASSERT_TRUE(txn->Delete(rid).ok());
      model->erase(model->begin() + rid);
    } else {
      const int64_t rid = PickRid(rng, n);
      const int col = static_cast<int>(rng->Uniform(0, 4));
      Value v = FreshRow((*next_id)++, rng)[col];
      ASSERT_TRUE(txn->Update(rid, col, v).ok());
      (*model)[rid][col] = std::move(v);
    }
  }
}

std::vector<std::string> BatchKeys(const Batch& batch) {
  std::vector<std::string> keys;
  for (int i = 0; i < batch.rows(); i++) {
    std::vector<Value> row;
    for (int c = 0; c < batch.num_columns(); c++) {
      row.push_back(batch.column(c)->GetValue(i));
    }
    keys.push_back(RowKey(row));
  }
  return keys;
}

TEST(ScanModelTest, RandomHistoriesInBothPdtLayersMatchTheModel) {
  SimulatedDisk disk;
  TableBuilder b("m", ModelSchema(), Layout::kDsm, &disk, kModelGroupRows);
  std::vector<std::vector<Value>> model;
  for (int64_t i = 0; i < 5 * kModelGroupRows + 1234; i++) {
    model.push_back(BaseRow(i));
    ASSERT_TRUE(b.AppendRow(model.back()).ok());
  }
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  UpdatableTable table(std::move(t).value());
  BufferManager buffers(&disk, 64 << 20);
  TransactionManager tm;
  Rng rng(2024);
  int64_t next_id = 1000000;
  // The read-PDT: several committed histories.
  for (int round = 0; round < 6; round++) {
    auto txn = tm.Begin(&table);
    ApplyRandomOps(txn.get(), &model, &rng, &next_id, 60);
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  // The write-PDT on top: an open transaction's own deltas.
  auto txn = tm.Begin(&table);
  ApplyRandomOps(txn.get(), &model, &rng, &next_id, 60);
  std::vector<std::string> want;
  for (const auto& row : model) want.push_back(RowKey(row));
  std::vector<std::string> want_sorted = want;
  std::sort(want_sorted.begin(), want_sorted.end());

  auto make_scan = [&](MorselSourcePtr morsels) {
    ScanOptions opts;
    opts.columns = {0, 1, 2, 3, 4};
    opts.morsels = std::move(morsels);
    return std::make_unique<ScanOp>(txn->View(), table.SnapshotPdt(),
                                    &buffers, std::move(opts));
  };
  for (int vs : {1, 7, 1024}) {
    SCOPED_TRACE("vector size " + std::to_string(vs));
    ExecContext ctx;
    ctx.vector_size = vs;
    auto alone = make_scan(nullptr);
    ASSERT_TRUE(alone->Open(&ctx).ok());
    std::vector<std::string> got;
    for (;;) {
      auto batch = alone->Next();
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (*batch == nullptr) break;
      for (std::string& k : BatchKeys(**batch)) got.push_back(std::move(k));
    }
    alone->Close();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) ASSERT_EQ(got[i], want[i]) << i;

    // Four clones over one MorselSource, pulled round robin.
    auto morsels =
        std::make_shared<MorselSource>(table.base()->num_groups());
    std::vector<std::unique_ptr<ScanOp>> clones;
    for (int c = 0; c < 4; c++) {
      clones.push_back(make_scan(morsels));
      ASSERT_TRUE(clones.back()->Open(&ctx).ok());
    }
    got.clear();
    for (size_t live = clones.size(); live > 0;) {
      live = 0;
      for (auto& clone : clones) {
        auto batch = clone->Next();
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        if (*batch == nullptr) continue;
        live++;
        for (std::string& k : BatchKeys(**batch)) got.push_back(std::move(k));
      }
    }
    for (auto& clone : clones) clone->Close();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want_sorted);
  }
}

}  // namespace
}  // namespace x100
