// Integration tests: rewriter rules, SQL frontend + cross compiler,
// end-to-end session queries (incl. parallel plans and cancellation),
// TPC-H correctness (vectorized vs Volcano agreement), monitoring.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "engine/physical_plan.h"
#include "engine/session.h"
#include "exec/sort.h"
#include "rewriter/rewriter.h"
#include "tpch/tpch.h"

namespace x100 {
namespace {

// ---------------------------------------------------------------------------
// Rewriter rules
// ---------------------------------------------------------------------------

TEST(RewriterTest, ExpandsBetween) {
  Rewriter rw;
  auto e = rw.ExpandFunctions(
      Call("between", {Col("x"), Lit(Value::I64(1)), Lit(Value::I64(5))}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->fn, "and");
  EXPECT_EQ((*e)->args[0]->fn, "ge");
  EXPECT_EQ((*e)->args[1]->fn, "le");
  EXPECT_EQ(rw.stats().at("expand.between"), 1);
}

TEST(RewriterTest, ExpandsCoalesceChain) {
  Rewriter rw;
  auto e = rw.ExpandFunctions(
      Call("coalesce", {Col("a"), Col("b"), Lit(Value::I64(0))}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->fn, "ifthenelse");
  EXPECT_EQ((*e)->args[0]->fn, "isnotnull");
  EXPECT_EQ((*e)->args[2]->fn, "ifthenelse");  // nested fallback
}

TEST(RewriterTest, ExpandsLeftRightSignAbs) {
  Rewriter rw;
  auto left = rw.ExpandFunctions(
      Call("left", {Col("s"), Lit(Value::I32(3))}));
  ASSERT_TRUE(left.ok());
  EXPECT_EQ((*left)->fn, "substring");
  auto sign = rw.ExpandFunctions(Call("sign", {Col("x")}));
  ASSERT_TRUE(sign.ok());
  EXPECT_EQ((*sign)->fn, "ifthenelse");
  auto abs = rw.ExpandFunctions(Call("abs", {Col("x")}));
  ASSERT_TRUE(abs.ok());
  EXPECT_EQ((*abs)->fn, "ifthenelse");
}

TEST(RewriterTest, FoldsConstants) {
  Rewriter rw;
  ExprPtr e = rw.FoldConstants(
      Mul(Add(Lit(Value::I64(2)), Lit(Value::I64(3))), Lit(Value::I64(4))));
  ASSERT_EQ(e->kind, Expr::Kind::kConst);
  EXPECT_EQ(e->constant.AsI64(), 20);
  // Division by zero must NOT fold (runtime error semantics preserved).
  ExprPtr div = rw.FoldConstants(Div(Lit(Value::I64(1)), Lit(Value::I64(0))));
  EXPECT_EQ(div->kind, Expr::Kind::kCall);
}

TEST(RewriterTest, FoldsStringsAndBooleans) {
  Rewriter rw;
  ExprPtr c = rw.FoldConstants(
      Call("concat", {Lit(Value::Str("foo")), Lit(Value::Str("bar"))}));
  ASSERT_EQ(c->kind, Expr::Kind::kConst);
  EXPECT_EQ(c->constant.AsStr(), "foobar");
  ExprPtr u = rw.FoldConstants(Call("upper", {Lit(Value::Str("x100"))}));
  EXPECT_EQ(u->constant.AsStr(), "X100");
}

TEST(RewriterTest, SimplifiesPredicates) {
  Rewriter rw;
  ExprPtr e = rw.SimplifyPredicate(
      And(Lit(Value::Bool(true)), Gt(Col("x"), Lit(Value::I64(0)))));
  EXPECT_EQ(e->fn, "gt");
  ExprPtr f = rw.SimplifyPredicate(Not(Not(Col("b"))));
  EXPECT_EQ(f->kind, Expr::Kind::kColRef);
  ExprPtr dead = rw.SimplifyPredicate(
      And(Lit(Value::Bool(false)), Gt(Col("x"), Lit(Value::I64(0)))));
  ASSERT_EQ(dead->kind, Expr::Kind::kConst);
  EXPECT_FALSE(dead->constant.AsBool());
}

TEST(RewriterTest, AntiJoinDowngradeWhenNotNullable) {
  Rewriter rw;
  AlgebraPtr join = JoinNode(ScanNode("b"), ScanNode("p"),
                             JoinType::kAntiNullAware, {"k"}, {"k"});
  join->null_aware_candidate = false;  // key proven non-nullable
  auto out = rw.Rewrite(join);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->join_type, JoinType::kAnti);
  // Nullable candidate keeps the expensive flavor.
  AlgebraPtr join2 = JoinNode(ScanNode("b"), ScanNode("p"),
                              JoinType::kAntiNullAware, {"k"}, {"k"});
  join2->null_aware_candidate = true;
  auto out2 = rw.Rewrite(join2);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ((*out2)->join_type, JoinType::kAntiNullAware);
}

// ---------------------------------------------------------------------------
// SQL frontend + cross compiler
// ---------------------------------------------------------------------------

TEST(SqlParserTest, ParsesSelectWhereGroupOrderLimit) {
  auto rel = ParseSql(
      "SELECT g, SUM(x) AS total FROM t WHERE x > 5 AND s LIKE 'a%' "
      "GROUP BY g ORDER BY total DESC LIMIT 3");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->kind, RelNode::Kind::kSort);
  EXPECT_EQ((*rel)->limit, 3);
  const RelPtr& agg = (*rel)->children[0];
  EXPECT_EQ(agg->kind, RelNode::Kind::kAggregate);
  EXPECT_EQ(agg->agg_funcs.size(), 1u);
  EXPECT_EQ(agg->agg_funcs[0].name, "total");
  const RelPtr& restrict = agg->children[0];
  EXPECT_EQ(restrict->kind, RelNode::Kind::kRestrict);
  EXPECT_EQ(restrict->children[0]->relation, "t");
}

TEST(SqlParserTest, ParsesBetweenInIsNullDates) {
  auto rel = ParseSql(
      "SELECT * FROM t WHERE d BETWEEN DATE '1994-01-01' AND "
      "DATE '1994-12-31' AND k IN (1, 2, 3) AND n IS NOT NULL");
  ASSERT_TRUE(rel.ok());
  const ExprPtr& q = (*rel)->qualification;
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->fn, "and");
}

TEST(SqlParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("FOO BAR").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSql("SELECT 'unclosed FROM t").ok());
}

TEST(CrossCompilerTest, PrunesScanColumns) {
  Schema schema({Field("a", TypeId::kI64), Field("b", TypeId::kI64),
                 Field("c", TypeId::kI64), Field("unused", TypeId::kStr)});
  CrossCompiler cc([&](const std::string&) -> Result<Schema> {
    return schema;
  });
  struct Case {
    const char* sql;
    std::vector<std::string> columns;
  };
  const Case cases[] = {
      {"SELECT a + b AS ab FROM t WHERE c > 0", {"a", "b", "c"}},
      // Only the row count: one narrow column, not "unused".
      {"SELECT COUNT(*) FROM t", {"a"}},
  };
  for (const Case& c : cases) {
    auto rel = ParseSql(c.sql);
    ASSERT_TRUE(rel.ok()) << c.sql;
    auto alg = cc.Compile(*rel);
    ASSERT_TRUE(alg.ok()) << c.sql;
    const AlgebraNode* scan = alg->get();
    while (scan->kind != AlgebraNode::Kind::kScan) {
      scan = scan->children[0].get();
    }
    EXPECT_EQ(scan->scan_columns, c.columns) << c.sql;
  }
}

// ---------------------------------------------------------------------------
// End-to-end sessions
// ---------------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    auto b = db_->CreateTable(
        "emp",
        Schema({Field("id", TypeId::kI64), Field("dept", TypeId::kStr),
                Field("salary", TypeId::kF64),
                Field("bonus", TypeId::kF64, /*nullable=*/true)}),
        Layout::kDsm, 128);
    Rng rng(5);
    const char* depts[] = {"eng", "sales", "ops"};
    for (int i = 0; i < 1000; i++) {
      b->AppendRow({Value::I64(i), Value::Str(depts[i % 3]),
                    Value::F64(1000.0 + i),
                    i % 4 == 0 ? Value::Null(TypeId::kF64)
                               : Value::F64(i * 0.5)})
          .ok();
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    session_ = std::make_unique<Session>(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, CountStarCountsPdtInsertsAndDeletes) {
  // COUNT(*) scans one column; the PDT merge still decides the row count.
  UpdatableTable* emp = *db_->GetTable("emp");
  TransactionManager* tm = db_->txn_manager();
  auto txn = tm->Begin(emp);
  ASSERT_TRUE(txn->Delete(999).ok());
  ASSERT_TRUE(txn->Delete(10).ok());
  ASSERT_TRUE(txn->Delete(0).ok());
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(txn->Append({Value::I64(2000 + i), Value::Str("new"),
                             Value::F64(1.0), Value::Null(TypeId::kF64)})
                    .ok());
  }
  ASSERT_TRUE(tm->Commit(txn.get()).ok());
  for (int workers : {1, 4}) {
    db_->config().max_parallelism = workers;
    auto star = session_->ExecuteSql("SELECT COUNT(*) AS n FROM emp");
    ASSERT_TRUE(star.ok()) << star.status().ToString();
    EXPECT_EQ(star->rows[0][0].AsI64(), 1002) << "workers=" << workers;
    auto star_sel =
        session_->ExecuteSql("SELECT COUNT(*) AS n FROM emp WHERE id >= 2000");
    ASSERT_TRUE(star_sel.ok()) << star_sel.status().ToString();
    EXPECT_EQ(star_sel->rows[0][0].AsI64(), 5) << "workers=" << workers;
  }
  db_->config().max_parallelism = 0;
}

TEST_F(SessionTest, SimpleSelect) {
  auto res = session_->ExecuteSql(
      "SELECT id, salary FROM emp WHERE id < 3 ORDER BY id");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->rows[2][0].AsI64(), 2);
  EXPECT_DOUBLE_EQ(res->rows[2][1].AsF64(), 1002.0);
}

TEST_F(SessionTest, GroupByAggregation) {
  auto res = session_->ExecuteSql(
      "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal FROM emp "
      "GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 3u);
  EXPECT_EQ(res->rows[0][0].AsStr(), "eng");
  EXPECT_EQ(res->rows[0][1].AsI64(), 334);  // ids 0,3,6,…
}

TEST_F(SessionTest, NullableAggregationSkipsNulls) {
  auto res = session_->ExecuteSql("SELECT COUNT(bonus) AS nb FROM emp");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0][0].AsI64(), 750);  // 250 NULLs skipped
}

TEST_F(SessionTest, WhereWithBetweenAndFunctions) {
  auto res = session_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM emp WHERE salary BETWEEN 1100 AND 1199 "
      "AND upper(dept) = 'ENG'");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // ids 100..199 with id%3==0: 102, 105, …, 198 -> 33 rows.
  EXPECT_EQ(res->rows[0][0].AsI64(), 33);
}

TEST_F(SessionTest, DivisionByZeroFailsQuery) {
  auto res = session_->ExecuteSql("SELECT salary / (id - id) FROM emp");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDivisionByZero());
}

TEST_F(SessionTest, ParallelPlanMatchesSerial) {
  auto serial = session_->ExecuteSql(
      "SELECT dept, SUM(salary) AS s, COUNT(*) AS c, AVG(salary) AS a "
      "FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(serial.ok());
  db_->config().max_parallelism = 3;
  auto parallel = session_->ExecuteSql(
      "SELECT dept, SUM(salary) AS s, COUNT(*) AS c, AVG(salary) AS a "
      "FROM emp GROUP BY dept ORDER BY dept");
  db_->config().max_parallelism = 1;
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->rows.size(), parallel->rows.size());
  for (size_t i = 0; i < serial->rows.size(); i++) {
    for (size_t c = 0; c < serial->rows[i].size(); c++) {
      EXPECT_TRUE(serial->rows[i][c].SqlEquals(parallel->rows[i][c]))
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(SessionTest, QueryListingRecordsOutcomes) {
  ASSERT_TRUE(session_->ExecuteSql("SELECT COUNT(*) AS n FROM emp").ok());
  ASSERT_FALSE(session_->ExecuteSql("SELECT nope FROM emp").ok());
  auto queries = db_->queries()->List();
  int finished = 0, failed = 0;
  for (const auto& q : queries) {
    finished += q.state == QueryState::kFinished;
    failed += q.state == QueryState::kFailed;
  }
  EXPECT_GE(finished, 1);
  EXPECT_GE(failed, 1);
  EXPECT_GT(db_->events()->total_logged(), 0);
  EXPECT_GE(db_->counters()->Get("queries.total"), 2);
}

TEST_F(SessionTest, CancellationViaSession) {
  CancellationToken token;
  token.Cancel();  // pre-cancelled: must abort promptly and be recorded
  auto res = session_->ExecuteSql("SELECT COUNT(*) AS n FROM emp", &token);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled());
  bool saw_cancelled = false;
  for (const auto& q : db_->queries()->List()) {
    saw_cancelled |= q.state == QueryState::kCancelled;
  }
  EXPECT_TRUE(saw_cancelled);
}

// ---------------------------------------------------------------------------
// MinMax pushdown extraction (incl. flipped comparisons)
// ---------------------------------------------------------------------------

TEST(PushdownTest, ExtractsBothComparisonOrientations) {
  Schema schema({Field("x", TypeId::kI64), Field("y", TypeId::kI64)});
  // (x < 7) AND (100 > y): the second conjunct is flipped (`const OP col`)
  // and must mirror to y < 100.
  ExprPtr pred = And(Lt(Col("x"), Lit(Value::I64(7))),
                     Gt(Lit(Value::I64(100)), Col("y")));
  std::vector<ScanPredicate> out;
  ExtractScanPushdown(pred, schema, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].table_col, 0);
  EXPECT_EQ(out[0].op, RangeOp::kLt);
  EXPECT_EQ(out[0].value.AsI64(), 7);
  EXPECT_EQ(out[1].table_col, 1);
  EXPECT_EQ(out[1].op, RangeOp::kLt);  // 100 > y  =>  y < 100
  EXPECT_EQ(out[1].value.AsI64(), 100);
}

TEST(PushdownTest, MirrorsEveryFlippedOperator) {
  Schema schema({Field("x", TypeId::kI64)});
  const struct {
    const char* fn;
    RangeOp expect;
  } cases[] = {{"eq", RangeOp::kEq},
               {"lt", RangeOp::kGt},
               {"le", RangeOp::kGe},
               {"gt", RangeOp::kLt},
               {"ge", RangeOp::kLe}};
  for (const auto& c : cases) {
    std::vector<ScanPredicate> out;
    ExtractScanPushdown(Call(c.fn, {Lit(Value::I64(5)), Col("x")}), schema,
                        &out);
    ASSERT_EQ(out.size(), 1u) << c.fn;
    EXPECT_EQ(out[0].op, c.expect) << c.fn;
  }
}

TEST_F(SessionTest, FlippedComparisonStillSkipsGroups) {
  // emp has 1000 rows in groups of 128 with ascending ids; `100 > id`
  // can only match the first group, so MinMax must skip the rest.
  AlgebraPtr plan = AggrNode(
      SelectNode(ScanNode("emp"), Gt(Lit(Value::I64(100)), Col("id"))), {},
      {{AggKind::kCount, nullptr, "n"}});
  auto res = session_->Execute(std::move(plan));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows[0][0].AsI64(), 100);
  EXPECT_GT(res->profile.groups_skipped, 0);
}

// ---------------------------------------------------------------------------
// Morsel-driven parallelism + per-operator profiling
// ---------------------------------------------------------------------------

TEST_F(SessionTest, SkewedGroupsDeterministicAcrossWorkerCounts) {
  // `id < 140` makes group 0 heavy (128 matches), group 1 nearly empty
  // (12) and lets MinMax skip groups 2..7 — a skewed morsel workload.
  std::vector<std::vector<Value>> reference;
  for (int workers : {1, 2, 8}) {
    db_->config().max_parallelism = workers;
    db_->config().scheduler_workers = workers;
    AlgebraPtr plan = AggrNode(
        SelectNode(ScanNode("emp"), Lt(Col("id"), Lit(Value::I64(140)))),
        {{"dept", Col("dept")}},
        {{AggKind::kSum, Col("salary"), "s"},
         {AggKind::kCount, nullptr, "c"},
         {AggKind::kAvg, Col("salary"), "a"}});
    auto res = session_->Execute(
        OrderNode(std::move(plan), {{"dept", true}}));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    if (reference.empty()) {
      reference = res->rows;
      ASSERT_EQ(reference.size(), 3u);
    } else {
      ASSERT_EQ(res->rows.size(), reference.size()) << "workers=" << workers;
      for (size_t i = 0; i < reference.size(); i++) {
        for (size_t c = 0; c < reference[i].size(); c++) {
          EXPECT_TRUE(res->rows[i][c].SqlEquals(reference[i][c]))
              << "workers=" << workers << " row " << i << " col " << c;
        }
      }
    }
  }
  db_->config().max_parallelism = 0;
  db_->config().scheduler_workers = 0;
}

TEST_F(SessionTest, QueryResultCarriesOperatorProfile) {
  db_->config().max_parallelism = 2;
  auto res = session_->ExecuteSql(
      "SELECT dept, SUM(salary) AS s FROM emp GROUP BY dept");
  db_->config().max_parallelism = 1;
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_FALSE(res->profile.empty());
  int scans = 0;
  bool saw_parallel_agg = false;
  int64_t scan_rows = 0;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "Scan") {
      scans++;
      scan_rows += p.rows;
    }
    saw_parallel_agg |= p.op == "HashAgg(2)";
  }
  EXPECT_EQ(scans, 2);  // one per pipeline worker chain
  EXPECT_TRUE(saw_parallel_agg);
  EXPECT_EQ(scan_rows, 1000);  // morsels cover the table exactly once
  EXPECT_EQ(res->profile.tuples_scanned, 1000);
  EXPECT_GT(res->profile.wall_ns, 0);
  EXPECT_FALSE(res->profile.ToString().empty());

  // The registry retains the profile for post-hoc inspection.
  bool registry_has_profile = false;
  for (const auto& q : db_->queries()->List()) {
    registry_has_profile |=
        q.state == QueryState::kFinished && !q.profile.empty();
  }
  EXPECT_TRUE(registry_has_profile);
}

TEST_F(SessionTest, PhysicalPlannerIsPluggable) {
  // Copy the default planner and swap the kOrder factory: proof that new
  // physical operators need no engine edits.
  PhysicalPlanner custom = PhysicalPlanner::Default();
  auto hits = std::make_shared<int>(0);
  custom.Register(
      AlgebraNode::Kind::kOrder,
      [hits](const AlgebraPtr& node, PlannerContext* pc,
             const PhysicalPlanner* planner) -> Result<OperatorPtr> {
        (*hits)++;
        OperatorPtr child;
        X100_ASSIGN_OR_RETURN(child, planner->Build(node->children[0], pc));
        std::vector<SortKey> keys;
        for (const AlgebraNode::OrderKey& k : node->order_keys) {
          keys.push_back({child->output_schema().FindField(k.column),
                          k.ascending});
        }
        std::vector<OperatorPtr> chains;
        chains.push_back(std::move(child));
        return OperatorPtr(std::make_unique<SortOp>(
            std::move(chains), std::move(keys), node->limit));
      });
  session_->executor()->set_planner(&custom);
  auto res = session_->ExecuteSql(
      "SELECT id FROM emp WHERE id < 5 ORDER BY id");
  session_->executor()->set_planner(&PhysicalPlanner::Default());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 5u);
  EXPECT_EQ(res->rows[0][0].AsI64(), 0);
  EXPECT_EQ(*hits, 1);
}

// ---------------------------------------------------------------------------
// TPC-H: generation + vectorized-vs-Volcano agreement
// ---------------------------------------------------------------------------

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(tpch::Generate(db_, 0.002).ok());  // ~3000 lineitems
    session_ = new Session(db_);
  }
  static void TearDownTestSuite() {
    delete session_;
    delete db_;
    session_ = nullptr;
    db_ = nullptr;
  }
  static Database* db_;
  static Session* session_;
};

Database* TpchTest::db_ = nullptr;
Session* TpchTest::session_ = nullptr;

TEST_F(TpchTest, TablesPopulated) {
  auto li = db_->GetTable("lineitem");
  ASSERT_TRUE(li.ok());
  EXPECT_GT((*li)->visible_rows(), 1000);
  auto ord = db_->GetTable("orders");
  ASSERT_TRUE(ord.ok());
  EXPECT_GT((*ord)->visible_rows(), 100);
  EXPECT_EQ((*db_->GetTable("nation"))->visible_rows(), 25);
  EXPECT_EQ((*db_->GetTable("region"))->visible_rows(), 5);
}

TEST_F(TpchTest, Q1VectorizedMatchesVolcano) {
  auto vec = session_->Execute(tpch::Q1Plan());
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  ASSERT_GT(vec->rows.size(), 0u);
  ASSERT_LE(vec->rows.size(), 6u);  // at most |{A,N,R}| x |{F,O}|

  auto rows = tpch::MaterializeRows(db_, "lineitem");
  ASSERT_TRUE(rows.ok());
  auto vol_plan = tpch::Q1Volcano(&*rows);
  ASSERT_TRUE(vol_plan.ok()) << vol_plan.status().ToString();
  auto vol = volcano::Collect(vol_plan->get());
  ASSERT_TRUE(vol.ok());

  ASSERT_EQ(vec->rows.size(), vol->size());
  for (size_t i = 0; i < vol->size(); i++) {
    for (size_t c = 0; c < (*vol)[i].size(); c++) {
      const Value& a = vec->rows[i][c];
      const Value& b = (*vol)[i][c];
      if (a.type() == TypeId::kF64 || b.type() == TypeId::kF64) {
        EXPECT_NEAR(a.AsF64(), b.AsF64(), 1e-6 * (1 + std::abs(a.AsF64())))
            << "row " << i << " col " << c;
      } else {
        EXPECT_TRUE(a.SqlEquals(b)) << "row " << i << " col " << c << ": "
                                    << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

TEST_F(TpchTest, Q6VectorizedMatchesVolcano) {
  auto vec = session_->Execute(tpch::Q6Plan());
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  auto rows = tpch::MaterializeRows(db_, "lineitem");
  ASSERT_TRUE(rows.ok());
  auto vol_plan = tpch::Q6Volcano(&*rows);
  ASSERT_TRUE(vol_plan.ok());
  auto vol = volcano::Collect(vol_plan->get());
  ASSERT_TRUE(vol.ok());
  ASSERT_EQ(vec->rows.size(), 1u);
  ASSERT_EQ(vol->size(), 1u);
  if (vec->rows[0][0].is_null()) {
    EXPECT_TRUE((*vol)[0][0].is_null());
  } else {
    EXPECT_NEAR(vec->rows[0][0].AsF64(), (*vol)[0][0].AsF64(),
                1e-6 * (1 + std::abs(vec->rows[0][0].AsF64())));
  }
}

TEST_F(TpchTest, Q3ProducesRankedResults) {
  auto res = session_->Execute(tpch::Q3Plan());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_LE(res->rows.size(), 10u);
  // revenue column (index 3) must be descending.
  for (size_t i = 1; i < res->rows.size(); i++) {
    EXPECT_GE(res->rows[i - 1][3].AsF64(), res->rows[i][3].AsF64());
  }
}

TEST_F(TpchTest, Q1ParallelMatchesSerial) {
  auto serial = session_->Execute(tpch::Q1Plan());
  ASSERT_TRUE(serial.ok());
  db_->config().max_parallelism = 2;
  auto parallel = session_->Execute(tpch::Q1Plan());
  db_->config().max_parallelism = 1;
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->rows.size(), parallel->rows.size());
  for (size_t i = 0; i < serial->rows.size(); i++) {
    for (size_t c = 0; c < serial->rows[i].size(); c++) {
      const Value& a = serial->rows[i][c];
      const Value& b = parallel->rows[i][c];
      if (a.type() == TypeId::kF64) {
        EXPECT_NEAR(a.AsF64(), b.AsF64(), 1e-6 * (1 + std::abs(a.AsF64())));
      } else {
        EXPECT_TRUE(a.SqlEquals(b));
      }
    }
  }
}

TEST_F(TpchTest, SqlOverTpch) {
  auto res = session_->ExecuteSql(
      "SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_LE(res->rows.size(), 3u);
  int64_t total = 0;
  for (const auto& row : res->rows) total += row[1].AsI64();
  auto li = db_->GetTable("lineitem");
  EXPECT_EQ(total, (*li)->visible_rows());
}

}  // namespace
}  // namespace x100
