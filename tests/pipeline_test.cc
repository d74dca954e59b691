// Pipeline-executor tests: parallel join build + probe, parallel sort,
// group-by-join pipelines, determinism across worker counts on skewed
// build sides, cancellation mid-pipeline, empty-input pipelines, and
// per-query admission control (TaskQuota).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/config.h"
#include "common/task_scheduler.h"
#include "engine/physical_plan.h"
#include "engine/session.h"
#include "exec/sort.h"
#include "tpch/tpch.h"
#include "volcano/volcano.h"

namespace x100 {
namespace {

// ---------------------------------------------------------------------------
// TaskQuota (admission control)
// ---------------------------------------------------------------------------

TEST(TaskQuotaTest, GrantsAreBoundedAndNeverZero) {
  TaskQuota q(4);
  EXPECT_EQ(q.Acquire(3), 3);  // room
  EXPECT_EQ(q.Acquire(8), 1);  // only 1 slot left
  // Full: the escape valve still grants 1 so a query always progresses.
  EXPECT_EQ(q.Acquire(5), 1);
  q.Release(5);
  EXPECT_EQ(q.Acquire(8), 4);
  q.Release(4);
  EXPECT_EQ(q.in_use(), 0);
}

TEST(TaskQuotaTest, UnlimitedGrantsWhatIsAsked) {
  TaskQuota q(0);
  EXPECT_EQ(q.Acquire(64), 64);
  EXPECT_EQ(q.in_use(), 0);
  q.Release(64);  // no-op, must not underflow
  EXPECT_EQ(q.Acquire(1), 1);
}

// ---------------------------------------------------------------------------
// Fixture: a dimension table and a fact table with a skewed key column.
// Half the fact rows share ONE join key, so morsels are heavily skewed
// toward a single build-side group — the adversarial case for static
// partitioning that dynamic morsel handout must absorb.
// ---------------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    {
      auto b = db_->CreateTable(
          "dim",
          Schema({Field("k", TypeId::kI64), Field("label", TypeId::kStr)}),
          Layout::kDsm, 32);
      for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(
            b->AppendRow({Value::I64(i),
                          Value::Str("lab" + std::to_string(i % 7))})
                .ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    {
      auto b = db_->CreateTable(
          "fact",
          Schema({Field("fk", TypeId::kI64), Field("val", TypeId::kI64)}),
          Layout::kDsm, 256);
      for (int i = 0; i < 5000; i++) {
        // Skew: rows 0..2499 all hit build key 7.
        const int64_t key = i < 2500 ? 7 : i % 100;
        ASSERT_TRUE(b->AppendRow({Value::I64(key), Value::I64(i)}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    {
      // Every row carries ONE key value: with radix partitioning enabled
      // the whole build side lands in a single partition — the worst
      // case for the merge fan-out (all other merge tasks get nothing).
      auto b = db_->CreateTable(
          "mono",
          Schema({Field("k", TypeId::kI64), Field("tag", TypeId::kI64)}),
          Layout::kDsm, 64);
      for (int i = 0; i < 500; i++) {
        ASSERT_TRUE(b->AppendRow({Value::I64(42), Value::I64(i)}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    session_ = std::make_unique<Session>(db_.get());
  }

  void SetWorkers(int workers) {
    db_->config().max_parallelism = workers;
    db_->config().scheduler_workers = workers;
  }

  void SetRadixBits(int bits) { db_->config().radix_bits = bits; }

  /// Join fact against dim, keep (val, label), order by unique val — the
  /// unique sort key makes the result fully deterministic.
  AlgebraPtr JoinPlan() {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    return OrderNode(std::move(join), {{"val", true}});
  }

  /// Group-by-join: join, aggregate per label, order by label.
  AlgebraPtr GroupByJoinPlan() {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    AlgebraPtr aggr = AggrNode(std::move(join), {{"label", Col("label")}},
                               {{AggKind::kSum, Col("val"), "s"},
                                {AggKind::kCount, nullptr, "c"},
                                {AggKind::kMin, Col("val"), "lo"},
                                {AggKind::kMax, Col("val"), "hi"}});
    return OrderNode(std::move(aggr), {{"label", true}});
  }

  /// A join whose build side is an aggregation (per-fk sums) probed by
  /// dim, ordered by the unique dim key: the build drain runs a one-chain
  /// aggregation sink that spawns its own tasks.
  AlgebraPtr AggBuildJoinPlan() {
    AlgebraPtr per_fk = AggrNode(ScanNode("fact"), {{"fk", Col("fk")}},
                                 {{AggKind::kSum, Col("val"), "s"},
                                  {AggKind::kCount, nullptr, "c"}});
    AlgebraPtr join = JoinNode(std::move(per_fk), ScanNode("dim"),
                               JoinType::kInner, {"fk"}, {"k"});
    return OrderNode(std::move(join), {{"k", true}});
  }

  /// A join whose build side is ORDER BY ... LIMIT (the top fact rows),
  /// ordered by the unique fact value: a one-chain top-N sink inside the
  /// build drain.
  AlgebraPtr TopNBuildJoinPlan() {
    AlgebraPtr top = OrderNode(ScanNode("fact"), {{"val", false}},
                               /*limit=*/50);
    AlgebraPtr join = JoinNode(std::move(top), ScanNode("dim"),
                               JoinType::kInner, {"fk"}, {"k"});
    return OrderNode(std::move(join), {{"val", true}});
  }

  static void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                             const std::string& what) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
    for (size_t i = 0; i < a.rows.size(); i++) {
      for (size_t c = 0; c < a.rows[i].size(); c++) {
        EXPECT_TRUE(a.rows[i][c].SqlEquals(b.rows[i][c]))
            << what << " row " << i << " col " << c;
      }
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

// ---------------------------------------------------------------------------
// Parallel join probe
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ParallelJoinProbeDeterministicAcrossWorkerCounts) {
  SetWorkers(1);
  auto reference = session_->Execute(JoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 5000u);  // every fact row matches
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(JoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "join probe workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, JoinPhasesRunAsSchedulerTasks) {
  // Explicit radix_bits: dim (100 rows) is under the tiny-build cutoff,
  // so AUTO sizing would collapse to one merge task — the explicit
  // setting keeps the fan-out observable.
  SetWorkers(4);
  SetRadixBits(3);
  auto res = session_->Execute(JoinPlan());
  SetWorkers(0);
  SetRadixBits(-1);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  int probe_clones = 0, scans = 0, merge_tasks = 0;
  bool saw_parallel_sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "JoinProbe[inner]") probe_clones++;
    if (p.op == "Scan") scans++;
    if (p.op == "JoinBuildMerge") merge_tasks++;
    saw_parallel_sort |= p.op.rfind("Sort(", 0) == 0;
  }
  // The build's barrier merge fans out one task per radix partition.
  EXPECT_EQ(merge_tasks, 1 << 3);
  EXPECT_EQ(probe_clones, 4);      // probe cloned per sort worker chain
  EXPECT_EQ(scans, 8);             // 4 build-side + 4 probe-side clones
  EXPECT_TRUE(saw_parallel_sort);  // the pipeline's sink
}

TEST_F(PipelineTest, TinyBuildCollapsesAutoPartitioning) {
  // ROADMAP-noted waste: a tiny build used to pay ~2^radix_bits empty
  // per-worker partition buffers. Under AUTO sizing the planner now
  // bounds the build by its scan spine (dim: 100 rows < kTinyBuildRows)
  // and keeps the single-table path — exactly one JoinBuildMerge task.
  SetWorkers(4);
  SetRadixBits(-1);
  auto auto_sized = session_->Execute(JoinPlan());
  ASSERT_TRUE(auto_sized.ok()) << auto_sized.status().ToString();
  int auto_merges = 0;
  for (const OperatorProfile& p : auto_sized->profile.operators) {
    if (p.op == "JoinBuildMerge") auto_merges++;
  }
  EXPECT_EQ(auto_merges, 1);
  SetWorkers(0);
}

TEST_F(PipelineTest, GroupByJoinDeterministicAcrossWorkerCounts) {
  SetWorkers(1);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 7u);  // labels lab0..lab6
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(GroupByJoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "group-by-join workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, GroupByJoinAllPhasesProfiled) {
  // The acceptance shape: build, probe, aggregation and sort all visible
  // as pipeline phases in the query profile.
  SetWorkers(4);
  auto res = session_->Execute(GroupByJoinPlan());
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  bool build = false, probe = false, agg = false, agg_merge = false,
       sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    build |= p.op == "JoinBuildMerge";
    probe |= p.op == "JoinProbe[inner]";
    agg |= p.op == "HashAgg(4)";
    agg_merge |= p.op == "AggMerge";
    sort |= p.op.rfind("Sort(", 0) == 0;
  }
  EXPECT_TRUE(build);
  EXPECT_TRUE(probe);
  EXPECT_TRUE(agg);
  EXPECT_TRUE(agg_merge);
  EXPECT_TRUE(sort);
}

TEST_F(PipelineTest, LeftOuterAndSemiJoinParallelMatchSerial) {
  for (JoinType type : {JoinType::kLeftOuter, JoinType::kSemi,
                        JoinType::kAnti}) {
    // Probe dim against fact keys so some probe rows have no match
    // (fact keys cover 0..99 but dim probes against skewed fk values).
    auto make_plan = [&] {
      AlgebraPtr join =
          JoinNode(ScanNode("fact", {"fk"}), ScanNode("dim"), type, {"fk"},
                   {"k"});
      return OrderNode(std::move(join), {{"k", true}});
    };
    SetWorkers(1);
    auto serial = session_->Execute(make_plan());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    SetWorkers(8);
    auto parallel = session_->Execute(make_plan());
    SetWorkers(0);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameRows(*serial, *parallel,
                   std::string("join type ") + JoinTypeName(type));
  }
}

// ---------------------------------------------------------------------------
// Radix-partitioned merge (join build + aggregation)
// ---------------------------------------------------------------------------

TEST(EffectiveRadixBitsTest, SizesFromPipelineWidth) {
  // Serial plans never partition; auto targets ~2x the worker count.
  EXPECT_EQ(EffectiveRadixBits(-1, 1), 0);
  EXPECT_EQ(EffectiveRadixBits(-1, 2), 2);   // 4 partitions
  EXPECT_EQ(EffectiveRadixBits(-1, 8), 4);   // 16 partitions
  EXPECT_EQ(EffectiveRadixBits(-1, 1024), kMaxRadixBits);  // capped
  // Explicit settings pass through (capped), 0 disables.
  EXPECT_EQ(EffectiveRadixBits(0, 8), 0);
  EXPECT_EQ(EffectiveRadixBits(4, 2), 4);
  EXPECT_EQ(EffectiveRadixBits(100, 8), kMaxRadixBits);
}

TEST(EffectiveRadixBitsTest, TinyBuildsSkipPartitioning) {
  // Builds bounded under kTinyBuildRows keep the single-table path (the
  // per-worker 2^bits empty partition buffers outweigh the merge they
  // parallelize); unknown cardinality (-1) keeps partitioning.
  EXPECT_EQ(RadixBitsForBuild(4, 0), 0);
  EXPECT_EQ(RadixBitsForBuild(4, kTinyBuildRows - 1), 0);
  EXPECT_EQ(RadixBitsForBuild(4, kTinyBuildRows), 4);
  EXPECT_EQ(RadixBitsForBuild(4, -1), 4);
  EXPECT_EQ(RadixBitsForBuild(0, kTinyBuildRows * 2), 0);
}

TEST_F(PipelineTest, RadixSweepDeterministicAcrossWorkersAndBits) {
  // The acceptance sweep: radix_bits in {0, 2, 4} x workers in {1, 2, 8}
  // must all produce the single-table serial reference, groups included —
  // also when a breaker sits inside a join's build side.
  struct Case {
    const char* name;
    std::function<AlgebraPtr()> plan;
    size_t rows;
  };
  const Case cases[] = {
      {"group-by-join", [this] { return GroupByJoinPlan(); }, 7},
      {"agg-build-join", [this] { return AggBuildJoinPlan(); }, 100},
      {"topn-build-join", [this] { return TopNBuildJoinPlan(); }, 50},
  };
  for (const Case& c : cases) {
    SetWorkers(1);
    SetRadixBits(0);
    auto reference = session_->Execute(c.plan());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference->rows.size(), c.rows) << c.name;
    for (int bits : {0, 2, 4}) {
      for (int workers : {1, 2, 8}) {
        SetWorkers(workers);
        SetRadixBits(bits);
        auto res = session_->Execute(c.plan());
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        ExpectSameRows(*reference, *res,
                       std::string(c.name) +
                           " radix_bits=" + std::to_string(bits) +
                           " workers=" + std::to_string(workers));
      }
    }
  }
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, SkewedKeysCollapseIntoOnePartition) {
  // Build side `mono` has a single distinct key: every row hashes into
  // ONE radix partition, so one merge task carries the entire table and
  // the other 2^bits - 1 merge empty partitions. Results must not care.
  auto plan = [] {
    AlgebraPtr join =
        JoinNode(ScanNode("mono"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    AlgebraPtr aggr =
        AggrNode(std::move(join), {{"fk", Col("fk")}},
                 {{AggKind::kCount, nullptr, "n"},
                  {AggKind::kSum, Col("tag"), "s"}});
    return OrderNode(std::move(aggr), {{"fk", true}});
  };
  SetWorkers(1);
  SetRadixBits(0);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // fact rows with fk == 42: i in [2500, 5000) with i % 100 == 42.
  ASSERT_EQ(reference->rows.size(), 1u);
  EXPECT_EQ(reference->rows[0][1].AsI64(), 25 * 500);
  SetRadixBits(4);
  for (int workers : {1, 2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(plan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "skewed workers=" + std::to_string(workers));
  }
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, SumOfI64WrapsAtAnyRadixBitsAndWorkers) {
  // Each group's i64 sum passes INT64_MAX once: in the partitioned fold,
  // or in the barrier merge when the workers' partial sums are added.
  // Both must wrap as the fold kernels do, so every run equals the sum
  // in uint64_t arithmetic.
  constexpr int kRows = 4000, kKeys = 8;
  auto b = db_->CreateTable(
      "wrap", Schema({Field("k", TypeId::kI64), Field("v", TypeId::kI64)}),
      Layout::kDsm, 64);
  std::vector<uint64_t> want(kKeys, 0);
  for (int i = 0; i < kRows; i++) {
    const int64_t v = INT64_MAX / 300 + int64_t{7919} * i;
    ASSERT_TRUE(b->AppendRow({Value::I64(i % kKeys), Value::I64(v)}).ok());
    want[i % kKeys] += static_cast<uint64_t>(v);
  }
  auto t = b->Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
  for (int bits : {0, 3}) {
    for (int workers : {1, 4}) {
      SetWorkers(workers);
      SetRadixBits(bits);
      const std::string what = "radix_bits=" + std::to_string(bits) +
                               " workers=" + std::to_string(workers);
      auto res = session_->ExecuteSql(
          "SELECT k, SUM(v) AS s FROM wrap GROUP BY k ORDER BY k");
      ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
      ASSERT_EQ(res->rows.size(), static_cast<size_t>(kKeys)) << what;
      for (int k = 0; k < kKeys; k++) {
        EXPECT_EQ(res->rows[k][0].AsI64(), k) << what;
        EXPECT_EQ(res->rows[k][1].AsI64(), static_cast<int64_t>(want[k]))
            << what << " k=" << k;
      }
    }
  }
  SetWorkers(0);
  SetRadixBits(-1);
}

// ---------------------------------------------------------------------------
// Key order and key equality in the breakers: NaN, -0.0, NULL, ""
// ---------------------------------------------------------------------------

/// Registers table `name` (k: a nullable key of `type`, v: the row
/// number) holding `keys` in order.
void RegisterKeyTable(Database* db, const std::string& name, TypeId type,
                      const std::vector<Value>& keys) {
  auto b = db->CreateTable(
      name, Schema({Field("k", type, true), Field("v", TypeId::kI64)}),
      Layout::kDsm, 512);
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(
        b->AppendRow({keys[i], Value::I64(static_cast<int64_t>(i))}).ok());
  }
  auto t = b->Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db->RegisterTable(std::move(t).value()).ok());
}

/// Sort class of a key: 0 a number, 1 NaN, 2 NULL.
int KeyClass(const Value& k) {
  return k.is_null() ? 2 : (std::isnan(k.AsF64()) ? 1 : 0);
}

/// Both NULL, both NaN, or equal values.
bool SameKey(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (std::isnan(a.AsF64()) || std::isnan(b.AsF64())) {
    return std::isnan(a.AsF64()) && std::isnan(b.AsF64());
  }
  return a.AsF64() == b.AsF64();
}

/// Ascending: numbers ascending, then NaN, then NULL; descending mirrors.
void ExpectKeyOrder(const std::vector<std::vector<Value>>& rows,
                    bool ascending, const std::string& what) {
  for (size_t r = 1; r < rows.size(); r++) {
    const Value& a = rows[ascending ? r - 1 : r][0];
    const Value& b = rows[ascending ? r : r - 1][0];
    ASSERT_LE(KeyClass(a), KeyClass(b)) << what << " row " << r;
    if (KeyClass(a) == 0 && KeyClass(b) == 0) {
      ASSERT_LE(a.AsF64(), b.AsF64()) << what << " row " << r;
    }
  }
}

TEST_F(PipelineTest, NaNKeysSortAfterNumbersAndBeforeNulls) {
  // A NaN that compared "equal" to every number handed std::sort and
  // std::partial_sort a comparator that is not a strict weak order: rows
  // came out with numbers out of order, and where the NaN groups landed
  // depended on the radix width. Numbers ascend, then NaNs, then NULLs,
  // at any width, in a top-N, and as Volcano's sort orders them.
  constexpr int kRows = 4000;
  constexpr int64_t kLimit = 500;
  std::vector<Value> keys;
  for (int i = 0; i < kRows; i++) {
    if (i % 11 == 3) {
      keys.push_back(Value::F64(std::nan("")));
    } else if (i % 53 == 7) {
      keys.push_back(Value::Null(TypeId::kF64));
    } else {
      keys.push_back(Value::F64((i * 7919 % 1000) / 4.0 - 60.0));
    }
  }
  RegisterKeyTable(db_.get(), "nan_keys", TypeId::kF64, keys);
  auto rows = tpch::MaterializeRows(db_.get(), "nan_keys");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const Schema schema({Field("k", TypeId::kF64, true),
                       Field("v", TypeId::kI64)});
  // (k, v) orders every row: v is unique, and NaNs tie with each other.
  const auto volcano_sort = [&](bool ascending, int64_t limit) {
    volcano::VSort sort(std::make_unique<volcano::VScan>(schema, &*rows),
                        {{0, ascending}, {1, true}}, limit);
    auto out = volcano::Collect(&sort);
    EXPECT_TRUE(out.ok());
    return out.ok() ? *out : std::vector<volcano::Row>{};
  };
  const std::vector<volcano::Row> full = volcano_sort(true, -1);
  const std::vector<volcano::Row> top = volcano_sort(false, kLimit);
  ASSERT_EQ(full.size(), static_cast<size_t>(kRows));
  ExpectKeyOrder(full, true, "volcano");
  ExpectKeyOrder(top, false, "volcano top-N");

  for (int bits : {0, 3}) {
    for (int workers : {1, 4}) {
      SetWorkers(workers);
      SetRadixBits(bits);
      const std::string what = "radix_bits=" + std::to_string(bits) +
                               " workers=" + std::to_string(workers);
      struct Query {
        const char* name;
        bool ascending;
        int64_t limit;
        const std::vector<volcano::Row>* want;
      };
      const Query queries[] = {{"order by", true, -1, &full},
                               {"top-N", false, kLimit, &top}};
      for (const Query& q : queries) {
        auto res = session_->Execute(OrderNode(
            ScanNode("nan_keys"), {{"k", q.ascending}, {"v", true}}, q.limit));
        ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
        ExpectKeyOrder(res->rows, q.ascending, what + " " + q.name);
        ASSERT_EQ(res->rows.size(), q.want->size()) << what << " " << q.name;
        for (size_t r = 0; r < res->rows.size(); r++) {
          ASSERT_TRUE(SameKey(res->rows[r][0], (*q.want)[r][0]) &&
                      res->rows[r][1].AsI64() == (*q.want)[r][1].AsI64())
              << what << " " << q.name << " row " << r << ": "
              << res->rows[r][0].ToString() << " vs "
              << (*q.want)[r][0].ToString();
        }
      }
      auto grouped = session_->ExecuteSql(
          "SELECT k, COUNT(*) AS c FROM nan_keys GROUP BY k ORDER BY k");
      ASSERT_TRUE(grouped.ok()) << what << ": "
                                << grouped.status().ToString();
      ExpectKeyOrder(grouped->rows, true, what + " group by");
    }
  }
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, KeyEqualityIsTheSameInGroupByAndJoin) {
  // One key equality serves the group-by and the join: NULL groups with
  // NULL but never joins, NaN equals nothing (each NaN row is its own
  // group), -0.0 equals 0.0, and "" is not NULL. Thousands of filler keys
  // that match nothing make the tables large enough to spill and reload
  // under a memory limit; the answer is the same at every point.
  constexpr int kFiller = 20000;
  const Value nan = Value::F64(std::nan(""));
  const Value f64_null = Value::Null(TypeId::kF64);
  const Value str_null = Value::Null(TypeId::kStr);
  std::vector<Value> fa = {Value::F64(0.0), Value::F64(-0.0), nan, nan, nan,
                           f64_null, f64_null, Value::F64(1.5)};
  std::vector<Value> fb = {Value::F64(0.0), nan, f64_null, Value::F64(1.5),
                           Value::F64(-0.0)};
  std::vector<Value> sa = {Value::Str(""), Value::Str(""), Value::Str("x"),
                           str_null, str_null, Value::Str("yy")};
  std::vector<Value> sb = {Value::Str(""), str_null, Value::Str("yy"),
                           Value::Str("x"), Value::Str("zz")};
  for (int i = 0; i < kFiller; i++) {
    fa.push_back(Value::F64(1000.0 + i));
    fb.push_back(Value::F64(-1000.0 - i));
    sa.push_back(Value::Str("a" + std::to_string(i)));
    sb.push_back(Value::Str("b" + std::to_string(i)));
  }
  RegisterKeyTable(db_.get(), "fa", TypeId::kF64, fa);
  RegisterKeyTable(db_.get(), "fb", TypeId::kF64, fb);
  RegisterKeyTable(db_.get(), "sa", TypeId::kStr, sa);
  RegisterKeyTable(db_.get(), "sb", TypeId::kStr, sb);

  const auto group_plan = [](const char* a) {
    return AggrNode(ScanNode(a), {{"k", Col("k")}},
                    {{AggKind::kCount, nullptr, "c"}});
  };
  const auto join_plan = [](const char* a, const char* b) {
    AlgebraPtr rb = ProjectNode(ScanNode(b), {{"kb", Col("k")}});
    return JoinNode(std::move(rb), ScanNode(a), JoinType::kInner, {"kb"},
                    {"k"});
  };
  // The special keys' groups and the join's rows, as strings.
  const auto key_str = [](const Value& k) {
    if (k.is_null()) return std::string("NULL");
    if (k.type() == TypeId::kStr) return "'" + k.AsStr() + "'";
    if (std::isnan(k.AsF64())) return std::string("NaN");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", k.AsF64() == 0.0 ? 0.0 : k.AsF64());
    return std::string(buf);
  };
  const auto groups = [&](const QueryResult& res) {
    std::vector<std::string> out;
    for (const auto& row : res.rows) {
      const Value& k = row[0];
      const bool filler =
          !k.is_null() && (k.type() == TypeId::kStr
                               ? k.AsStr().rfind("a", 0) == 0
                               : k.AsF64() >= 1000.0);
      if (!filler) {
        out.push_back(key_str(k) + ":" + std::to_string(row[1].AsI64()));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto pairs = [&](const QueryResult& res) {
    std::vector<std::string> out;
    for (const auto& row : res.rows) {
      out.push_back(key_str(row[0]) + "=" + key_str(row[2]));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::string> f64_groups = {
      "0:2", "1.5:1", "NULL:2", "NaN:1", "NaN:1", "NaN:1"};
  const std::vector<std::string> f64_pairs = {"0=0", "0=0", "0=0", "0=0",
                                              "1.5=1.5"};
  const std::vector<std::string> str_groups = {"'':2", "'x':1", "'yy':1",
                                               "NULL:2"};
  const std::vector<std::string> str_pairs = {"''=''", "''=''", "'x'='x'",
                                              "'yy'='yy'"};

  // The unlimited peak of each query sizes its spilling limit.
  struct Point {
    int workers, bits;
    bool limited;
  };
  const Point points[] = {{1, 0, false}, {1, 3, false}, {4, 0, false},
                          {4, 3, false}, {4, 3, true}};
  for (const Point& pt : points) {
    SetWorkers(pt.workers);
    SetRadixBits(pt.bits);
    const std::string what = "workers=" + std::to_string(pt.workers) +
                             " radix_bits=" + std::to_string(pt.bits) +
                             (pt.limited ? " limited" : "");
    for (const bool str : {false, true}) {
      const char* a = str ? "sa" : "fa";
      const char* b = str ? "sb" : "fb";
      for (const bool join : {false, true}) {
        db_->config().memory_limit = 0;
        int64_t spill_bytes = 0;
        if (pt.limited) {
          db_->memory()->ResetPeak();
          auto unlimited = session_->Execute(join ? join_plan(a, b)
                                                  : group_plan(a));
          ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
          db_->config().memory_limit = db_->memory()->peak() / 24;
        }
        auto res = session_->Execute(join ? join_plan(a, b) : group_plan(a));
        ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
        for (const OperatorProfile& p : res->profile.operators) {
          if (p.op == (join ? "JoinBuildSpill" : "AggSpill") ||
              (join && p.op == "JoinBuildDefer")) {
            spill_bytes += p.spill_bytes;
          }
        }
        if (pt.limited) {
          EXPECT_GT(spill_bytes, 0) << what << " " << a;
        }
        if (join) {
          EXPECT_EQ(pairs(*res), str ? str_pairs : f64_pairs)
              << what << " " << a;
        } else {
          EXPECT_EQ(groups(*res), str ? str_groups : f64_groups)
              << what << " " << a;
          EXPECT_EQ(res->rows.size(),
                    (str ? str_groups : f64_groups).size() + kFiller)
              << what << " " << a;
        }
      }
    }
  }
  db_->config().memory_limit = 0;
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, PartitionCountVsWorkerCountMismatch) {
  // More partitions than workers (16 vs 2) and fewer partitions than
  // workers (2 vs 8): the merge fan-out must cover every partition
  // regardless of how many tasks the quota/scheduler actually grants.
  SetWorkers(1);
  SetRadixBits(0);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  struct Case { int workers, bits; };
  for (const Case c : {Case{2, 4}, Case{8, 1}, Case{1, 4}}) {
    SetWorkers(c.workers);
    SetRadixBits(c.bits);
    auto res = session_->Execute(GroupByJoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "workers=" + std::to_string(c.workers) +
                       " bits=" + std::to_string(c.bits));
  }
  // Keyless aggregation ignores radix_bits (one global group).
  SetWorkers(8);
  SetRadixBits(4);
  auto keyless = session_->Execute(AggrNode(
      ScanNode("fact"), {}, {{AggKind::kSum, Col("val"), "s"}}));
  ASSERT_TRUE(keyless.ok()) << keyless.status().ToString();
  ASSERT_EQ(keyless->rows.size(), 1u);
  EXPECT_EQ(keyless->rows[0][0].AsI64(), 4999LL * 5000 / 2);
  SetWorkers(0);
  SetRadixBits(-1);
}

TEST_F(PipelineTest, RootJoinProbeRunsParallel) {
  // A join at the plan ROOT (no Aggr/Order sink): the probe clones are
  // the root drain's chains, so probe work is executed by more than one
  // worker — previously the root probe was serial.
  AlgebraPtr root_join = [this] {
    return JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                    {"k"}, {"fk"});
  }();
  SetWorkers(1);
  auto serial = session_->Execute(
      JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner, {"k"},
               {"fk"}));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->rows.size(), 5000u);
  SetWorkers(4);
  auto parallel = session_->Execute(std::move(root_join));
  SetWorkers(0);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  // Union order is nondeterministic; compare as sets keyed by the unique
  // probe column `val` (output column 1: probe fk,val then build k,label).
  auto sort_rows = [](QueryResult* r) {
    std::sort(r->rows.begin(), r->rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                return a[1].AsI64() < b[1].AsI64();
              });
  };
  sort_rows(&*serial);
  sort_rows(&*parallel);
  ExpectSameRows(*serial, *parallel, "root join");
  int probe_clones = 0;
  for (const OperatorProfile& p : parallel->profile.operators) {
    if (p.op == "JoinProbe[inner]") probe_clones++;
  }
  EXPECT_EQ(probe_clones, 4);  // probe cloned per pipeline worker
}

TEST_F(PipelineTest, RootProjectOverJoinProbeRunsParallel) {
  // Select/Project links over a root join parallelize the same way —
  // the root dispatch walks the streaming spine, not just a bare join.
  auto plan = [] {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    std::vector<ProjectItem> items;
    items.push_back({"val", Col("val")});
    items.push_back({"label", Col("label")});
    return ProjectNode(std::move(join), std::move(items));
  };
  SetWorkers(1);
  auto serial = session_->Execute(plan());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->rows.size(), 5000u);
  SetWorkers(4);
  auto parallel = session_->Execute(plan());
  SetWorkers(0);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  auto sort_rows = [](QueryResult* r) {
    std::sort(r->rows.begin(), r->rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                return a[0].AsI64() < b[0].AsI64();  // val is unique
              });
  };
  sort_rows(&*serial);
  sort_rows(&*parallel);
  ExpectSameRows(*serial, *parallel, "root project-over-join");
  int probe_clones = 0;
  for (const OperatorProfile& p : parallel->profile.operators) {
    if (p.op == "JoinProbe[inner]") probe_clones++;
  }
  EXPECT_EQ(probe_clones, 4);
}

TEST_F(PipelineTest, OneItemPipelinesSpawnNoTask) {
  // At max_parallelism 1 every pipeline of a sort over an aggregation
  // over a scan has one item (one chain, one merge partition, one sort
  // range), and a one-item pipeline runs on the calling thread. Read-ahead
  // is off: its pump is a pool task, and the warm-up's could run after the
  // snapshot.
  SetWorkers(1);
  const int64_t prefetch_budget = db_->config().prefetch_budget_bytes;
  db_->config().prefetch_budget_bytes = 0;
  const auto plan = [] {
    AlgebraPtr agg = AggrNode(ScanNode("fact"), {{"fk", Col("fk")}},
                              {{AggKind::kSum, Col("val"), "s"}});
    return OrderNode(std::move(agg), {{"fk", true}});
  };
  ASSERT_TRUE(session_->Execute(plan()).ok());  // warm-up
  TaskScheduler* pool = db_->scheduler();
  ASSERT_EQ(pool->num_workers(), 1);
  const int64_t before = pool->tasks_run();
  const int64_t prefetches = db_->buffers()->prefetch_issued();
  auto res = session_->Execute(plan());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 100u);
  EXPECT_EQ(db_->buffers()->prefetch_issued(), prefetches);
  EXPECT_EQ(pool->tasks_run(), before);
  db_->config().prefetch_budget_bytes = prefetch_budget;
  SetWorkers(0);
}

TEST_F(PipelineTest, BareLimitStopsTheScan) {
  // A LIMIT without ORDER BY is the root drain's row limit: the scan
  // stops after one vector, no row is buffered, and no TopN runs.
  for (int workers : {1, 4}) {
    SetWorkers(workers);
    const std::string what = "workers=" + std::to_string(workers);
    db_->memory()->ResetPeak();
    auto res = session_->ExecuteSql("SELECT fk, val FROM fact LIMIT 10");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->rows.size(), 10u) << what;
    EXPECT_LE(res->profile.tuples_scanned, db_->config().vector_size) << what;
    EXPECT_EQ(db_->memory()->peak(), 0) << what;
    for (const OperatorProfile& p : res->profile.operators) {
      EXPECT_NE(p.op.rfind("TopN", 0), 0u) << what;
    }
    auto none = session_->ExecuteSql("SELECT fk, val FROM fact LIMIT 0");
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_EQ(none->rows.size(), 0u) << what;
    EXPECT_EQ(none->schema.num_fields(), 2) << what;
    auto all = session_->ExecuteSql("SELECT fk, val FROM fact LIMIT 99999");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->rows.size(), 5000u) << what;
    for (int64_t i = 0; i < 5000; i++) {
      ASSERT_EQ(all->rows[i][1].AsI64(), i) << what;  // scan order
    }
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, BareLimitOverSpillingRootJoin) {
  // The root join's probe clones stop once 10 rows have arrived, with the
  // build spilled under a memory limit and probe rows on their way to
  // deferred partitions: every charge and every spilled byte still goes.
  constexpr int kRows = 50000;
  std::vector<Value> keys;
  for (int i = 0; i < kRows; i++) keys.push_back(Value::I64(i));
  RegisterKeyTable(db_.get(), "lim_build", TypeId::kI64, keys);
  RegisterKeyTable(db_.get(), "lim_probe", TypeId::kI64, keys);
  const auto join = [] {
    AlgebraPtr build = ProjectNode(ScanNode("lim_build"), {{"kb", Col("k")}});
    return JoinNode(std::move(build), ScanNode("lim_probe"), JoinType::kInner,
                    {"kb"}, {"k"});
  };
  SetWorkers(4);
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto unlimited = session_->Execute(join());
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_EQ(unlimited->rows.size(), static_cast<size_t>(kRows));
  db_->config().memory_limit = db_->memory()->peak() / 24;
  auto res = session_->Execute(OrderNode(join(), {}, 10));
  db_->config().memory_limit = 0;
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 10u);
  int64_t build_spill = 0;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "JoinBuildSpill" || p.op == "JoinBuildDefer") {
      build_spill += p.spill_bytes;
    }
  }
  EXPECT_GT(build_spill, 0);
  EXPECT_EQ(db_->memory()->used(), 0);
  auto device = db_->spill_device();
  ASSERT_TRUE(device.ok());
  EXPECT_EQ((*device)->spill_bytes_in_use(), 0);
}

// ---------------------------------------------------------------------------
// Parallel sort
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ParallelSortDeterministicAcrossWorkerCounts) {
  auto plan = [] {
    return OrderNode(ScanNode("fact"), {{"val", false}});  // descending
  };
  SetWorkers(1);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 5000u);
  EXPECT_EQ(reference->rows[0][1].AsI64(), 4999);
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(plan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "sort workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, ParallelTopNDeterministicAcrossWorkerCounts) {
  auto plan = [] {
    return OrderNode(ScanNode("fact"), {{"val", true}}, /*limit=*/17);
  };
  SetWorkers(1);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->rows.size(), 17u);
  for (int workers : {2, 8}) {
    SetWorkers(workers);
    auto res = session_->Execute(plan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectSameRows(*reference, *res,
                   "topn workers=" + std::to_string(workers));
  }
  SetWorkers(0);
}

TEST_F(PipelineTest, ParallelSortOverAggregationUsesRangeSplit) {
  // ORDER BY over an aggregation: the input is not clonable, so the sort
  // drains it with one task and range-splits the sorting itself.
  auto plan = [] {
    AlgebraPtr aggr = AggrNode(ScanNode("fact"), {{"fk", Col("fk")}},
                               {{AggKind::kSum, Col("val"), "s"}});
    return OrderNode(std::move(aggr), {{"s", false}});
  };
  SetWorkers(1);
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  SetWorkers(8);
  auto res = session_->Execute(plan());
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectSameRows(*reference, *res, "sort-over-agg");
  bool saw_parallel_sort = false;
  for (const OperatorProfile& p : res->profile.operators) {
    saw_parallel_sort |= p.op.rfind("Sort(", 0) == 0;
  }
  EXPECT_TRUE(saw_parallel_sort);
}

// ---------------------------------------------------------------------------
// Cancellation mid-pipeline
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, CancellationMidPipelineJoinsAllTasks) {
  // A self-join on one key held by every row explodes quadratically
  // (20000^2 = 4e8 pairs, about a second on a 4-core host), so the
  // pipeline cannot finish before the cancel lands 30 ms in. (The skewed
  // `fact` key gives 2500^2 pairs, which a 4-worker probe can count in
  // under 30 ms.) All worker tasks must observe the token and the query
  // must unwind without deadlock.
  constexpr int kRows = 20000;
  auto b = db_->CreateTable(
      "hot", Schema({Field("k", TypeId::kI64), Field("v", TypeId::kI64)}),
      Layout::kDsm, 256);
  for (int i = 0; i < kRows; i++) {
    ASSERT_TRUE(b->AppendRow({Value::I64(7), Value::I64(i)}).ok());
  }
  auto t = b->Finish();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
  SetWorkers(4);
  CancellationToken token;
  AlgebraPtr join =
      JoinNode(ScanNode("hot"), ScanNode("hot"), JoinType::kInner, {"k"},
               {"k"});
  AlgebraPtr plan = AggrNode(std::move(join), {},
                             {{AggKind::kCount, nullptr, "n"}});
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  auto res = session_->Execute(std::move(plan), &token);
  canceller.join();
  SetWorkers(0);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
}

/// Passes a chain's batches through and fires `token` at its first pull.
class CancelAtFirstPullOp : public Operator {
 public:
  CancelAtFirstPullOp(OperatorPtr child, CancellationToken* token)
      : child_(std::move(child)), token_(token) {}
  ~CancelAtFirstPullOp() override { Close(); }

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "CancelAtFirstPull"; }

 protected:
  Status OpenImpl(ExecContext* ctx) override { return child_->Open(ctx); }
  Result<Batch*> NextImpl() override {
    token_->Cancel();
    return child_->Next();
  }
  void CloseImpl() override { child_->Close(); }

 private:
  OperatorPtr child_;
  CancellationToken* token_;
};

TEST_F(PipelineTest, CancelWhileABuildRunsFromOpen) {
  // The cancel fires at the first pull of dim, the innermost build side.
  // That build runs inside a probe clone's Open: the root join's, or, in
  // the Q3-shaped join, an outer build chain's, which the outer join's
  // probe clone opens while it builds. Either query returns Cancelled,
  // holds no tracker bytes and leaves no query RUNNING.
  CancellationToken token;
  PhysicalPlanner planner = PhysicalPlanner::Default();
  planner.Register(
      AlgebraNode::Kind::kScan,
      [&token](const AlgebraPtr& node, PlannerContext* pc,
               const PhysicalPlanner*) -> Result<OperatorPtr> {
        OperatorPtr scan;
        X100_ASSIGN_OR_RETURN(scan, BuildScanOp(*node, pc, nullptr));
        if (node->table != "dim") return scan;
        return OperatorPtr(
            std::make_unique<CancelAtFirstPullOp>(std::move(scan), &token));
      });
  const auto root_join = [] {
    return JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                    {"k"}, {"fk"});
  };
  const auto nested_join = [&root_join] {
    AlgebraPtr probe = ProjectNode(ScanNode("mono"), {{"t", Col("tag")}});
    return JoinNode(root_join(), std::move(probe), JoinType::kInner, {"val"},
                    {"t"});
  };
  const std::pair<const char*, std::function<AlgebraPtr()>> plans[] = {
      {"root join", root_join}, {"nested join", nested_join}};
  session_->executor()->set_planner(&planner);
  for (int workers : {1, 4}) {
    SetWorkers(workers);
    for (const auto& [name, plan] : plans) {
      const std::string what =
          std::string(name) + " workers=" + std::to_string(workers);
      token.Reset();
      auto res = session_->Execute(plan(), &token);
      ASSERT_FALSE(res.ok()) << what;
      EXPECT_TRUE(res.status().IsCancelled())
          << res.status().ToString() << " " << what;
      EXPECT_EQ(db_->memory()->used(), 0) << what;
    }
  }
  session_->executor()->set_planner(&PhysicalPlanner::Default());
  SetWorkers(0);
  const std::vector<QueryInfo> queries = db_->queries()->List();
  EXPECT_EQ(queries.size(), 4u);
  for (const QueryInfo& q : queries) {
    EXPECT_NE(q.state, QueryState::kRunning) << q.id;
  }
}

TEST_F(PipelineTest, PreCancelledPipelineAbortsPromptly) {
  SetWorkers(8);
  CancellationToken token;
  token.Cancel();
  auto res = session_->Execute(GroupByJoinPlan(), &token);
  SetWorkers(0);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled());
}

// ---------------------------------------------------------------------------
// Empty-input pipelines
// ---------------------------------------------------------------------------

class EmptyPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    auto empty = db_->CreateTable(
        "nothing",
        Schema({Field("k", TypeId::kI64), Field("v", TypeId::kI64)}),
        Layout::kDsm, 64);
    auto t = empty->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());

    auto some = db_->CreateTable(
        "some",
        Schema({Field("k", TypeId::kI64), Field("v", TypeId::kI64)}),
        Layout::kDsm, 64);
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(
          some->AppendRow({Value::I64(i % 10), Value::I64(i)}).ok());
    }
    auto t2 = some->Finish();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t2).value()).ok());

    db_->config().max_parallelism = 4;
    db_->config().scheduler_workers = 4;
    session_ = std::make_unique<Session>(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(EmptyPipelineTest, EmptyProbeSide) {
  AlgebraPtr join = JoinNode(ScanNode("some"), ScanNode("nothing"),
                             JoinType::kInner, {"k"}, {"k"});
  auto res = session_->Execute(OrderNode(std::move(join), {{"v", true}}));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 0u);
}

TEST_F(EmptyPipelineTest, EmptyBuildSideInnerAndOuter) {
  AlgebraPtr inner = JoinNode(ScanNode("nothing"), ScanNode("some"),
                              JoinType::kInner, {"k"}, {"k"});
  auto r1 = session_->Execute(OrderNode(std::move(inner), {{"v", true}}));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->rows.size(), 0u);

  AlgebraPtr outer = JoinNode(ScanNode("nothing"), ScanNode("some"),
                              JoinType::kLeftOuter, {"k"}, {"k"});
  auto r2 = session_->Execute(OrderNode(std::move(outer), {{"v", true}}));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->rows.size(), 200u);  // every probe row null-padded
  EXPECT_TRUE(r2->rows[0][2].is_null());
  EXPECT_TRUE(r2->rows[0][3].is_null());
}

TEST_F(EmptyPipelineTest, EmptyAggregationAndSort) {
  // Keyless aggregate over nothing: one row, COUNT 0, SUM NULL.
  auto agg = session_->Execute(AggrNode(
      ScanNode("nothing"), {},
      {{AggKind::kCount, nullptr, "n"}, {AggKind::kSum, Col("v"), "s"}}));
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0][0].AsI64(), 0);
  EXPECT_TRUE(agg->rows[0][1].is_null());

  // Keyed aggregate over nothing: zero groups.
  auto keyed = session_->Execute(AggrNode(
      ScanNode("nothing"), {{"k", Col("k")}},
      {{AggKind::kCount, nullptr, "n"}}));
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->rows.size(), 0u);

  // Parallel sort over nothing.
  auto sorted =
      session_->Execute(OrderNode(ScanNode("nothing"), {{"v", true}}));
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->rows.size(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control end-to-end + exclusive profile time
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, QuotaConstrainedQueryStillCorrect) {
  // A quota of 1 degrades the pipelines to sequential task execution but
  // must not change results (tasks cover all worker chains in turn).
  SetWorkers(1);
  auto reference = session_->Execute(GroupByJoinPlan());
  ASSERT_TRUE(reference.ok());
  SetWorkers(8);
  db_->config().query_task_quota = 1;
  auto res = session_->Execute(GroupByJoinPlan());
  db_->config().query_task_quota = 0;
  SetWorkers(0);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectSameRows(*reference, *res, "quota=1");
}

TEST_F(PipelineTest, ExclusiveTimeSubtractsChildTime) {
  // Serial plans: a breaker's lone chain counts as the breaker's child
  // time wherever its task runs, so the sort's (and the aggregation's)
  // child_ns must be populated and exclusive <= inclusive. Repeated
  // because the chain lands on a pool thread on some runs and inline on
  // the waiting thread on others.
  SetWorkers(0);
  for (int rep = 0; rep < 5; rep++) {
    for (bool with_agg : {false, true}) {
      AlgebraPtr input = ScanNode("fact");
      if (with_agg) {
        input = AggrNode(std::move(input), {{"fk", Col("fk")}},
                         {{AggKind::kSum, Col("val"), "val"}});
      }
      auto res =
          session_->Execute(OrderNode(std::move(input), {{"val", true}}));
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      bool checked_sort = false, checked_agg = false;
      for (const OperatorProfile& p : res->profile.operators) {
        EXPECT_GE(p.exclusive_ns(), 0);
        EXPECT_LE(p.exclusive_ns(), p.open_ns + p.next_ns);
        if (p.op.rfind("Sort(", 0) == 0) {
          checked_sort = true;
          EXPECT_GT(p.child_ns, 0);  // the input ran inside the sort
        }
        if (p.op == "HashAgg(1)") {
          checked_agg = true;
          EXPECT_GT(p.child_ns, 0);  // the scan ran inside the aggregation
        }
      }
      EXPECT_TRUE(checked_sort);
      EXPECT_EQ(checked_agg, with_agg);
      EXPECT_NE(res->profile.ToString().find("self(us)"), std::string::npos);
    }
  }
}

// The planner helpers drive the decomposition; pin their contract.
TEST(ClonablePipelineTest, RecognizesStreamingChains) {
  AlgebraPtr scan = ScanNode("t");
  EXPECT_TRUE(IsClonablePipeline(scan));
  EXPECT_TRUE(IsClonablePipeline(
      SelectNode(ScanNode("t"), Gt(Col("x"), Lit(Value::I64(0))))));
  // A join is clonable along its probe side.
  EXPECT_TRUE(IsClonablePipeline(JoinNode(
      AggrNode(ScanNode("b"), {}, {{AggKind::kCount, nullptr, "n"}}),
      ScanNode("p"), JoinType::kInner, {"n"}, {"x"})));
  // Breakers are not.
  EXPECT_FALSE(IsClonablePipeline(
      AggrNode(ScanNode("t"), {}, {{AggKind::kCount, nullptr, "n"}})));
  EXPECT_FALSE(IsClonablePipeline(
      OrderNode(ScanNode("t"), {{"x", true}})));
}

}  // namespace
}  // namespace x100
