// Out-of-core execution tests: memory-accounted spill-to-disk for the
// three pipeline breakers (join build, aggregation, sort).
//
//  * MemoryTracker / MemoryReservation unit contracts (hierarchy,
//    overcommit, RAII release).
//  * SpillFile + RowBuffer serialization round trips.
//  * The determinism sweep: the bench_e8-shaped group-by-join+sort query
//    at memory_limit {unlimited, tight, very tight} x workers {1, 2, 8}
//    x radix_bits {0, 2, 4}, plus joins whose build side is an
//    aggregation or a top-N at {unlimited, very tight} x workers, every
//    configuration compared value-for-value against the in-memory serial
//    reference.
//  * Error paths: enable_spill = false + a tight limit surfaces
//    kResourceExhausted mid-build / mid-agg / mid-sort with a clean
//    TaskGroup unwind; cancellation mid-spill releases reservations.
//  * After EVERY query the process-wide tracker must drain to zero —
//    leaked charges fail the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "engine/session.h"
#include "exec/hash_agg.h"
#include "exec/row_buffer.h"
#include "storage/spill_file.h"

namespace x100 {
namespace {

// ---------------------------------------------------------------------------
// MemoryTracker / MemoryReservation units
// ---------------------------------------------------------------------------

TEST(MemoryTrackerTest, LimitEnforcedAllOrNothing) {
  MemoryTracker t(1000);
  EXPECT_TRUE(t.TryReserve(600).ok());
  const Status s = t.TryReserve(500);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(t.used(), 600);  // failed reservation charged nothing
  EXPECT_TRUE(t.TryReserve(400).ok());
  t.Release(1000);
  EXPECT_EQ(t.used(), 0);
  EXPECT_EQ(t.peak(), 1000);
}

TEST(MemoryTrackerTest, HierarchyRollsUpAndRollsBack) {
  MemoryTracker root(1000);
  MemoryTracker q1(0, &root), q2(0, &root);
  EXPECT_TRUE(q1.TryReserve(700).ok());
  EXPECT_EQ(root.used(), 700);
  // q2 is itself unlimited but the parent rejects; q2 must roll back.
  EXPECT_FALSE(q2.TryReserve(400).ok());
  EXPECT_EQ(q2.used(), 0);
  EXPECT_EQ(root.used(), 700);
  q1.Release(700);
  EXPECT_EQ(root.used(), 0);
}

TEST(MemoryTrackerTest, ForceReserveOvercommits) {
  MemoryTracker t(100);
  t.ForceReserve(250);
  EXPECT_EQ(t.used(), 250);
  EXPECT_EQ(t.overcommitted(), 150);
  EXPECT_FALSE(t.TryReserve(1).ok());  // still over limit
  t.Release(250);
  EXPECT_EQ(t.used(), 0);
}

TEST(MemoryTrackerTest, ReservationRaiiDrains) {
  MemoryTracker t(0);
  {
    MemoryReservation r(&t);
    EXPECT_TRUE(r.GrowTo(500).ok());
    EXPECT_TRUE(r.GrowTo(300).ok());  // never shrinks
    EXPECT_EQ(r.charged(), 500);
    r.ShrinkTo(200);
    EXPECT_EQ(t.used(), 200);
    r.ForceGrowTo(900);
    EXPECT_EQ(t.used(), 900);
  }
  EXPECT_EQ(t.used(), 0);  // destructor released everything

  // Null tracker: every operation is a no-op.
  MemoryReservation none;
  none.Init(nullptr);
  EXPECT_TRUE(none.GrowTo(1 << 30).ok());
  none.ForceGrowTo(1 << 30);
  none.ReleaseAll();
}

// ---------------------------------------------------------------------------
// SpillFile + RowBuffer serialization
// ---------------------------------------------------------------------------

TEST(SpillFileTest, MultiBlockRoundTrip) {
  SimulatedDisk disk;
  SpillDevice spill(&disk);
  // 2.5 disk blocks of patterned bytes.
  std::vector<uint8_t> blob(kDiskBlockBytes * 5 / 2);
  for (size_t i = 0; i < blob.size(); i++) {
    blob[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  {
    auto wrote = SpillFile::Write(&spill, blob);
    ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
    const SpillFile f = std::move(wrote).value();
    EXPECT_EQ(f.num_blocks(), 3u);
    EXPECT_EQ(f.bytes(), static_cast<int64_t>(blob.size()));
    auto back = f.ReadAll();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, blob);
    EXPECT_EQ(disk.bytes_freed(), 0);
    EXPECT_EQ(spill.spill_bytes_in_use(), static_cast<int64_t>(blob.size()));
  }
  // SpillFile owns its blocks: destruction reclaims the device storage,
  // so a long-lived database does not accumulate spilled bytes forever.
  EXPECT_EQ(disk.bytes_freed(), static_cast<int64_t>(blob.size()));
  EXPECT_EQ(spill.spill_bytes_in_use(), 0);
}

TEST(GroupTableSerdeTest, CorruptBlobsFailCleanly) {
  const Schema key_schema({Field("k", TypeId::kI64)});
  const std::vector<AggKind> kinds{AggKind::kSum};
  const std::vector<TypeId> in_types{TypeId::kI64};
  // A keys_bytes length field near UINT64_MAX must not wrap the bounds
  // check into a huge out-of-bounds read (all-0xFF header).
  const std::vector<uint8_t> garbage(16, 0xFF);
  for (const size_t cut : {size_t{0}, size_t{4}, garbage.size()}) {
    auto r = GroupTable::Deserialize(key_schema, kinds, in_types,
                                     garbage.data(), cut);
    EXPECT_FALSE(r.ok());
  }
}

TEST(RowBufferSerdeTest, RoundTripWithNullsAndStrings) {
  Schema schema({Field("i", TypeId::kI64, true),
                 Field("s", TypeId::kStr, true),
                 Field("d", TypeId::kF64)});
  RowBuffer buf(schema);
  Batch b(schema, 8);
  for (int i = 0; i < 8; i++) {
    b.column(0)->Data<int64_t>()[i] = i * 11;
    if (i % 3 == 0) b.column(0)->SetNull(i);
    const std::string s =
        i == 5 ? "" : "value_" + std::string(i, 'x') + std::to_string(i);
    b.column(1)->Data<StrRef>()[i] = b.column(1)->heap()->Add(s);
    if (i == 6) b.column(1)->SetNull(i);
    b.column(2)->Data<double>()[i] = i * 0.5;
  }
  b.set_rows(8);
  buf.AppendBatch(b);

  // SqlEquals is NULL != NULL by design; the round trip must preserve
  // null-ness exactly, so compare that separately.
  auto same = [](const Value& x, const Value& y) {
    return x.is_null() ? y.is_null() : x.SqlEquals(y);
  };

  std::vector<uint8_t> blob;
  buf.SerializeTo(&blob);
  auto rt = RowBuffer::Deserialize(schema, blob.data(), blob.size());
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  ASSERT_EQ((*rt)->rows(), 8);
  for (int64_t r = 0; r < 8; r++) {
    for (int c = 0; c < 3; c++) {
      EXPECT_TRUE(same(buf.GetValue(c, r), (*rt)->GetValue(c, r)))
          << "row " << r << " col " << c;
    }
  }

  // Permuted slice: rows {7, 2, 4} in that order.
  std::vector<int64_t> order = {7, 2, 4};
  std::vector<uint8_t> slice;
  buf.SerializeRowsTo(order, 0, 3, &slice);
  auto st = RowBuffer::Deserialize(schema, slice.data(), slice.size());
  ASSERT_TRUE(st.ok());
  ASSERT_EQ((*st)->rows(), 3);
  for (int64_t r = 0; r < 3; r++) {
    for (int c = 0; c < 3; c++) {
      EXPECT_TRUE(same(buf.GetValue(c, order[r]), (*st)->GetValue(c, r)))
          << "slice row " << r << " col " << c;
    }
  }

  // Truncated blobs fail cleanly, never fault.
  for (const size_t cut : {size_t{0}, size_t{4}, blob.size() / 2}) {
    auto bad = RowBuffer::Deserialize(schema, blob.data(), cut);
    EXPECT_FALSE(bad.ok());
  }
}

// ---------------------------------------------------------------------------
// Fixture: a build side and a fact table big enough that tight limits
// push every breaker out of core. dim keys (and labels) are UNIQUE so
// join match order, group identity and sort order are all deterministic —
// the out-of-core runs must reproduce the in-memory reference exactly.
// ---------------------------------------------------------------------------

class MemoryLimitTest : public ::testing::Test {
 protected:
  static constexpr int kDimRows = 20000;   // > kTinyBuildRows: radix kept
  static constexpr int kFactRows = 40000;

  void SetUp() override {
    db_ = std::make_unique<Database>();
    {
      auto b = db_->CreateTable(
          "dim",
          Schema({Field("k", TypeId::kI64), Field("label", TypeId::kStr)}),
          Layout::kDsm, 1024);
      for (int i = 0; i < kDimRows; i++) {
        ASSERT_TRUE(
            b->AppendRow({Value::I64(i), Value::Str(LabelOf(i))}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    {
      auto b = db_->CreateTable(
          "fact",
          Schema({Field("fk", TypeId::kI64), Field("val", TypeId::kI64)}),
          Layout::kDsm, 2048);
      for (int i = 0; i < kFactRows; i++) {
        ASSERT_TRUE(
            b->AppendRow({Value::I64(i % kDimRows), Value::I64(i)}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    session_ = std::make_unique<Session>(db_.get());
  }

  /// Zero-padded so the string sort order equals the numeric key order.
  static std::string LabelOf(int i) {
    std::string n = std::to_string(i);
    return "L" + std::string(5 - n.size(), '0') + n;
  }

  void SetWorkers(int workers) {
    db_->config().max_parallelism = workers;
    db_->config().scheduler_workers = workers;
  }

  /// The bench_e8 shape: group-by-join + sort. Integer aggregates and a
  /// unique sort key keep the result bit-stable across worker counts,
  /// radix bits and spill schedules.
  static AlgebraPtr GroupByJoinSortPlan() {
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

  /// A join whose build side is an aggregation (one group per fact key),
  /// ordered by the unique label: the build drain runs a one-chain
  /// aggregation sink, which must spill and merge on its own.
  static AlgebraPtr AggBuildJoinPlan() {
    AlgebraPtr per_fk = AggrNode(ScanNode("fact"), {{"fk", Col("fk")}},
                                 {{AggKind::kSum, Col("val"), "s"},
                                  {AggKind::kCount, nullptr, "c"}});
    AlgebraPtr join = JoinNode(std::move(per_fk), ScanNode("dim"),
                               JoinType::kInner, {"fk"}, {"k"});
    return OrderNode(std::move(join), {{"label", true}});
  }

  /// A join whose build side is ORDER BY ... LIMIT over the fact table: a
  /// one-chain top-N sink inside the build drain. Integer aggregates over
  /// the join make the answer exact, and keep the nested top-N the only
  /// sort that can spill.
  static AlgebraPtr TopNBuildJoinPlan() {
    AlgebraPtr top = OrderNode(ScanNode("fact"), {{"val", false}},
                               /*limit=*/kFactRows / 4);
    AlgebraPtr join = JoinNode(std::move(top), ScanNode("dim"),
                               JoinType::kInner, {"fk"}, {"k"});
    return AggrNode(std::move(join), {},
                    {{AggKind::kCount, nullptr, "n"},
                     {AggKind::kSum, Col("val"), "s"},
                     {AggKind::kMin, Col("val"), "lo"},
                     {AggKind::kMax, Col("k"), "hi"}});
  }

  static void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                             const std::string& what) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
    for (size_t i = 0; i < a.rows.size(); i++) {
      for (size_t c = 0; c < a.rows[i].size(); c++) {
        // SqlEquals is NULL != NULL by design; result comparison wants
        // null-ness preserved exactly (left-outer padding, NULL keys).
        const Value& x = a.rows[i][c];
        const Value& y = b.rows[i][c];
        ASSERT_TRUE(x.is_null() ? y.is_null() : x.SqlEquals(y))
            << what << " row " << i << " col " << c;
      }
    }
  }

  /// Every exit path — success, error, cancellation — must return every
  /// charged byte: a leak here poisons all later queries' budgets.
  void ExpectTrackerDrained(const std::string& what) {
    EXPECT_EQ(db_->memory()->used(), 0) << "leaked charges after " << what;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

// ---------------------------------------------------------------------------
// The out-of-core determinism sweep
// ---------------------------------------------------------------------------

TEST_F(MemoryLimitTest, OutOfCoreSweepMatchesInMemory) {
  // Each plan runs at limits peak/divisor (0 = unlimited) against its own
  // in-memory 1-worker reference, whose peak sizes the limits: tight ~
  // half the observed peak (a sizable fraction of breaker state spills),
  // very tight ~ 1/24th (nearly everything spills). The nested cases put
  // a breaker inside a join's build side — a one-chain sink that spawns
  // its own tasks from within a build-drain task — and at the tight limit
  // that nested breaker itself must go out of core (spill_op).
  struct Case {
    const char* name;
    AlgebraPtr (*plan)();
    std::vector<int64_t> divisors;
    std::vector<int> radix_bits;  // the first one builds the reference
    const char* spill_op;         // nullptr = spilling not checked
    size_t rows;                  // reference row count; 0 = any nonempty
  };
  const Case cases[] = {
      {"group-by-join-sort", &MemoryLimitTest::GroupByJoinSortPlan,
       {0, 2, 24}, {0, 2, 4}, nullptr, static_cast<size_t>(kDimRows)},
      {"agg-build-join", &MemoryLimitTest::AggBuildJoinPlan, {0, 24}, {-1},
       "AggSpill", 0},
      {"topn-build-join", &MemoryLimitTest::TopNBuildJoinPlan, {0, 24},
       {-1}, "SortSpill", 1},
  };
  for (const Case& c : cases) {
    SetWorkers(1);
    db_->config().radix_bits = c.radix_bits.front();
    db_->config().memory_limit = 0;
    db_->memory()->ResetPeak();
    auto reference = session_->Execute(c.plan());
    ASSERT_TRUE(reference.ok()) << c.name << ": "
                                << reference.status().ToString();
    ASSERT_FALSE(reference->rows.empty()) << c.name;
    if (c.rows != 0) {
      ASSERT_EQ(reference->rows.size(), c.rows) << c.name;
    }
    ExpectTrackerDrained(std::string(c.name) + " reference");
    const int64_t peak = db_->memory()->peak();
    ASSERT_GT(peak, 0) << c.name;
    for (const int64_t divisor : c.divisors) {
      const int64_t limit = divisor == 0 ? 0 : peak / divisor;
      for (const int bits : c.radix_bits) {
        for (const int workers : {1, 2, 8}) {
          const std::string what =
              std::string(c.name) + " memory_limit=" + std::to_string(limit) +
              " radix_bits=" + std::to_string(bits) +
              " workers=" + std::to_string(workers);
          SetWorkers(workers);
          db_->config().radix_bits = bits;
          db_->config().memory_limit = limit;
          auto res = session_->Execute(c.plan());
          ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
          ExpectSameRows(*reference, *res, what);
          ExpectTrackerDrained(what);
          if (limit == 0 || c.spill_op == nullptr) continue;
          int64_t spilled = 0;
          for (const OperatorProfile& p : res->profile.operators) {
            if (p.op == c.spill_op) spilled += p.spill_bytes;
          }
          EXPECT_GT(spilled, 0) << what << "\n" << res->profile.ToString();
        }
      }
    }
  }
  SetWorkers(0);
  db_->config().radix_bits = -1;
  db_->config().memory_limit = 0;
}

TEST_F(MemoryLimitTest, TightLimitSpillsEveryBreaker) {
  // The acceptance shape: a limit far below the breaker state forces the
  // join build, the aggregation AND the sort out of core, each visibly
  // (nonzero spilled bytes) in the profile.
  SetWorkers(1);
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto reference = session_->Execute(GroupByJoinSortPlan());
  ASSERT_TRUE(reference.ok());
  const int64_t peak = db_->memory()->peak();

  SetWorkers(8);
  db_->config().radix_bits = 4;
  db_->config().memory_limit = peak / 24;
  auto res = session_->Execute(GroupByJoinSortPlan());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ExpectSameRows(*reference, *res, "tight spilling run");
  int64_t build_spill = 0, agg_spill = 0, sort_spill = 0;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "JoinBuildSpill") build_spill += p.spill_bytes;
    if (p.op == "AggSpill") agg_spill += p.spill_bytes;
    if (p.op == "SortSpill") sort_spill += p.spill_bytes;
  }
  EXPECT_GT(build_spill, 0) << res->profile.ToString();
  EXPECT_GT(agg_spill, 0) << res->profile.ToString();
  EXPECT_GT(sort_spill, 0) << res->profile.ToString();
  // The spill columns surface in the rendered profile.
  EXPECT_NE(res->profile.ToString().find("spill(kb)"), std::string::npos);
  ExpectTrackerDrained("tight spilling run");
  // Spilled blocks die with the query's operator tree: everything this
  // query wrote must have been reclaimed by the time it returned —
  // whichever device (SimulatedDisk or X100_SPILL_PATH file) took it.
  auto dev = db_->spill_device();
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  EXPECT_GE((*dev)->spill_bytes_written(),
            build_spill + agg_spill + sort_spill);
  EXPECT_EQ((*dev)->spill_bytes_in_use(), 0);
  SetWorkers(0);
  db_->config().radix_bits = -1;
  db_->config().memory_limit = 0;
}

// ---------------------------------------------------------------------------
// Partition-wise (Grace) probe: the probe side goes out of core too
// ---------------------------------------------------------------------------

/// Root-join shape: build AND probe both exceed a tight limit, no
/// aggregation/sort sink — the only force-admits in flight are the
/// documented join floors, so peak usage can be bounded exactly. Row
/// order is nondeterministic (exchange union + deferred pairs emit
/// last), so rows are canonicalized before comparison.
class GraceProbeTest : public MemoryLimitTest {
 protected:
  AlgebraPtr RootJoinPlan() {
    return JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                    {"k"}, {"fk"});
  }

  static void SortRows(QueryResult* r) {
    std::sort(r->rows.begin(), r->rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                for (size_t c = 0; c < a.size() && c < b.size(); c++) {
                  const std::string x = a[c].ToString();
                  const std::string y = b[c].ToString();
                  if (x != y) return x < y;
                }
                return a.size() < b.size();
              });
  }

  static int64_t SumSpill(const QueryProfile& p, const std::string& op) {
    int64_t b = 0;
    for (const OperatorProfile& e : p.operators) {
      if (e.op == op) b += e.spill_bytes;
    }
    return b;
  }

  static int64_t MaxPairMem(const QueryProfile& p) {
    int64_t b = 0;
    for (const OperatorProfile& e : p.operators) {
      if (e.op == "JoinProbePair" && e.mem_bytes > b) b = e.mem_bytes;
    }
    return b;
  }
};

TEST_F(GraceProbeTest, ProbeSideOutOfCoreSweepMatchesInMemory) {
  SetWorkers(1);
  db_->config().radix_bits = 0;
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto reference = session_->Execute(RootJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), static_cast<size_t>(kFactRows));
  SortRows(&reference.value());
  ExpectTrackerDrained("grace reference");
  const int64_t peak = db_->memory()->peak();
  ASSERT_GT(peak, 0);

  const int64_t limits[] = {0, peak / 2, peak / 24};
  for (const int64_t limit : limits) {
    for (const int bits : {0, 2, 4}) {
      for (const int workers : {1, 2, 8}) {
        const std::string what = "memory_limit=" + std::to_string(limit) +
                                 " radix_bits=" + std::to_string(bits) +
                                 " workers=" + std::to_string(workers);
        SetWorkers(workers);
        db_->config().radix_bits = bits;
        db_->config().memory_limit = limit;
        db_->memory()->ResetPeak();
        auto res = session_->Execute(RootJoinPlan());
        ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
        SortRows(&res.value());
        ExpectSameRows(*reference, *res, what);
        ExpectTrackerDrained(what);
        if (limit == peak / 24) {
          // The acceptance bound PR 4 could not state: with the whole
          // build table force-charged, peak was ~the table regardless of
          // the limit. Partition-wise probing bounds the overcommit to
          // one pair (measured per pair in the profile) plus the
          // documented per-worker spill-floor slack.
          EXPECT_GT(SumSpill(res->profile, "JoinProbeSpill"), 0) << what;
          // Build-side spill evidence: the drain ("JoinBuildSpill") or
          // the merge deferral ("JoinBuildDefer") — when the drain
          // already shipped everything, the merge has nothing left to
          // defer-write and only the drain entry appears.
          EXPECT_GT(SumSpill(res->profile, "JoinBuildSpill") +
                        SumSpill(res->profile, "JoinBuildDefer"),
                    0)
              << what;
          const int64_t max_pair = MaxPairMem(res->profile);
          EXPECT_GT(max_pair, 0) << what;
          EXPECT_LE(db_->memory()->peak(),
                    limit + max_pair + SpillForceAdmitSlack(workers))
              << what << "\n" << res->profile.ToString();
        }
      }
    }
  }
  SetWorkers(0);
  db_->config().radix_bits = -1;
  db_->config().memory_limit = 0;
}

TEST_F(GraceProbeTest, ReadAheadKeepsOutOfCoreJoinBitIdentical) {
  // Read-ahead must be pure overlap: scans prefetching the next group and
  // the Grace pair streamer preloading the next deferred pair's spill
  // chunks cannot change a single byte of the result.
  SetWorkers(1);
  db_->config().radix_bits = 0;
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto reference = session_->Execute(RootJoinPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  SortRows(&reference.value());
  const int64_t peak = db_->memory()->peak();
  ASSERT_GT(peak, 0);

  int64_t pair_prefetches = 0;
  for (const int workers : {1, 8}) {
    for (const bool prefetch : {false, true}) {
      const std::string what = std::string("prefetch=") +
                               (prefetch ? "on" : "off") +
                               " workers=" + std::to_string(workers);
      SetWorkers(workers);
      db_->config().radix_bits = 4;
      db_->config().memory_limit = peak / 24;
      db_->config().prefetch_budget_bytes = prefetch ? -1 : 0;
      auto res = session_->Execute(RootJoinPlan());
      ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
      SortRows(&res.value());
      ExpectSameRows(*reference, *res, what);
      ExpectTrackerDrained(what);
      EXPECT_GT(SumSpill(res->profile, "JoinProbeSpill"), 0) << what;
      if (prefetch) {
        for (const OperatorProfile& e : res->profile.operators) {
          if (e.op == "JoinPairPrefetch") pair_prefetches += e.spills;
        }
      }
    }
  }
  // The overlap actually engaged: deferred pairs were streamed ahead in
  // the prefetch-on runs, not just permitted to be.
  EXPECT_GT(pair_prefetches, 0);
  SetWorkers(0);
  db_->config().radix_bits = -1;
  db_->config().memory_limit = 0;
  db_->config().prefetch_budget_bytes = -1;
}

TEST_F(GraceProbeTest, FinerRadixShrinksThePairFloor) {
  // The Grace memory bound is ONE partition pair: more partitions ->
  // smaller pairs -> lower peak. radix_bits = 0 cannot subdivide (the
  // single pair IS the whole table), 4 bits should cut the pair floor by
  // roughly the partition count.
  SetWorkers(2);
  db_->config().radix_bits = 0;
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto reference = session_->Execute(RootJoinPlan());
  ASSERT_TRUE(reference.ok());
  const int64_t peak = db_->memory()->peak();

  db_->config().memory_limit = peak / 24;
  int64_t pair_mem[2] = {0, 0};
  int i = 0;
  for (const int bits : {0, 4}) {
    db_->config().radix_bits = bits;
    auto res = session_->Execute(RootJoinPlan());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    pair_mem[i++] = MaxPairMem(res->profile);
    ExpectTrackerDrained("pair floor bits=" + std::to_string(bits));
  }
  ASSERT_GT(pair_mem[0], 0);
  ASSERT_GT(pair_mem[1], 0);
  EXPECT_LT(pair_mem[1], pair_mem[0] / 4);
  SetWorkers(0);
  db_->config().radix_bits = -1;
  db_->config().memory_limit = 0;
}

TEST_F(GraceProbeTest, AllJoinTypesSurviveDeferredPartitions) {
  // Every flavor's emit rules must hold when rows detour through the
  // probe spill: matched (semi), unmatched (anti), null-padded
  // (left outer) and NOT-IN poison (anti-nullaware) decisions all move
  // to the pair phase. The probe side carries NULL keys (every 7th fk),
  // which never defer — their SQL semantics resolve without the table.
  {
    auto b = db_->CreateTable(
        "factn",
        Schema({Field("fk", TypeId::kI64, true), Field("val", TypeId::kI64)}),
        Layout::kDsm, 2048);
    for (int i = 0; i < kFactRows; i++) {
      // Half the keys miss the build side (>= kDimRows), some are NULL.
      Value key = i % 7 == 0 ? Value::Null(TypeId::kI64)
                             : Value::I64(i % (2 * kDimRows));
      ASSERT_TRUE(b->AppendRow({key, Value::I64(i)}).ok());
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
  }
  for (const JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kSemi,
        JoinType::kAnti, JoinType::kAntiNullAware}) {
    auto plan = [&type] {
      return JoinNode(ScanNode("dim"), ScanNode("factn"), type, {"k"},
                      {"fk"});
    };
    SetWorkers(1);
    db_->config().radix_bits = 0;
    db_->config().memory_limit = 0;
    db_->memory()->ResetPeak();
    auto reference = session_->Execute(plan());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    SortRows(&reference.value());
    const int64_t peak = db_->memory()->peak();
    for (const int workers : {1, 2}) {
      const std::string what = std::string("join type ") +
                               JoinTypeName(type) +
                               " workers=" + std::to_string(workers);
      SetWorkers(workers);
      db_->config().radix_bits = 2;
      db_->config().memory_limit = peak / 24;
      auto res = session_->Execute(plan());
      ASSERT_TRUE(res.ok()) << what << ": " << res.status().ToString();
      SortRows(&res.value());
      ExpectSameRows(*reference, *res, what);
      ExpectTrackerDrained(what);
    }
  }
  SetWorkers(0);
  db_->config().radix_bits = -1;
  db_->config().memory_limit = 0;
}

// ---------------------------------------------------------------------------
// Dynamic radix re-sizing from observed build cardinality
// ---------------------------------------------------------------------------

TEST_F(MemoryLimitTest, DynamicRadixResizeOnObservedCardinality) {
  // The planner's scan-spine estimate only sees BASE rows; PDT-inserted
  // rows are invisible to it. A 500-row base table falls under the
  // tiny-build cutoff (radix_bits 0), but after inserting 40k rows the
  // drain observes >= kRadixResizeFactor x the estimate and must re-size
  // the merge fan-out instead of concatenating everything on one task.
  constexpr int kBaseRows = 500;
  constexpr int kInserted = 40000;
  {
    auto b = db_->CreateTable(
        "growing",
        Schema({Field("k", TypeId::kI64), Field("tag", TypeId::kI64)}),
        Layout::kDsm, 1024);
    for (int i = 0; i < kBaseRows; i++) {
      ASSERT_TRUE(b->AppendRow({Value::I64(i), Value::I64(i)}).ok());
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
  }
  UpdatableTable* table;
  {
    auto t = db_->GetTable("growing");
    ASSERT_TRUE(t.ok());
    table = *t;
  }
  auto txn = db_->txn_manager()->Begin(table);
  for (int i = 0; i < kInserted; i++) {
    ASSERT_TRUE(
        txn->Append({Value::I64(kBaseRows + i), Value::I64(i)}).ok());
  }
  ASSERT_TRUE(db_->txn_manager()->Commit(txn.get()).ok());

  auto plan = [] {
    return JoinNode(ScanNode("growing"), ScanNode("fact"), JoinType::kInner,
                    {"k"}, {"fk"});
  };
  // Reference with explicit radix bits (explicit settings disable the
  // re-size, and the tiny-build cutoff only applies under AUTO).
  SetWorkers(4);
  db_->config().radix_bits = 2;
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), static_cast<size_t>(kFactRows));

  // AUTO sizing: the estimate (500 base rows) picks 0 bits; the observed
  // 40.5k rows must re-partition the merge.
  db_->config().radix_bits = -1;
  auto res = session_->Execute(plan());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), static_cast<size_t>(kFactRows));
  int resize_entries = 0, merge_entries = 0;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "JoinBuildResize") resize_entries++;
    if (p.op == "JoinBuildMerge") merge_entries++;
  }
  EXPECT_GT(resize_entries, 0) << res->profile.ToString();
  EXPECT_EQ(merge_entries,
            1 << RadixBitsForObserved(kBaseRows + kInserted))
      << res->profile.ToString();
  ExpectTrackerDrained("radix resize");
  SetWorkers(0);
  db_->config().radix_bits = -1;
}

TEST_F(MemoryLimitTest, DynamicRadixResizeRefinesNonZeroBits) {
  // The hierarchical-refinement case: the estimate (5000 rows) clears
  // the tiny-build cutoff, so the drain partitions at the planner's
  // width (3 bits for 4 workers) — and the observed 80k rows must
  // REFINE those 8 partitions into 2^RadixBitsForObserved(80k) = 32,
  // each old partition splitting into exactly its own child range.
  // (A resize from b >= 1 re-buckets REAL per-partition data; the
  // 0-bit case above cannot catch a parent/child index mix-up.)
  constexpr int kBaseRows = 5000;
  constexpr int kInserted = 75000;
  {
    auto b = db_->CreateTable(
        "growing2",
        Schema({Field("k", TypeId::kI64), Field("tag", TypeId::kI64)}),
        Layout::kDsm, 1024);
    for (int i = 0; i < kBaseRows; i++) {
      ASSERT_TRUE(b->AppendRow({Value::I64(i), Value::I64(i)}).ok());
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
  }
  UpdatableTable* table;
  {
    auto t = db_->GetTable("growing2");
    ASSERT_TRUE(t.ok());
    table = *t;
  }
  auto txn = db_->txn_manager()->Begin(table);
  for (int i = 0; i < kInserted; i++) {
    ASSERT_TRUE(
        txn->Append({Value::I64(kBaseRows + i), Value::I64(i)}).ok());
  }
  ASSERT_TRUE(db_->txn_manager()->Commit(txn.get()).ok());

  auto plan = [] {
    return OrderNode(
        JoinNode(ScanNode("growing2"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"}),
        {{"val", true}});
  };
  SetWorkers(4);
  db_->config().radix_bits = 2;  // explicit: no resize, the reference
  auto reference = session_->Execute(plan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), static_cast<size_t>(kFactRows));

  db_->config().radix_bits = -1;  // AUTO: estimate 5000 -> 3 bits, then
                                  // observed 80k -> refine to 5 bits
  ASSERT_EQ(EffectiveRadixBits(-1, 4), 3);
  ASSERT_EQ(RadixBitsForObserved(kBaseRows + kInserted), 5);
  auto res = session_->Execute(plan());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  int resize_entries = 0, merge_entries = 0;
  for (const OperatorProfile& p : res->profile.operators) {
    if (p.op == "JoinBuildResize") resize_entries++;
    if (p.op == "JoinBuildMerge") merge_entries++;
  }
  EXPECT_EQ(resize_entries, 1 << 3) << res->profile.ToString();
  EXPECT_EQ(merge_entries, 1 << 5) << res->profile.ToString();
  ExpectSameRows(*reference, *res, "refining resize");
  ExpectTrackerDrained("refining resize");

  // And under memory pressure the refined partitions stay bit-agreed
  // with the probe routing (drain spills at 3 bits are split to 5).
  db_->memory()->ResetPeak();
  db_->config().memory_limit = 1 << 20;
  auto tight = session_->Execute(plan());
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  ExpectSameRows(*reference, *tight, "refining resize under pressure");
  ExpectTrackerDrained("refining resize under pressure");
  db_->config().memory_limit = 0;
  SetWorkers(0);
  db_->config().radix_bits = -1;
}

// ---------------------------------------------------------------------------
// Error paths: spilling disabled -> kResourceExhausted, clean unwind
// ---------------------------------------------------------------------------

TEST_F(MemoryLimitTest, SpillDisabledSurfacesResourceExhaustedMidBuild) {
  db_->config().enable_spill = false;
  db_->config().memory_limit = 64 * 1024;
  for (const int workers : {1, 4}) {
    SetWorkers(workers);
    // A root join: the build side (20k rows) blows the limit during the
    // drain; no sort/agg is present to hit it first.
    auto res = session_->Execute(JoinNode(ScanNode("dim"), ScanNode("fact"),
                                          JoinType::kInner, {"k"}, {"fk"}));
    ASSERT_FALSE(res.ok()) << "workers=" << workers;
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << res.status().ToString();
    ExpectTrackerDrained("mid-build workers=" + std::to_string(workers));
  }
  SetWorkers(0);
  db_->config().enable_spill = true;
  db_->config().memory_limit = 0;
}

TEST_F(MemoryLimitTest, SpillDisabledSurfacesResourceExhaustedMidAgg) {
  db_->config().enable_spill = false;
  db_->config().memory_limit = 64 * 1024;
  for (const int workers : {1, 4}) {
    SetWorkers(workers);
    // Grouping 40k rows by the unique val: the group table alone blows
    // the limit mid-drain.
    auto res = session_->Execute(
        AggrNode(ScanNode("fact"), {{"val", Col("val")}},
                 {{AggKind::kCount, nullptr, "n"},
                  {AggKind::kSum, Col("fk"), "s"}}));
    ASSERT_FALSE(res.ok()) << "workers=" << workers;
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << res.status().ToString();
    ExpectTrackerDrained("mid-agg workers=" + std::to_string(workers));
  }
  SetWorkers(0);
  db_->config().enable_spill = true;
  db_->config().memory_limit = 0;
}

TEST_F(MemoryLimitTest, SpillDisabledSurfacesResourceExhaustedMidSort) {
  db_->config().enable_spill = false;
  db_->config().memory_limit = 64 * 1024;
  for (const int workers : {1, 4}) {
    SetWorkers(workers);
    auto res =
        session_->Execute(OrderNode(ScanNode("fact"), {{"val", false}}));
    ASSERT_FALSE(res.ok()) << "workers=" << workers;
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << res.status().ToString();
    ExpectTrackerDrained("mid-sort workers=" + std::to_string(workers));
  }
  SetWorkers(0);
  db_->config().enable_spill = true;
  db_->config().memory_limit = 0;
}

// ---------------------------------------------------------------------------
// Cancellation mid-spill
// ---------------------------------------------------------------------------

TEST_F(MemoryLimitTest, CancellationMidSpillReleasesReservations) {
  // Throttle the simulated disk so spill reloads take real time, then
  // cancel while the out-of-core pipeline is in flight. Whatever phase
  // the cancel lands in — drain, spill write, reload, merge — every
  // reservation must be returned.
  SetWorkers(4);
  db_->config().memory_limit = 512 * 1024;
  db_->disk()->set_bandwidth(8 * 1000 * 1000);
  for (int round = 0; round < 3; round++) {
    CancellationToken token;
    std::thread canceller([&token, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10 + 25 * round));
      token.Cancel();
    });
    auto res = session_->Execute(GroupByJoinSortPlan(), &token);
    canceller.join();
    if (!res.ok()) {
      EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
    }
    ExpectTrackerDrained("cancel round " + std::to_string(round));
  }
  db_->disk()->set_bandwidth(0);
  db_->config().memory_limit = 0;
  SetWorkers(0);
}

}  // namespace
}  // namespace x100
