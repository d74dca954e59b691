#include "queries.h"

#include <map>

#include "params.h"
#include "tpch/tpch.h"

namespace x100bench {

using x100::AlgebraPtr;
using x100::Col;
using x100::Lit;
using x100::Status;
using x100::Value;

AlgebraPtr JoinSortPlan() {
  AlgebraPtr join = x100::JoinNode(
      x100::ScanNode("orders", {"o_orderkey", "o_orderpriority"}),
      x100::ScanNode("lineitem", {"l_orderkey", "l_extendedprice"}),
      x100::JoinType::kInner, {"o_orderkey"}, {"l_orderkey"});
  AlgebraPtr aggr = x100::AggrNode(
      std::move(join), {{"okey", Col("o_orderkey")}},
      {{x100::AggKind::kSum, Col("l_extendedprice"), "revenue"},
       {x100::AggKind::kCount, nullptr, "items"}});
  return x100::OrderNode(std::move(aggr), {{"okey", true}});
}

std::string Q6Sql(int year) {
  const std::string y = std::to_string(year);
  const std::string next = std::to_string(year + 1);
  return "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
         "WHERE l_shipdate >= DATE '" + y + "-01-01' AND l_shipdate < DATE '" +
         next + "-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND "
         "l_quantity < 24.0";
}

namespace {

/// Lineitem rows of orders [lo, hi) boxed as Volcano rows: the columns Q1
/// and Q6 read sit at their LineitemSchema positions, the rest are NULL.
x100::Result<std::vector<Row>> LineitemSlice(x100::Session* session,
                                             int64_t lo, int64_t hi) {
  static const char* kCols[] = {"l_orderkey",      "l_returnflag",
                                "l_linestatus",    "l_quantity",
                                "l_extendedprice", "l_discount",
                                "l_tax",           "l_shipdate"};
  std::vector<std::string> cols(std::begin(kCols), std::end(kCols));
  AlgebraPtr plan = x100::SelectNode(
      x100::ScanNode("lineitem", cols),
      x100::And(x100::Ge(Col("l_orderkey"), Lit(Value::I64(lo))),
                x100::Lt(Col("l_orderkey"), Lit(Value::I64(hi)))));
  auto res = session->Execute(std::move(plan));
  X100_RETURN_IF_ERROR(res.status());
  const x100::Schema lineitem = x100::tpch::LineitemSchema();
  std::vector<int> pos;
  for (const x100::Field& f : res->schema.fields()) {
    pos.push_back(lineitem.FindField(f.name));
  }
  std::vector<Row> out;
  out.reserve(res->rows.size());
  for (Row& r : res->rows) {
    Row boxed(lineitem.num_fields());
    for (size_t c = 0; c < r.size(); c++) boxed[pos[c]] = std::move(r[c]);
    out.push_back(std::move(boxed));
  }
  return out;
}

x100::Result<std::vector<Row>> RunVolcano(
    x100::Result<x100::volcano::VOperatorPtr> plan) {
  X100_RETURN_IF_ERROR(plan.status());
  return x100::volcano::Collect(plan->get());
}

}  // namespace

x100::Result<VolcanoAnswers> VolcanoOracle(x100::Session* session,
                                           int64_t num_orders, int q1_delta,
                                           int q6_year) {
  // Q1 accumulators per (returnflag, linestatus): the four sums, the three
  // averages re-weighted by count, and the count.
  struct Q1Group {
    Value flag, status;
    double sums[4] = {0, 0, 0, 0};
    double weighted_avgs[3] = {0, 0, 0};
    int64_t count = 0;
  };
  std::map<std::string, Q1Group> q1;
  double q6 = 0;
  for (int64_t lo = 1; lo <= num_orders;
       lo += params::kOracleSliceOrders) {
    std::vector<Row> slice;
    X100_ASSIGN_OR_RETURN(
        slice, LineitemSlice(session, lo, lo + params::kOracleSliceOrders));
    std::vector<Row> part;
    X100_ASSIGN_OR_RETURN(part,
                          RunVolcano(x100::tpch::Q1Volcano(&slice, q1_delta)));
    for (const Row& r : part) {
      Q1Group& g = q1[r[0].AsStr() + "|" + r[1].AsStr()];
      g.flag = r[0];
      g.status = r[1];
      const int64_t n = r[9].AsI64();
      for (int i = 0; i < 4; i++) g.sums[i] += r[2 + i].AsF64();
      for (int i = 0; i < 3; i++) g.weighted_avgs[i] += r[6 + i].AsF64() * n;
      g.count += n;
    }
    X100_ASSIGN_OR_RETURN(part,
                          RunVolcano(x100::tpch::Q6Volcano(&slice, q6_year)));
    for (const Row& r : part) {
      if (!r[0].is_null()) q6 += r[0].AsF64();
    }
  }
  VolcanoAnswers out;
  for (const auto& [key, g] : q1) {  // map order = ORDER BY flag, status
    Row r = {g.flag, g.status};
    for (double s : g.sums) r.push_back(Value::F64(s));
    for (double a : g.weighted_avgs) {
      r.push_back(Value::F64(a / static_cast<double>(g.count)));
    }
    r.push_back(Value::I64(g.count));
    out.q1.push_back(std::move(r));
  }
  out.q6.push_back({Value::F64(q6)});
  return out;
}

x100::Result<std::vector<Row>> SerialReference(x100::Session* session,
                                               AlgebraPtr plan) {
  x100::EngineConfig& cfg = session->db()->config();
  const int width = cfg.max_parallelism;
  cfg.max_parallelism = 1;
  auto res = session->Execute(std::move(plan));
  cfg.max_parallelism = width;
  X100_RETURN_IF_ERROR(res.status());
  return std::move(res->rows);
}

OpTimes ClassifyProfile(const x100::QueryProfile& profile) {
  OpTimes t;
  t.wall = static_cast<double>(profile.wall_ns) / 1e6;
  auto starts =[](const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
  };
  for (const x100::OperatorProfile& op : profile.operators) {
    const double ms = static_cast<double>(op.exclusive_ns()) / 1e6;
    const std::string& n = op.op;
    t.self_total += ms;
    if (starts(n, "JoinBuildSpill") || starts(n, "JoinBuildDefer") ||
        starts(n, "JoinProbeSpill")) {
      t.spill_join += op.spill_bytes;
    } else if (starts(n, "AggSpill")) {
      t.spill_agg += op.spill_bytes;
    } else if (starts(n, "SortSpill")) {
      t.spill_sort += op.spill_bytes;
    }
    if (starts(n, "Scan")) {
      t.scan += ms;
    } else if (starts(n, "Select") || starts(n, "Project")) {
      t.expr += ms;
    } else if (starts(n, "JoinBuild")) {
      t.join_build += ms;
    } else if (starts(n, "JoinProbe") || starts(n, "JoinPair")) {
      t.join_probe += ms;
    } else if (starts(n, "AggMerge")) {
      t.agg_merge += ms;
    } else if (starts(n, "ParallelHashAgg") || starts(n, "HashAgg")) {
      t.agg += ms;
    } else if (starts(n, "ParallelSort") || starts(n, "ParallelTopN") ||
               starts(n, "Sort") || starts(n, "TopN")) {
      t.sort += ms;
    }
  }
  return t;
}

x100::Result<HotRows> FetchHotRows(x100::Session* session,
                                   int64_t num_orders, int64_t hot_orders) {
  x100::UpdatableTable* table = nullptr;
  X100_ASSIGN_OR_RETURN(table, session->db()->GetTable("lineitem"));
  HotRows hot;
  // One worker scans in row order, so the rows come back as rids.
  X100_ASSIGN_OR_RETURN(
      hot.rows,
      SerialReference(session,
                      x100::SelectNode(
                          x100::ScanNode("lineitem"),
                          x100::Gt(Col("l_orderkey"),
                                   Lit(Value::I64(num_orders - hot_orders))))));
  hot.first_rid =
      table->visible_rows() - static_cast<int64_t>(hot.rows.size());
  return hot;
}

namespace {

/// Bytes a row occupies as user data: fixed widths plus string lengths.
int64_t RowBytes(const Row& row) {
  int64_t bytes = 0;
  for (const Value& v : row) {
    bytes += v.type() == x100::TypeId::kStr
                 ? static_cast<int64_t>(v.AsStr().size())
                 : x100::TypeWidth(v.type());
  }
  return bytes;
}

}  // namespace

Status RunHotTxn(x100::Database* db, x100::UpdatableTable* table,
                 HotRows* hot, x100::Rng* rng, int writes,
                 double delete_append_share, Tracer* tracer, int64_t req,
                 int64_t parent, int64_t* user_bytes) {
  // The numeric columns a write-back may pick: l_quantity, l_extendedprice,
  // l_discount, l_tax, l_shipdate.
  static constexpr int kWritableCols[] = {4, 5, 6, 7, 10};
  const int64_t n = static_cast<int64_t>(hot->rows.size());
  std::vector<int64_t> moved;  // delete+append positions, for rollback
  auto txn = db->txn_manager()->Begin(table);
  Status status = Status::OK();
  int64_t bytes = 0;
  for (int w = 0; w < writes && status.ok(); w++) {
    ScopedSpan span(tracer, db, "txn_op", req, parent);
    const int64_t i = rng->Uniform(0, n - 1);
    const int64_t rid = hot->first_rid + i;
    if (rng->Bernoulli(delete_append_share)) {
      Row row = hot->rows[i];
      status = txn->Delete(rid);
      if (status.ok()) status = txn->Append(row);
      if (!status.ok()) break;
      bytes += RowBytes(row);
      hot->rows.erase(hot->rows.begin() + i);
      hot->rows.push_back(std::move(row));
      moved.push_back(i);
    } else {
      const int col = kWritableCols[rng->Uniform(0, 4)];
      const Value& v = hot->rows[i][col];
      bytes += x100::TypeWidth(v.type());
      status = txn->Update(rid, col, v);
    }
  }
  if (status.ok()) {
    ScopedSpan span(tracer, db, "commit", req, parent);
    status = db->txn_manager()->Commit(txn.get());
  }
  if (!status.ok()) {
    db->txn_manager()->Abort(txn.get());
    // Undo the mirror's moves, newest first.
    for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
      Row row = std::move(hot->rows.back());
      hot->rows.pop_back();
      hot->rows.insert(hot->rows.begin() + *it, std::move(row));
    }
    return status;
  }
  *user_bytes += bytes;
  return Status::OK();
}

}  // namespace x100bench
