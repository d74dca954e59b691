#include "tpch/tpch.h"

#include <charconv>
#include <cstring>
#include <string_view>

#include "engine/query_executor.h"

#include "common/rng.h"

namespace x100 {
namespace tpch {

namespace {

const char* kShipModes[] = {"AIR", "FOB", "MAIL", "RAIL",
                            "REG AIR", "SHIP", "TRUCK"};
const char* kShipInstruct[] = {"COLLECT COD", "DELIVER IN PERSON",
                               "NONE", "TAKE BACK RETURN"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "HOUSEHOLD", "MACHINERY"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kNations[] = {"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA",
                          "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY",
                          "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
                          "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE",
                          "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
                          "VIETNAM", "RUSSIA", "UNITED KINGDOM",
                          "UNITED STATES"};
const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

int32_t kStartDate, kEndDate, kCurrentDate;

void InitDates() {
  kStartDate = MakeDate(1992, 1, 1);
  kEndDate = MakeDate(1998, 12, 1);
  kCurrentDate = MakeDate(1995, 6, 17);
}

}  // namespace

Schema LineitemSchema() {
  return Schema({Field("l_orderkey", TypeId::kI64),
                 Field("l_partkey", TypeId::kI64),
                 Field("l_suppkey", TypeId::kI64),
                 Field("l_linenumber", TypeId::kI32),
                 Field("l_quantity", TypeId::kF64),
                 Field("l_extendedprice", TypeId::kF64),
                 Field("l_discount", TypeId::kF64),
                 Field("l_tax", TypeId::kF64),
                 Field("l_returnflag", TypeId::kStr),
                 Field("l_linestatus", TypeId::kStr),
                 Field("l_shipdate", TypeId::kDate),
                 Field("l_commitdate", TypeId::kDate),
                 Field("l_receiptdate", TypeId::kDate),
                 Field("l_shipinstruct", TypeId::kStr),
                 Field("l_shipmode", TypeId::kStr),
                 Field("l_comment", TypeId::kStr)});
}

Schema OrdersSchema() {
  return Schema({Field("o_orderkey", TypeId::kI64),
                 Field("o_custkey", TypeId::kI64),
                 Field("o_orderstatus", TypeId::kStr),
                 Field("o_totalprice", TypeId::kF64),
                 Field("o_orderdate", TypeId::kDate),
                 Field("o_orderpriority", TypeId::kStr),
                 Field("o_clerk", TypeId::kStr),
                 Field("o_shippriority", TypeId::kI32),
                 Field("o_comment", TypeId::kStr)});
}

Schema CustomerSchema() {
  return Schema({Field("c_custkey", TypeId::kI64),
                 Field("c_name", TypeId::kStr),
                 Field("c_address", TypeId::kStr),
                 Field("c_nationkey", TypeId::kI32),
                 Field("c_phone", TypeId::kStr),
                 Field("c_acctbal", TypeId::kF64),
                 Field("c_mktsegment", TypeId::kStr),
                 Field("c_comment", TypeId::kStr)});
}

Schema PartSchema() {
  return Schema({Field("p_partkey", TypeId::kI64),
                 Field("p_name", TypeId::kStr),
                 Field("p_mfgr", TypeId::kStr),
                 Field("p_brand", TypeId::kStr),
                 Field("p_type", TypeId::kStr),
                 Field("p_size", TypeId::kI32),
                 Field("p_container", TypeId::kStr),
                 Field("p_retailprice", TypeId::kF64),
                 Field("p_comment", TypeId::kStr)});
}

Schema SupplierSchema() {
  return Schema({Field("s_suppkey", TypeId::kI64),
                 Field("s_name", TypeId::kStr),
                 Field("s_address", TypeId::kStr),
                 Field("s_nationkey", TypeId::kI32),
                 Field("s_phone", TypeId::kStr),
                 Field("s_acctbal", TypeId::kF64),
                 Field("s_comment", TypeId::kStr)});
}

Schema NationSchema() {
  return Schema({Field("n_nationkey", TypeId::kI32),
                 Field("n_name", TypeId::kStr),
                 Field("n_regionkey", TypeId::kI32),
                 Field("n_comment", TypeId::kStr)});
}

Schema RegionSchema() {
  return Schema({Field("r_regionkey", TypeId::kI32),
                 Field("r_name", TypeId::kStr),
                 Field("r_comment", TypeId::kStr)});
}

namespace {

/// Loads one generated table a vector at a time: the generator writes each
/// row straight into a batch's columns, and every full batch goes to the
/// builder through AppendBatch.
class VectorLoader {
 public:
  VectorLoader(Database* db, const std::string& name, const Schema& schema,
               Layout layout)
      : db_(db),
        builder_(db->CreateTable(name, schema, layout)),
        batch_(schema, db->config().vector_size) {}

  /// The cell of column `col` in the row being generated.
  template <typename T>
  T& At(int col) {
    return batch_.column(col)->Data<T>()[batch_.rows()];
  }

  /// A string cell copied into the column's heap.
  void Str(int col, std::string_view s) {
    At<StrRef>(col) = batch_.column(col)->heap()->Add(s);
  }

  /// A string cell pointing at static storage (a literal, a table entry).
  void Literal(int col, const char* s) {
    At<StrRef>(col) = StrRef(std::string_view(s));
  }

  /// `prefix` followed by the decimal digits of `n`.
  void Numbered(int col, std::string_view prefix, int64_t n) {
    char buf[48];
    std::memcpy(buf, prefix.data(), prefix.size());
    char* end = std::to_chars(buf + prefix.size(), buf + sizeof(buf), n).ptr;
    Str(col, std::string_view(buf, end - buf));
  }

  /// Two to five random words, cut short once `max_len` is reached.
  void Comment(int col, Rng* rng, int max_len) {
    static const char* words[] = {"carefully", "final", "deposits", "sleep",
                                  "quickly",   "bold",  "requests", "haggle",
                                  "furiously", "even",  "accounts", "ideas"};
    char buf[64];  // at most 5 words of 9 letters and 4 spaces
    size_t len = 0;
    const int n = static_cast<int>(rng->Uniform(2, 5));
    for (int i = 0; i < n; i++) {
      if (i) buf[len++] = ' ';
      const char* w = words[rng->Uniform(0, 11)];
      const size_t wlen = std::strlen(w);
      std::memcpy(buf + len, w, wlen);
      len += wlen;
      if (static_cast<int>(len) >= max_len) break;
    }
    Str(col, std::string_view(buf, len));
  }

  /// Closes the row being generated; a full batch is loaded.
  Status EndRow() {
    batch_.set_rows(batch_.rows() + 1);
    return batch_.rows() == batch_.capacity() ? Load() : Status::OK();
  }

  /// Loads the remaining rows, then finishes and registers the table.
  Status Finish() {
    X100_RETURN_IF_ERROR(Load());
    auto t = builder_->Finish();
    X100_RETURN_IF_ERROR(t.status());
    return db_->RegisterTable(std::move(t).value()).status();
  }

 private:
  Status Load() {
    if (batch_.rows() == 0) return Status::OK();
    const Status s = builder_->AppendBatch(batch_);
    batch_.Reset();
    return s;
  }

  Database* db_;
  std::unique_ptr<TableBuilder> builder_;
  Batch batch_;
};

Status GenerateSmallTables(Database* db, Layout layout) {
  {
    VectorLoader b(db, "region", RegionSchema(), layout);
    for (int r = 0; r < 5; r++) {
      b.At<int32_t>(0) = r;
      b.Literal(1, kRegions[r]);
      b.Literal(2, "");
      X100_RETURN_IF_ERROR(b.EndRow());
    }
    X100_RETURN_IF_ERROR(b.Finish());
  }
  {
    VectorLoader b(db, "nation", NationSchema(), layout);
    for (int n = 0; n < 25; n++) {
      b.At<int32_t>(0) = n;
      b.Literal(1, kNations[n]);
      b.At<int32_t>(2) = n % 5;
      b.Literal(3, "");
      X100_RETURN_IF_ERROR(b.EndRow());
    }
    X100_RETURN_IF_ERROR(b.Finish());
  }
  return Status::OK();
}

}  // namespace

// Every generator draws its random numbers in column order, one row at a
// time, so the data does not depend on how rows are batched.
Status Generate(Database* db, double sf, Layout layout) {
  InitDates();
  X100_RETURN_IF_ERROR(GenerateSmallTables(db, layout));

  const int64_t n_customers = std::max<int64_t>(1, 150000 * sf);
  const int64_t n_orders = n_customers * 10;
  const int64_t n_parts = std::max<int64_t>(1, 200000 * sf);
  const int64_t n_suppliers = std::max<int64_t>(1, 10000 * sf);

  {
    Rng rng(101);
    VectorLoader b(db, "customer", CustomerSchema(), layout);
    for (int64_t c = 1; c <= n_customers; c++) {
      b.At<int64_t>(0) = c;
      b.Numbered(1, "Customer#", c);
      b.Numbered(2, "addr-", rng.Uniform(0, 99999));
      b.At<int32_t>(3) = static_cast<int32_t>(rng.Uniform(0, 24));
      b.Literal(4, "phone");
      b.At<double>(5) = rng.Uniform(-99999, 999999) / 100.0;
      b.Literal(6, kSegments[rng.Uniform(0, 4)]);
      b.Comment(7, &rng, 40);
      X100_RETURN_IF_ERROR(b.EndRow());
    }
    X100_RETURN_IF_ERROR(b.Finish());
  }
  {
    Rng rng(102);
    VectorLoader b(db, "supplier", SupplierSchema(), layout);
    for (int64_t s = 1; s <= n_suppliers; s++) {
      b.At<int64_t>(0) = s;
      b.Numbered(1, "Supplier#", s);
      b.Literal(2, "addr");
      b.At<int32_t>(3) = static_cast<int32_t>(rng.Uniform(0, 24));
      b.Literal(4, "phone");
      b.At<double>(5) = rng.Uniform(-99999, 999999) / 100.0;
      b.Comment(6, &rng, 30);
      X100_RETURN_IF_ERROR(b.EndRow());
    }
    X100_RETURN_IF_ERROR(b.Finish());
  }
  {
    Rng rng(103);
    static const char* kTypes[] = {"STANDARD BRUSHED", "SMALL BRUSHED",
                                   "MEDIUM BRUSHED",   "LARGE BRUSHED",
                                   "ECONOMY BRUSHED",  "PROMO BRUSHED"};
    VectorLoader b(db, "part", PartSchema(), layout);
    for (int64_t p = 1; p <= n_parts; p++) {
      b.At<int64_t>(0) = p;
      b.Numbered(1, "part-", p);
      b.Numbered(2, "Manufacturer#", rng.Uniform(1, 5));
      b.Numbered(3, "Brand#", rng.Uniform(11, 55));
      b.Literal(4, kTypes[rng.Uniform(0, 5)]);
      b.At<int32_t>(5) = static_cast<int32_t>(rng.Uniform(1, 50));
      b.Literal(6, "JUMBO PKG");
      b.At<double>(7) = 900 + (p % 1000) / 10.0;
      b.Comment(8, &rng, 20);
      X100_RETURN_IF_ERROR(b.EndRow());
    }
    X100_RETURN_IF_ERROR(b.Finish());
  }

  // orders + lineitem generated together (1..7 lines per order).
  Rng rng(104);
  VectorLoader ob(db, "orders", OrdersSchema(), layout);
  VectorLoader lb(db, "lineitem", LineitemSchema(), layout);
  for (int64_t o = 1; o <= n_orders; o++) {
    const int32_t orderdate = static_cast<int32_t>(
        rng.Uniform(kStartDate, kEndDate - 151));
    const int64_t custkey = rng.Uniform(1, n_customers);
    const int n_lines = static_cast<int>(rng.Uniform(1, 7));
    double total = 0;
    for (int l = 1; l <= n_lines; l++) {
      const double qty = static_cast<double>(rng.Uniform(1, 50));
      const int64_t partkey = rng.Uniform(1, n_parts);
      const double price = qty * (900 + (partkey % 1000) / 10.0) / 10.0;
      const double discount = rng.Uniform(0, 10) / 100.0;
      const double tax = rng.Uniform(0, 8) / 100.0;
      const int32_t shipdate =
          orderdate + static_cast<int32_t>(rng.Uniform(1, 121));
      const int32_t commitdate =
          orderdate + static_cast<int32_t>(rng.Uniform(30, 90));
      const int32_t receiptdate =
          shipdate + static_cast<int32_t>(rng.Uniform(1, 30));
      const bool shipped = shipdate <= kCurrentDate;
      total += price * (1 + tax);
      lb.At<int64_t>(0) = o;
      lb.At<int64_t>(1) = partkey;
      lb.At<int64_t>(2) = rng.Uniform(1, n_suppliers);
      lb.At<int32_t>(3) = l;
      lb.At<double>(4) = qty;
      lb.At<double>(5) = price;
      lb.At<double>(6) = discount;
      lb.At<double>(7) = tax;
      lb.Literal(8, shipped ? (receiptdate <= kCurrentDate
                                   ? (rng.Bernoulli(0.5) ? "R" : "A")
                                   : "N")
                            : "N");
      lb.Literal(9, shipped ? "F" : "O");
      lb.At<int32_t>(10) = shipdate;
      lb.At<int32_t>(11) = commitdate;
      lb.At<int32_t>(12) = receiptdate;
      lb.Literal(13, kShipInstruct[rng.Uniform(0, 3)]);
      lb.Literal(14, kShipModes[rng.Uniform(0, 6)]);
      lb.Comment(15, &rng, 27);
      X100_RETURN_IF_ERROR(lb.EndRow());
    }
    ob.At<int64_t>(0) = o;
    ob.At<int64_t>(1) = custkey;
    ob.Literal(2, orderdate + 151 < kCurrentDate ? "F" : "O");
    ob.At<double>(3) = total;
    ob.At<int32_t>(4) = orderdate;
    ob.Literal(5, kPriorities[rng.Uniform(0, 4)]);
    ob.Numbered(6, "Clerk#", rng.Uniform(1, 1000));
    ob.At<int32_t>(7) = 0;
    ob.Comment(8, &rng, 19);
    X100_RETURN_IF_ERROR(ob.EndRow());
  }
  X100_RETURN_IF_ERROR(ob.Finish());
  X100_RETURN_IF_ERROR(lb.Finish());
  db->events()->Info("TPC-H generated at SF " + std::to_string(sf));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query plans (vectorized)
// ---------------------------------------------------------------------------

AlgebraPtr Q1Plan(int delta_days) {
  InitDates();
  const int32_t cutoff = MakeDate(1998, 12, 1) - delta_days;
  AlgebraPtr scan = ScanNode(
      "lineitem", {"l_returnflag", "l_linestatus", "l_quantity",
                   "l_extendedprice", "l_discount", "l_tax", "l_shipdate"});
  AlgebraPtr sel =
      SelectNode(scan, Le(Col("l_shipdate"), Lit(Value::Date(cutoff))));
  std::vector<ProjectItem> proj;
  proj.push_back({"l_returnflag", Col("l_returnflag")});
  proj.push_back({"l_linestatus", Col("l_linestatus")});
  proj.push_back({"l_quantity", Col("l_quantity")});
  proj.push_back({"l_extendedprice", Col("l_extendedprice")});
  proj.push_back({"l_discount", Col("l_discount")});
  proj.push_back(
      {"disc_price", Mul(Col("l_extendedprice"),
                         Sub(Lit(Value::F64(1.0)), Col("l_discount")))});
  proj.push_back(
      {"charge",
       Mul(Mul(Col("l_extendedprice"),
               Sub(Lit(Value::F64(1.0)), Col("l_discount"))),
           Add(Lit(Value::F64(1.0)), Col("l_tax")))});
  AlgebraPtr project = ProjectNode(sel, std::move(proj));
  std::vector<ProjectItem> keys;
  keys.push_back({"l_returnflag", Col("l_returnflag")});
  keys.push_back({"l_linestatus", Col("l_linestatus")});
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kSum, Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggKind::kSum, Col("l_extendedprice"), "sum_base_price"});
  aggs.push_back({AggKind::kSum, Col("disc_price"), "sum_disc_price"});
  aggs.push_back({AggKind::kSum, Col("charge"), "sum_charge"});
  aggs.push_back({AggKind::kAvg, Col("l_quantity"), "avg_qty"});
  aggs.push_back({AggKind::kAvg, Col("l_extendedprice"), "avg_price"});
  aggs.push_back({AggKind::kAvg, Col("l_discount"), "avg_disc"});
  aggs.push_back({AggKind::kCount, nullptr, "count_order"});
  AlgebraPtr aggr = AggrNode(project, std::move(keys), std::move(aggs));
  return OrderNode(aggr, {{"l_returnflag", true}, {"l_linestatus", true}});
}

AlgebraPtr Q3Plan(const std::string& segment) {
  InitDates();
  const int32_t cut = MakeDate(1995, 3, 15);
  // customer(filtered) ⋈ orders(filtered) ⋈ lineitem(filtered)
  AlgebraPtr cust = SelectNode(
      ScanNode("customer", {"c_custkey", "c_mktsegment"}),
      Eq(Col("c_mktsegment"), Lit(Value::Str(segment))));
  AlgebraPtr orders = SelectNode(
      ScanNode("orders",
               {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}),
      Lt(Col("o_orderdate"), Lit(Value::Date(cut))));
  // build: customer, probe: orders.
  AlgebraPtr co = JoinNode(cust, orders, JoinType::kInner, {"c_custkey"},
                           {"o_custkey"});
  AlgebraPtr line = SelectNode(
      ScanNode("lineitem",
               {"l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"}),
      Gt(Col("l_shipdate"), Lit(Value::Date(cut))));
  AlgebraPtr col = JoinNode(co, line, JoinType::kInner, {"o_orderkey"},
                            {"l_orderkey"});
  std::vector<ProjectItem> keys;
  keys.push_back({"l_orderkey", Col("l_orderkey")});
  keys.push_back({"o_orderdate", Col("o_orderdate")});
  keys.push_back({"o_shippriority", Col("o_shippriority")});
  std::vector<AggItem> aggs;
  ExprPtr revenue = Mul(Col("l_extendedprice"),
                        Sub(Lit(Value::F64(1.0)), Col("l_discount")));
  aggs.push_back({AggKind::kSum, revenue, "revenue"});
  AlgebraPtr aggr = AggrNode(col, std::move(keys), std::move(aggs));
  return OrderNode(aggr, {{"revenue", false}, {"o_orderdate", true}}, 10);
}

AlgebraPtr Q6Plan(int year) {
  InitDates();
  const int32_t lo = MakeDate(year, 1, 1);
  const int32_t hi = MakeDate(year + 1, 1, 1);
  AlgebraPtr scan = ScanNode(
      "lineitem",
      {"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"});
  ExprPtr pred =
      And(And(Ge(Col("l_shipdate"), Lit(Value::Date(lo))),
              Lt(Col("l_shipdate"), Lit(Value::Date(hi)))),
          And(Call("between", {Col("l_discount"), Lit(Value::F64(0.05)),
                               Lit(Value::F64(0.07))}),
              Lt(Col("l_quantity"), Lit(Value::F64(24.0)))));
  AlgebraPtr sel = SelectNode(scan, pred);
  std::vector<AggItem> aggs;
  aggs.push_back({AggKind::kSum,
                  Mul(Col("l_extendedprice"), Col("l_discount")),
                  "revenue"});
  return AggrNode(sel, {}, std::move(aggs));
}

// ---------------------------------------------------------------------------
// Volcano plans
// ---------------------------------------------------------------------------

Result<std::vector<volcano::Row>> MaterializeRows(Database* db,
                                                  const std::string& table) {
  QueryExecutor exec(db);
  auto res = exec.Execute(ScanNode(table), "materialize " + table);
  X100_RETURN_IF_ERROR(res.status());
  return std::move(res->rows);
}

Result<volcano::VOperatorPtr> Q1Volcano(
    const std::vector<volcano::Row>* rows, int delta_days) {
  InitDates();
  const int32_t cutoff = MakeDate(1998, 12, 1) - delta_days;
  auto scan = std::make_unique<volcano::VScan>(LineitemSchema(), rows);
  auto sel = std::make_unique<volcano::VSelect>(
      std::move(scan), Le(Col("l_shipdate"), Lit(Value::Date(cutoff))));
  std::vector<volcano::VProjectItem> proj;
  proj.push_back({"l_returnflag", Col("l_returnflag")});
  proj.push_back({"l_linestatus", Col("l_linestatus")});
  proj.push_back({"l_quantity", Col("l_quantity")});
  proj.push_back({"l_extendedprice", Col("l_extendedprice")});
  proj.push_back({"l_discount", Col("l_discount")});
  proj.push_back(
      {"disc_price", Mul(Col("l_extendedprice"),
                         Sub(Lit(Value::F64(1.0)), Col("l_discount")))});
  proj.push_back(
      {"charge",
       Mul(Mul(Col("l_extendedprice"),
               Sub(Lit(Value::F64(1.0)), Col("l_discount"))),
           Add(Lit(Value::F64(1.0)), Col("l_tax")))});
  auto project = std::make_unique<volcano::VProject>(std::move(sel),
                                                     std::move(proj));
  std::vector<volcano::VProjectItem> keys;
  keys.push_back({"l_returnflag", Col("l_returnflag")});
  keys.push_back({"l_linestatus", Col("l_linestatus")});
  std::vector<volcano::VAggItem> aggs;
  aggs.push_back({AggKind::kSum, Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggKind::kSum, Col("l_extendedprice"), "sum_base_price"});
  aggs.push_back({AggKind::kSum, Col("disc_price"), "sum_disc_price"});
  aggs.push_back({AggKind::kSum, Col("charge"), "sum_charge"});
  aggs.push_back({AggKind::kAvg, Col("l_quantity"), "avg_qty"});
  aggs.push_back({AggKind::kAvg, Col("l_extendedprice"), "avg_price"});
  aggs.push_back({AggKind::kAvg, Col("l_discount"), "avg_disc"});
  aggs.push_back({AggKind::kCount, nullptr, "count_order"});
  auto agg = std::make_unique<volcano::VHashAgg>(
      std::move(project), std::move(keys), std::move(aggs));
  return volcano::VOperatorPtr(std::make_unique<volcano::VSort>(
      std::move(agg),
      std::vector<volcano::VSort::Key>{{0, true}, {1, true}}));
}

Result<volcano::VOperatorPtr> Q6Volcano(
    const std::vector<volcano::Row>* rows, int year) {
  InitDates();
  const int32_t lo = MakeDate(year, 1, 1);
  const int32_t hi = MakeDate(year + 1, 1, 1);
  auto scan = std::make_unique<volcano::VScan>(LineitemSchema(), rows);
  ExprPtr pred =
      And(And(Ge(Col("l_shipdate"), Lit(Value::Date(lo))),
              Lt(Col("l_shipdate"), Lit(Value::Date(hi)))),
          And(And(Ge(Col("l_discount"), Lit(Value::F64(0.05))),
                  Le(Col("l_discount"), Lit(Value::F64(0.07)))),
              Lt(Col("l_quantity"), Lit(Value::F64(24.0)))));
  auto sel =
      std::make_unique<volcano::VSelect>(std::move(scan), std::move(pred));
  std::vector<volcano::VAggItem> aggs;
  aggs.push_back({AggKind::kSum,
                  Mul(Col("l_extendedprice"), Col("l_discount")),
                  "revenue"});
  return volcano::VOperatorPtr(std::make_unique<volcano::VHashAgg>(
      std::move(sel), std::vector<volcano::VProjectItem>{},
      std::move(aggs)));
}

}  // namespace tpch
}  // namespace x100
