// The workloads' query shapes and the answers they are checked against.
#ifndef X100BENCH_QUERIES_H_
#define X100BENCH_QUERIES_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/session.h"
#include "harness.h"

namespace x100bench {

/// The E13 shape: orders ⋈ lineitem, one group per order, ORDER BY order
/// key. Every breaker (join build, aggregation, sort) holds real state.
x100::AlgebraPtr JoinSortPlan();

/// E14's fat aggregate over lineitem.
inline constexpr const char* kFatSql =
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem "
    "GROUP BY l_returnflag ORDER BY l_returnflag";

/// Q6 as SQL, for the frontend probe of the TPC-H workloads.
std::string Q6Sql(int year);

/// Q1 and Q6 answers from the tuple-at-a-time Volcano engine
/// (tpch::Q1Volcano / Q6Volcano), an implementation independent of the
/// vectorized operators. Lineitem is walked in slices of order keys so the
/// boxed rows of one slice stay small; slice results are combined exactly
/// (sums and counts add, averages are re-weighted by their counts).
struct VolcanoAnswers {
  std::vector<Row> q1;
  std::vector<Row> q6;
};
x100::Result<VolcanoAnswers> VolcanoOracle(x100::Session* session,
                                           int64_t num_orders, int q1_delta,
                                           int q6_year);

/// The rows of `plan` run with one worker: the reference a parallel run
/// must reproduce.
x100::Result<std::vector<Row>> SerialReference(x100::Session* session,
                                               x100::AlgebraPtr plan);

/// Per-operator time of one query's profile, summed over instances and
/// grouped by what the operator does, in ms. Spill bytes per breaker.
struct OpTimes {
  double scan = 0, expr = 0, join_build = 0, join_probe = 0, agg = 0,
         agg_merge = 0, sort = 0, self_total = 0, wall = 0;
  int64_t spill_join = 0, spill_agg = 0, spill_sort = 0;
};
OpTimes ClassifyProfile(const x100::QueryProfile& profile);

/// The writable tail of lineitem: the lines of its newest orders, which
/// are the last rows of the visible table. Writes keep the set closed (a
/// deleted row is appended again), so rows[i] is always visible row
/// first_rid + i.
struct HotRows {
  std::vector<Row> rows;
  int64_t first_rid = 0;
};
x100::Result<HotRows> FetchHotRows(x100::Session* session,
                                   int64_t num_orders, int64_t hot_orders);

/// One value-preserving transaction on the hot rows: `writes` writes,
/// each either a column written back with its current value or (with
/// probability `delete_append_share`) a delete paired with an append of
/// the identical row. Spans `txn_op` and `commit` go to `tracer` when it
/// is non-null. `user_bytes` accumulates the bytes the writes changed.
x100::Status RunHotTxn(x100::Database* db, x100::UpdatableTable* table,
                       HotRows* hot, x100::Rng* rng, int writes,
                       double delete_append_share, Tracer* tracer,
                       int64_t req, int64_t parent, int64_t* user_bytes);

}  // namespace x100bench

#endif  // X100BENCH_QUERIES_H_
