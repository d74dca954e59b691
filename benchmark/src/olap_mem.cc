// olap_mem: TPC-H SF 0.2 held entirely in RAM (the 256 MiB pool holds all
// ~76 MB), one closed-loop client running Q1 -> Q6 -> Q3 -> join_sort.
// Primitives, operators and the scheduler do all the work; IO, spill and
// the frontend do none (prepared plans, pool hit ratio 1.0).
#include "loop.h"
#include "queries.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace x100bench {

bool RunOlapMem(const Options& opt, Report* report, Tracer* tracer,
                LayerStats* layers) {
  x100::Rng rng(opt.seed);
  const int q1_delta = Pick(&rng, params::kQ1DeltaDays);
  const int q6_year = Pick(&rng, params::kQ6Years);
  const std::string segment = Pick(&rng, params::kQ3Segments);
  report->facts["q1_delta_days"] = std::to_string(q1_delta);
  report->facts["q6_year"] = std::to_string(q6_year);
  report->facts["q3_segment"] = segment;

  x100::EngineConfig cfg = BaseConfig();
  cfg.buffer_pool_bytes = params::kOlapPoolBytes;
  auto built = TimedSetup(
      [&]() -> x100::Result<Built> {
        Built b = Open(cfg);
        X100_RETURN_IF_ERROR(x100::tpch::Generate(b.db.get(), params::kOlapSf));
        return b;
      },
      report, tracer, layers);
  if (!Check(built.status(), "olap_mem set-up")) return false;
  x100::Database* db = built->db.get();
  x100::Session session(db);

  const int64_t orders = (*db->GetTable("orders"))->visible_rows();
  auto oracle = VolcanoOracle(&session, orders, q1_delta, q6_year);
  auto ref_q3 = SerialReference(&session, x100::tpch::Q3Plan(segment));
  auto ref_js = SerialReference(&session, JoinSortPlan());
  if (!Check(oracle.status(), "Volcano oracle") ||
      !Check(ref_q3.status(), "Q3 reference") ||
      !Check(ref_js.status(), "join_sort reference")) {
    return false;
  }
  const std::pair<const char*, x100::AlgebraPtr> plans[] = {
      {"q1", x100::tpch::Q1Plan(q1_delta)},
      {"q6", x100::tpch::Q6Plan(q6_year)},
      {"q3", x100::tpch::Q3Plan(segment)},
      {"join_sort", JoinSortPlan()}};
  const std::vector<Row>* expected[] = {&oracle->q1, &oracle->q6, &*ref_q3,
                                        &*ref_js};
  std::vector<Op> ops;
  x100::PreparedStatement q6_stmt;
  for (size_t i = 0; i < 4; i++) {
    auto stmt = session.PreparePlan(plans[i].second, plans[i].first);
    if (!Check(stmt.status(), "prepare")) return false;
    if (i == 1) q6_stmt = *stmt;
    const std::string shape = plans[i].first;
    const std::vector<Row>* want = expected[i];
    ops.push_back(
        {shape, [&session, stmt = *stmt, want, shape](const OpCtx& ctx) {
           return RunCheckedQuery(&session, stmt, *want, shape, ctx);
         }});
  }
  if (!RunWarmupAndTimed(
          opt.seconds, [&](int64_t) { return ops; }, db, tracer, layers,
          report)) {
    return false;
  }

  if (tracer->enabled()) {
    ProbeSpec spec;
    spec.sql = {Q6Sql(q6_year), kFatSql};
    spec.overhead_stmt = q6_stmt;
    spec.num_orders = orders;
    if (!Check(RunProbes(&session, spec, tracer, layers), "probes")) {
      return false;
    }
  }
  return true;
}

}  // namespace x100bench
