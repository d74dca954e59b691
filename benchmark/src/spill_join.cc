// spill_join: TPC-H SF 0.1 with memory_limit 8 MiB (~1/6.5 of join_sort's
// unlimited peak) spilling to a file-backed device, one closed-loop client
// running join_sort only. Grace join, aggregation spill and sort spill do
// the work. join_sort also runs unlimited in olap_mem, so a spill change
// should move this workload and leave that one alone.
#include "loop.h"
#include "queries.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace x100bench {

bool RunSpillJoin(const Options& opt, Report* report, Tracer* tracer,
                  LayerStats* layers) {
  ScratchDir spill_dir("spill_join");
  x100::EngineConfig cfg = BaseConfig();
  cfg.buffer_pool_bytes = params::kOlapPoolBytes;  // tables stay resident
  cfg.memory_limit = params::kSpillLimitBytes;
  cfg.spill_path = spill_dir.path();
  layers->memory_limit = params::kSpillLimitBytes;
  auto built = TimedSetup(
      [&]() -> x100::Result<Built> {
        Built b = Open(cfg);
        X100_RETURN_IF_ERROR(
            x100::tpch::Generate(b.db.get(), params::kSpillSf));
        return b;
      },
      report, tracer, layers);
  if (!Check(built.status(), "spill_join set-up")) return false;
  x100::Database* db = built->db.get();
  x100::Session session(db);

  // The reference runs unlimited (and on one worker); the unlimited peak
  // at full width is recorded to confirm the limit's ratio.
  db->config().memory_limit = 0;
  db->memory()->ResetPeak();
  auto unlimited = session.Execute(JoinSortPlan());
  const double unlimited_peak_mb = db->memory()->peak() / 1e6;
  auto reference = SerialReference(&session, JoinSortPlan());
  db->config().memory_limit = params::kSpillLimitBytes;
  if (!Check(unlimited.status(), "unlimited join_sort") ||
      !Check(reference.status(), "join_sort reference")) {
    return false;
  }
  report->facts["unlimited_peak_mb"] = std::to_string(unlimited_peak_mb);
  report->facts["limit_over_peak"] = std::to_string(
      params::kSpillLimitBytes / 1e6 / unlimited_peak_mb);

  auto stmt = session.PreparePlan(JoinSortPlan(), "join_sort");
  auto q6_stmt = session.PreparePlan(x100::tpch::Q6Plan(), "q6");
  if (!Check(stmt.status(), "prepare") || !Check(q6_stmt.status(), "prepare")) {
    return false;
  }
  const std::vector<Op> ops = {
      {"join_sort", [&](const OpCtx& ctx) {
         return RunCheckedQuery(&session, *stmt, *reference, "join_sort",
                                ctx);
       }}};
  if (!RunWarmupAndTimed(
          opt.seconds, [&](int64_t) { return ops; }, db, tracer, layers,
          report)) {
    return false;
  }

  if (tracer->enabled()) {
    ProbeSpec spec;
    spec.sql = {Q6Sql(1994), kFatSql};
    spec.overhead_stmt = *q6_stmt;
    spec.num_orders = (*db->GetTable("orders"))->visible_rows();
    if (!Check(RunProbes(&session, spec, tracer, layers), "probes")) {
      return false;
    }
  }
  return true;
}

}  // namespace x100bench
