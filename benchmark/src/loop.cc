#include "loop.h"

#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace x100bench {

LoopResult RunClosedLoop(double seconds,
                         const std::function<std::vector<Op>(int64_t)>& round,
                         x100::Database* db, Tracer* tracer,
                         LayerStats* layers) {
  LoopResult r;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const double cpu0 = ProcessCpuSeconds();
  double check_cpu_s = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last_end = t0;
  for (int64_t i = 0; SecondsSince(t0) < seconds; i++) {
    // Whole rounds alternate, so every class has traced and untraced
    // requests.
    const bool traced = tracing && i % 2 == 0;
    for (const Op& op : round(i)) {
      const Clock::time_point start = Clock::now();
      r.gap_ms.Add(std::chrono::duration<double, std::milli>(start - last_end)
                       .count());
      Outcome outcome;
      {
        OpCtx ctx;
        ctx.layers = layers;
        ctx.check_cpu_s = &check_cpu_s;
        ScopedSpan span(traced ? tracer : nullptr, db, op.cls,
                        traced ? tracer->NewId() : 0);
        if (traced) {
          ctx.tracer = tracer;
          ctx.req = span.id();
          ctx.parent = span.id();
        }
        outcome = op.run(ctx);
      }
      last_end = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(last_end - start).count();
      r.attempted++;
      if (outcome != Outcome::kOk) r.failed++;
      if (outcome == Outcome::kWrong) r.wrong++;
      r.ms[op.cls].Add(ms);
      if (tracing) (traced ? r.traced_ms : r.untraced_ms)[op.cls].Add(ms);
      layers->min_share = std::min(layers->min_share,
                                   db->quota_controller()->current_share());
    }
  }
  r.wall_s = SecondsSince(t0);
  r.cpu_s = ProcessCpuSeconds() - cpu0 - check_cpu_s;
  return r;
}

Outcome RunCheckedQuery(x100::Session* session,
                        const x100::PreparedStatement& stmt,
                        const std::vector<Row>& expected,
                        const std::string& shape, const OpCtx& ctx) {
  x100::Database* db = session->db();
  db->memory()->ResetPeak();
  auto res = session->ExecutePrepared(stmt);
  ctx.layers->peak_mb.Add(static_cast<double>(db->memory()->peak()) / 1e6);
  if (!res.ok()) {
    std::fprintf(stderr, "x100bench: %s failed: %s\n", shape.c_str(),
                 res.status().ToString().c_str());
    return Outcome::kFailed;
  }
  ctx.layers->CountTimed(res->profile);
  ctx.layers->AddShape(shape, res->profile);
  const double check0 = ThreadCpuSeconds();
  const bool same = SameRows(res->rows, expected);
  *ctx.check_cpu_s += ThreadCpuSeconds() - check0;
  if (!same) {
    std::fprintf(stderr, "x100bench: WRONG ANSWER from %s\n", shape.c_str());
    return Outcome::kWrong;
  }
  return Outcome::kOk;
}

double TraceOverheadPct(const std::map<std::string, Samples>& traced,
                        const std::map<std::string, Samples>& untraced) {
  std::vector<double> ratios;
  for (const auto& [cls, t] : traced) {
    auto it = untraced.find(cls);
    if (it == untraced.end() || t.empty() || it->second.empty()) continue;
    const double u = it->second.Median();
    if (u > 0) ratios.push_back(t.Median() / u);
  }
  return ratios.empty() ? 0 : (GeoMean(ratios) - 1) * 100;
}

bool RunWarmupAndTimed(double seconds,
                       const std::function<std::vector<Op>(int64_t)>& round,
                       x100::Database* db, Tracer* tracer, LayerStats* layers,
                       Report* report) {
  if (!ResetPeakRss()) return false;
  report->facts["rss_mb_at_warmup"] = std::to_string(PeakRssMb());
  LayerStats warm_layers;
  const LoopResult warm = RunClosedLoop(params::kWarmupSeconds, round, db,
                                        nullptr, &warm_layers);
  report->wrong += warm.wrong;
  layers->warmup_wall_s = warm.wall_s;
  layers->warmup_cpu_s = warm.cpu_s;

  const EngineCounters c0 = EngineCounters::Read(db);
  LoopResult r = RunClosedLoop(seconds, round, db, tracer, layers);
  layers->timed = EngineCounters::Read(db) - c0;
  report->attempted += r.attempted;
  report->failed += r.failed;
  report->wrong += r.wrong;
  layers->timed_wall_s = r.wall_s;
  layers->timed_cpu_s = r.cpu_s;
  layers->client_late_ms = r.gap_ms;
  layers->backlog_max = 1;  // a closed loop has one request in flight
  layers->trace_overhead_pct = TraceOverheadPct(r.traced_ms, r.untraced_ms);
  ReportEndToEnd(report, r.ms, (r.attempted - r.failed) / r.wall_s,
                 r.cpu_s * 1e3 / r.attempted);
  return true;
}

}  // namespace x100bench
