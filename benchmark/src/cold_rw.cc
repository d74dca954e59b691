// cold_rw: TPC-H SF 0.044 written to a file-backed data_path, closed and
// reopened cold behind a 4 MiB pool (~1/4 of lineitem) and a 200 MB/s
// device. One closed-loop client; each round runs Q6, Q1 and four
// transactions of 100 value-preserving writes to lineitem's newest rows,
// and every 16th round checkpoints lineitem. The read path (eviction,
// read-ahead, device) and the write path (PDT commits, checkpoint
// rewrites, catalog saves) share the storage layer, so a read-path gain
// that costs the write path shows here.
#include <filesystem>

#include "loop.h"
#include "queries.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace x100bench {

bool RunColdRw(const Options& opt, Report* report, Tracer* tracer,
               LayerStats* layers) {
  x100::Rng rng(opt.seed);
  const int q1_delta = Pick(&rng, params::kQ1DeltaDays);
  const int q6_year = Pick(&rng, params::kQ6Years);
  report->facts["q1_delta_days"] = std::to_string(q1_delta);
  report->facts["q6_year"] = std::to_string(q6_year);

  ScratchDir scratch("cold_rw");
  x100::EngineConfig cfg = BaseConfig();
  cfg.buffer_pool_bytes = params::kColdPoolBytes;
  cfg.disk_bandwidth = params::kColdBandwidth;
  int setups = 0;
  auto built = TimedSetup(
      [&]() -> x100::Result<Built> {
        // Every set-up writes a fresh directory; the previous one (its
        // database already destroyed) is removed first.
        std::error_code ec;
        std::filesystem::remove_all(
            scratch.path() + "/" + std::to_string(setups), ec);
        x100::EngineConfig c = cfg;
        c.data_path = scratch.path() + "/" + std::to_string(++setups);
        std::filesystem::create_directories(c.data_path, ec);
        {
          x100::Database writer(c);
          X100_RETURN_IF_ERROR(writer.open_status());
          X100_RETURN_IF_ERROR(x100::tpch::Generate(&writer, params::kColdSf));
        }
        Built b = Open(c);
        X100_RETURN_IF_ERROR(b.db->open_status());
        return b;
      },
      report, tracer, layers);
  if (!Check(built.status(), "cold_rw set-up")) return false;
  x100::Database* db = built->db.get();
  x100::Session session(db);
  x100::UpdatableTable* lineitem = *db->GetTable("lineitem");
  const int64_t orders = (*db->GetTable("orders"))->visible_rows();

  // Reads are checked against the Volcano oracle computed on the reopened
  // image; writes preserve every value, so the answers never change.
  auto oracle = VolcanoOracle(&session, orders, q1_delta, q6_year);
  auto hot = FetchHotRows(&session, orders, params::kColdHotOrders);
  if (!Check(oracle.status(), "Volcano oracle") ||
      !Check(hot.status(), "hot rows")) {
    return false;
  }
  const x100::Table* base = lineitem->base();
  const int64_t last_group = base->group(base->num_groups() - 1).rows;
  report->facts["lineitem_rows"] = std::to_string(base->num_rows());
  report->facts["last_group_rows"] = std::to_string(last_group);
  report->facts["hot_rows"] = std::to_string(hot->rows.size());
  if (static_cast<int64_t>(hot->rows.size()) > last_group) {
    std::fprintf(stderr,
                 "x100bench: cold_rw's %zu hot rows overflow the last block "
                 "group (%lld rows); the generator changed\n",
                 hot->rows.size(), static_cast<long long>(last_group));
    return false;
  }

  auto q1 = session.PreparePlan(x100::tpch::Q1Plan(q1_delta), "q1");
  auto q6 = session.PreparePlan(x100::tpch::Q6Plan(q6_year), "q6");
  if (!Check(q1.status(), "prepare") || !Check(q6.status(), "prepare")) {
    return false;
  }
  int64_t user_bytes = 0;  // changed since the last checkpoint
  std::vector<Op> ops = {
      {"q6", [&](const OpCtx& ctx) {
         return RunCheckedQuery(&session, *q6, oracle->q6, "q6", ctx);
       }},
      {"q1", [&](const OpCtx& ctx) {
         return RunCheckedQuery(&session, *q1, oracle->q1, "q1", ctx);
       }}};
  for (int t = 0; t < params::kTxnsPerRound; t++) {
    ops.push_back({"commit", [&](const OpCtx& ctx) {
                     const x100::Status st = RunHotTxn(
                         db, lineitem, &*hot, &rng, params::kUpdatesPerTxn,
                         params::kDeleteAppendShare, ctx.tracer, ctx.req,
                         ctx.parent, &user_bytes);
                     return Check(st, "transaction") ? Outcome::kOk
                                                     : Outcome::kFailed;
                   }});
  }
  std::vector<Op> checkpoint_ops = ops;
  checkpoint_ops.push_back({"checkpoint", [&](const OpCtx& ctx) {
    const double deltas = lineitem->read_pdt()->num_delta_sids();
    const EngineCounters c0 = EngineCounters::Read(db);
    const x100::Status st = db->Checkpoint("lineitem");
    const EngineCounters d = EngineCounters::Read(db) - c0;
    if (!Check(st, "checkpoint")) return Outcome::kFailed;
    ctx.layers->deltas_at_checkpoint.Add(deltas);
    ctx.layers->checkpoint_pins.Add(d.pins());
    if (user_bytes > 0) {
      ctx.layers->checkpoint_write_amp.Add(
          static_cast<double>(d.device_written) / user_bytes);
    }
    user_bytes = 0;
    return Outcome::kOk;
  }});
  // The checkpoint cadence runs across warm-up and timed phase alike.
  int64_t rounds = 0;
  auto round = [&](int64_t) {
    return ++rounds % params::kCheckpointEvery == 0 ? checkpoint_ops : ops;
  };

  if (!RunWarmupAndTimed(opt.seconds, round, db, tracer, layers, report)) {
    return false;
  }

  // The client's mirror of the hot rows must still match the table.
  auto after = FetchHotRows(&session, orders, params::kColdHotOrders);
  if (!Check(after.status(), "hot rows") ||
      !SameRows(after->rows, hot->rows)) {
    std::fprintf(stderr, "x100bench: WRONG ANSWER: hot rows diverged\n");
    report->wrong++;
  }

  if (tracer->enabled()) {
    ProbeSpec spec;
    spec.sql = {Q6Sql(q6_year), kFatSql};
    spec.overhead_stmt = *q6;
    spec.num_orders = orders;
    spec.pdt = false;  // the timed phase's transactions are traced
    if (!Check(RunProbes(&session, spec, tracer, layers), "probes")) {
      return false;
    }
  }
  return true;
}

}  // namespace x100bench
