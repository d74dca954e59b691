#include "layers.h"

#include <algorithm>
#include <cstring>

#include "params.h"
#include "primitives/agg_kernels.h"
#include "primitives/hash_kernels.h"
#include "primitives/primitive_registry.h"
#include "rewriter/rewriter.h"
#include "simd/simd_kernels.h"
#include "tpch/tpch.h"

namespace x100bench {

using x100::Status;

void LayerStats::AddShape(const std::string& shape,
                          const x100::QueryProfile& p) {
  shapes[shape].push_back(ClassifyProfile(p));
}

void LayerStats::CountTimed(const x100::QueryProfile& p) {
  const OpTimes t = ClassifyProfile(p);
  queries++;
  groups_skipped += p.groups_skipped;
  spill_join += t.spill_join;
  spill_agg += t.spill_agg;
  spill_sort += t.spill_sort;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median over a shape's queries of one operator category.
double MedianOf(const std::vector<OpTimes>& runs, double OpTimes::*field) {
  Samples s;
  for (const OpTimes& t : runs) s.Add(t.*field);
  return s.Median();
}

}  // namespace

void LayerStats::Emit(const Tracer& tracer, Report* r) const {
  const double q = static_cast<double>(std::max<int64_t>(1, queries));
  const EngineCounters& c = timed;

  r->Layer("frontend.compile_us", compile_us.Median(), "us",
           compile_us.size());
  r->Layer("rewriter.rewrite_us", rewrite_us.Median(), "us",
           rewrite_us.size());
  r->Layer("engine.plan_cache_hit_ratio",
           Ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio",
           c.cache_hits + c.cache_misses);
  r->Layer("engine.exec_overhead_us", exec_overhead_us.Median(), "us",
           exec_overhead_us.size());
  r->Layer("engine.admission_rejects", admission_rejects, "count", queries);
  r->Layer("exec.groups_skipped_per_query", groups_skipped / q, "count",
           queries);

  // Operator categories per shape, where the operator applies.
  struct Cat {
    const char* name;
    double OpTimes::*field;
  };
  const Cat scan{"scan", &OpTimes::scan}, expr{"expr", &OpTimes::expr},
      build{"join_build", &OpTimes::join_build},
      probe{"join_probe", &OpTimes::join_probe}, agg{"agg", &OpTimes::agg},
      merge{"agg_merge", &OpTimes::agg_merge}, sort{"sort", &OpTimes::sort};
  const std::pair<const char*, std::vector<Cat>> exec_shapes[] = {
      {"q1", {scan, expr, agg, merge, sort}},
      {"q6", {scan, expr, agg}},
      {"q3", {scan, expr, build, probe, agg, merge, sort}},
      {"join_sort", {scan, build, probe, agg, merge, sort}}};
  static const std::vector<OpTimes> kNone;
  for (const auto& [shape, cats] : exec_shapes) {
    auto it = shapes.find(shape);
    const std::vector<OpTimes>& runs = it == shapes.end() ? kNone : it->second;
    for (const Cat& cat : cats) {
      r->Layer(std::string("exec.") + shape + "." + cat.name + "_ms",
               MedianOf(runs, cat.field), "ms",
               static_cast<int64_t>(runs.size()));
    }
    if (std::strcmp(shape, "join_sort") == 0) {
      Samples ratio;
      for (const OpTimes& t : runs) ratio.Add(Ratio(t.self_total, t.wall));
      r->Layer("exec.join_sort.self_over_wall", ratio.Median(), "ratio",
               ratio.size());
    }
  }

  r->Layer("primitives.select_ns_row", select_ns.Median(), "ns",
           select_ns.size());
  r->Layer("primitives.compact_ns_row", compact_ns.Median(), "ns",
           compact_ns.size());
  r->Layer("primitives.agg_fold_ns_row", fold_ns.Median(), "ns",
           fold_ns.size());
  r->Layer("primitives.hash_ns_row", hash_ns.Median(), "ns", hash_ns.size());
  r->Layer("compression.bytes_per_value", bytes_per_value, "B", 1);
  r->Layer("compression.decode_ns_value", decode_ns.Median(), "ns",
           decode_ns.size());

  r->Layer("storage.pool_hit_ratio", Ratio(c.pool_hits, c.pins()), "ratio",
           c.pins());
  r->Layer("storage.device_mb_per_query", c.device_read / 1e6 / q, "MB",
           queries);
  r->Layer("storage.evictions_per_query", c.evictions / q, "count",
           queries);
  r->Layer("storage.prefetch_useful_ratio",
           Ratio(c.prefetch_hits, c.prefetch_issued), "ratio",
           c.prefetch_issued);
  r->Layer("storage.prefetch_wasted", c.prefetch_wasted, "count", queries);
  r->Layer("storage.single_flight_waits", c.pool_waits, "count", queries);
  r->Layer("storage.open_ms", open_ms, "ms", 1);
  r->Layer("storage.checkpoint_write_amp", checkpoint_write_amp.Median(),
           "ratio", checkpoint_write_amp.size());
  r->Layer("storage.checkpoint_pool_pins", checkpoint_pins.Median(), "count",
           checkpoint_pins.size());

  const Samples update_us = tracer.DurationsUs("txn_op");
  const Samples commit_us = tracer.DurationsUs("commit");
  r->Layer("pdt.update_us", update_us.Median(), "us", update_us.size());
  r->Layer("pdt.commit_us", commit_us.Median(), "us", commit_us.size());
  r->Layer("pdt.delta_sids_at_checkpoint", deltas_at_checkpoint.Median(),
           "count", deltas_at_checkpoint.size());

  r->Layer("spill.mb_written_per_query", c.spill_written / 1e6 / q, "MB",
           queries);
  r->Layer("spill.mb_read_per_query", c.spill_read / 1e6 / q, "MB", queries);
  r->Layer("spill.reread_ratio", Ratio(c.spill_read, c.spill_written),
           "ratio", queries);
  r->Layer("spill.join_mb_per_query", spill_join / 1e6 / q, "MB", queries);
  r->Layer("spill.agg_mb_per_query", spill_agg / 1e6 / q, "MB", queries);
  r->Layer("spill.sort_mb_per_query", spill_sort / 1e6 / q, "MB", queries);
  r->Layer("memory.query_peak_mb_max", peak_mb.Max(), "MB", peak_mb.size());
  r->Layer("memory.overcommit_mb",
           memory_limit > 0
               ? std::max(0.0, peak_mb.Max() - memory_limit / 1e6)
               : 0.0,
           "MB", peak_mb.size());

  r->Layer("sched.tasks_per_query", c.tasks_run / q, "count", queries);
  r->Layer("sched.steal_ratio", Ratio(c.tasks_stolen, c.tasks_run), "ratio",
           c.tasks_run);
  r->Layer("sched.cpu_per_wall", Ratio(timed_cpu_s, timed_wall_s), "ratio",
           1);
  r->Layer("sched.cpu_per_wall_warmup", Ratio(warmup_cpu_s, warmup_wall_s),
           "ratio", 1);
  r->Layer("quota.rebalances_per_s", Ratio(c.rebalances, timed_wall_s),
           "1/s", c.rebalances);
  r->Layer("quota.min_share", min_share == INT_MAX ? 0 : min_share, "count",
           queries);

  r->Layer("client.late_ms_p99", client_late_ms.Percentile(99), "ms",
           client_late_ms.size());
  r->Layer("client.backlog_max", backlog_max, "count", 1);
  r->Layer("trace.overhead_pct", trace_overhead_pct, "%", 1);
}

// --- Probe phase -------------------------------------------------------------

namespace {

template <typename Fn>
double TimeNs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

Status ProbeFrontendAndRewriter(x100::Session* s, const ProbeSpec& spec,
                                LayerStats* L) {
  for (int rep = 0; rep < params::kProbeReps; rep++) {
    for (const std::string& sql : spec.sql) {
      x100::Result<x100::AlgebraPtr> plan = Status::OK();
      L->compile_us.Add(TimeNs([&] { plan = s->CompileSql(sql); }) / 1e3);
      X100_RETURN_IF_ERROR(plan.status());
      x100::Rewriter rewriter;
      Status rewritten;
      L->rewrite_us.Add(TimeNs([&] {
                          rewritten =
                              rewriter.Rewrite(std::move(*plan)).status();
                        }) /
                        1e3);
      X100_RETURN_IF_ERROR(rewritten);
    }
  }
  return Status::OK();
}

/// The query shapes whose per-operator times every workload reports, on
/// the workload's own data and configuration.
Status ProbeShapes(x100::Session* s, LayerStats* L) {
  const std::pair<const char*, x100::AlgebraPtr> plans[] = {
      {"q1", x100::tpch::Q1Plan()},
      {"q6", x100::tpch::Q6Plan()},
      {"q3", x100::tpch::Q3Plan()},
      {"join_sort", JoinSortPlan()}};
  for (const auto& [shape, plan] : plans) {
    x100::PreparedStatement stmt;
    X100_ASSIGN_OR_RETURN(stmt, s->PreparePlan(plan, shape));
    while (static_cast<int>(L->shapes[shape].size()) < params::kProbeReps) {
      auto res = s->ExecutePrepared(stmt);
      X100_RETURN_IF_ERROR(res.status());
      L->AddShape(shape, res->profile);
    }
  }
  return Status::OK();
}

/// The kernels E1 measures, on lineitem's first block group at the
/// resolved SIMD level: Q6's f64 compare, mask compaction, Q1's grouped
/// f64 sum and the i64 key hash.
Status ProbePrimitives(x100::Database* db, const x100::Table* base,
                       LayerStats* L) {
  x100::EnsureKernelsRegistered();
  const x100::SimdLevel level =
      x100::ResolveSimdLevel(db->config().simd_level);
  x100::TableReader reader(base, db->buffers());
  const int rows = static_cast<int>(base->group(0).rows);
  const int n = params::kProbeVector;
  const int slots = rows / n;
  if (slots == 0) return Status::InvalidArgument("lineitem group too small");
  std::vector<int64_t> orderkey(rows);
  std::vector<int32_t> linenumber(rows), shipdate(rows);
  std::vector<double> quantity(rows), price(rows);
  std::vector<uint8_t> nulls(rows);
  X100_RETURN_IF_ERROR(reader.ReadColumn(0, 0, orderkey.data(), nulls.data(),
                                         nullptr));
  X100_RETURN_IF_ERROR(reader.ReadColumn(0, 3, linenumber.data(),
                                         nulls.data(), nullptr));
  X100_RETURN_IF_ERROR(reader.ReadColumn(0, 4, quantity.data(),
                                         nulls.data(), nullptr));
  X100_RETURN_IF_ERROR(
      reader.ReadColumn(0, 5, price.data(), nulls.data(), nullptr));
  X100_RETURN_IF_ERROR(reader.ReadColumn(0, 10, shipdate.data(),
                                         nulls.data(), nullptr));
  std::vector<uint8_t> shipped_before(rows);
  std::vector<uint32_t> gid(rows);
  const int32_t cutoff = x100::MakeDate(1995, 6, 17);
  for (int i = 0; i < rows; i++) {
    shipped_before[i] = shipdate[i] <= cutoff;
    gid[i] = static_cast<uint32_t>(linenumber[i] % 4);
  }
  std::vector<std::unique_ptr<x100::Vector>> keys;
  for (int v = 0; v < slots; v++) {
    keys.push_back(std::make_unique<x100::Vector>(x100::TypeId::kI64, n));
    std::memcpy(keys.back()->RawData(), orderkey.data() + v * n,
                sizeof(int64_t) * n);
  }
  x100::SelectFn select = x100::PrimitiveRegistry::Get()->FindSelect(
      "lt", {{x100::TypeId::kF64, false}, {x100::TypeId::kF64, true}},
      level);
  if (select == nullptr) return Status::NotFound("select_lt_f64 kernel");
  std::vector<x100::sel_t> sel(n);
  std::vector<uint64_t> hashes(n);
  int64_t acc_i64[4] = {0, 0, 0, 0}, acc_cnt[4] = {0, 0, 0, 0};
  double acc_f64[4] = {0, 0, 0, 0};
  int64_t matched = 0;
  const double limit = 24.0;
  const double per_row = 1.0 / (static_cast<double>(params::kProbeVectors) * n);
  for (int rep = 0; rep < params::kProbeReps; rep++) {
    L->select_ns.Add(per_row * TimeNs([&] {
      for (int v = 0; v < params::kProbeVectors; v++) {
        const void* args[2] = {quantity.data() + (v % slots) * n, &limit};
        matched += select(n, nullptr, args, sel.data());
      }
    }));
    L->compact_ns.Add(per_row * TimeNs([&] {
      for (int v = 0; v < params::kProbeVectors; v++) {
        matched += x100::simd::CompactTrue(
            n, shipped_before.data() + (v % slots) * n, sel.data(), level);
      }
    }));
    L->fold_ns.Add(per_row * TimeNs([&] {
      for (int v = 0; v < params::kProbeVectors; v++) {
        const int off = (v % slots) * n;
        x100::agg::UpdateAccum(x100::AggKind::kSum, x100::TypeId::kF64, n,
                               nullptr, gid.data() + off, nullptr,
                               price.data() + off, acc_i64, acc_f64, acc_cnt,
                               level);
      }
    }));
    L->hash_ns.Add(per_row * TimeNs([&] {
      for (int v = 0; v < params::kProbeVectors; v++) {
        x100::hashk::HashColumn(*keys[v % slots], n, nullptr, hashes.data(),
                                false, level);
      }
    }));
  }
  // Consumed so no call above can be discarded as dead.
  if (matched < 0 || acc_cnt[0] < 0 || hashes[0] == 1) {
    return Status::Internal("impossible probe result");
  }
  return Status::OK();
}

/// Decode speed of lineitem's numeric chunks (bytes fetched through the
/// pool first, then only DecompressColumn is timed), and the stored size
/// per value.
Status ProbeCompression(x100::Database* db, const x100::Table* base,
                        LayerStats* L) {
  const x100::Schema& schema = base->schema();
  L->bytes_per_value =
      static_cast<double>(base->compressed_bytes()) /
      (static_cast<double>(base->num_rows()) * schema.num_fields());
  if (base->layout() != x100::Layout::kDsm) {
    return Status::InvalidArgument("decode probe expects DSM lineitem");
  }
  struct Chunk {
    x100::TypeId type;
    std::vector<uint8_t> bytes;
    uint32_t rows;
  };
  std::vector<Chunk> chunks;
  int64_t values = 0;
  const int groups = std::min(base->num_groups(), 4);
  for (int g = 0; g < groups; g++) {
    const x100::GroupMeta& gm = base->group(g);
    for (int c = 0; c < schema.num_fields(); c++) {
      const x100::TypeId t = schema.field(c).type;
      if (t == x100::TypeId::kStr || t == x100::TypeId::kBool) continue;
      Chunk chunk{t, {}, gm.rows};
      for (x100::BlockId id : gm.cols[c].loc.blocks) {
        x100::BufferManager::Pin pin;
        X100_ASSIGN_OR_RETURN(pin, db->buffers()->PinBlock(id));
        chunk.bytes.insert(chunk.bytes.end(), pin.data().begin(),
                           pin.data().end());
      }
      chunk.bytes.resize(gm.cols[c].loc.length);
      values += gm.rows;
      chunks.push_back(std::move(chunk));
    }
  }
  std::vector<int64_t> out(x100::kBlockGroupRows);  // widest type, any group
  Status status;
  for (int rep = 0; rep < params::kProbeReps; rep++) {
    const double ns = TimeNs([&] {
      for (const Chunk& ch : chunks) {
        const uint8_t* p = ch.bytes.data();
        const size_t len = ch.bytes.size();
        switch (ch.type) {
          case x100::TypeId::kI8:
            status = x100::DecompressColumn(
                p, len, reinterpret_cast<int8_t*>(out.data()));
            break;
          case x100::TypeId::kI16:
            status = x100::DecompressColumn(
                p, len, reinterpret_cast<int16_t*>(out.data()));
            break;
          case x100::TypeId::kI32:
          case x100::TypeId::kDate:
            status = x100::DecompressColumn(
                p, len, reinterpret_cast<int32_t*>(out.data()));
            break;
          case x100::TypeId::kI64:
            status = x100::DecompressColumn(p, len, out.data());
            break;
          case x100::TypeId::kF64:
            status = x100::DecompressColumn(
                p, len, reinterpret_cast<double*>(out.data()));
            break;
          default:
            break;
        }
        if (!status.ok()) return;
      }
    });
    X100_RETURN_IF_ERROR(status);
    L->decode_ns.Add(ns / static_cast<double>(values));
  }
  return Status::OK();
}

}  // namespace

Status RunProbes(x100::Session* session, const ProbeSpec& spec,
                 Tracer* tracer, LayerStats* layers) {
  x100::Database* db = session->db();
  X100_RETURN_IF_ERROR(ProbeFrontendAndRewriter(session, spec, layers));
  for (int rep = 0; rep < params::kProbeReps; rep++) {
    x100::Result<x100::QueryResult> res = Status::OK();
    const double ns =
        TimeNs([&] { res = session->ExecutePrepared(spec.overhead_stmt); });
    X100_RETURN_IF_ERROR(res.status());
    layers->exec_overhead_us.Add(
        (ns - static_cast<double>(res->profile.wall_ns)) / 1e3);
  }
  X100_RETURN_IF_ERROR(ProbeShapes(session, layers));
  x100::UpdatableTable* lineitem = nullptr;
  X100_ASSIGN_OR_RETURN(lineitem, db->GetTable("lineitem"));
  X100_RETURN_IF_ERROR(ProbePrimitives(db, lineitem->base(), layers));
  X100_RETURN_IF_ERROR(ProbeCompression(db, lineitem->base(), layers));
  if (spec.pdt) {
    HotRows hot;
    X100_ASSIGN_OR_RETURN(
        hot, FetchHotRows(session, spec.num_orders, params::kProbeHotOrders));
    x100::Rng rng(params::kProbeReps);
    int64_t bytes = 0;
    for (int rep = 0; rep < params::kProbeReps; rep++) {
      X100_RETURN_IF_ERROR(RunHotTxn(db, lineitem, &hot, &rng,
                                     params::kUpdatesPerTxn,
                                     params::kDeleteAppendShare, tracer,
                                     tracer->NewId(), 0, &bytes));
    }
  }
  return Status::OK();
}

}  // namespace x100bench
