// Per-layer measurement of a traced run. The client sees the engine only
// from outside: the profile each query returns, the public counters read
// at span and phase boundaries, and a probe phase after the timed phase
// that times public functions of the layers it cannot split inside one
// request (frontend, rewriter, primitives, compression decode).
#ifndef X100BENCH_LAYERS_H_
#define X100BENCH_LAYERS_H_

#include <climits>
#include <map>
#include <string>
#include <vector>

#include "engine/session.h"
#include "harness.h"
#include "queries.h"

namespace x100bench {

struct LayerStats {
  /// Operator times per query shape (q1, q6, q3, join_sort), from the
  /// timed phase and the probe phase.
  std::map<std::string, std::vector<OpTimes>> shapes;
  /// Timed phase: engine queries run, and what their profiles add up to.
  int64_t queries = 0;
  int64_t groups_skipped = 0;
  int64_t spill_join = 0, spill_agg = 0, spill_sort = 0;
  /// Memory tracker peak per query (per phase when queries overlap); the
  /// largest is reported, since that is what the process must hold.
  Samples peak_mb;
  int64_t memory_limit = 0;
  /// Counter deltas and resource use over the timed phase and warm-up.
  EngineCounters timed;
  double timed_wall_s = 0, timed_cpu_s = 0;
  double warmup_wall_s = 0, warmup_cpu_s = 0;
  int min_share = INT_MAX;
  int64_t admission_rejects = 0;
  Samples client_late_ms;
  double backlog_max = 0;
  /// Storage: Database construction, and per checkpoint its pool pins,
  /// device bytes written per user byte changed, and the read-PDT's delta
  /// SIDs just before it ran.
  double open_ms = 0;
  Samples checkpoint_pins, checkpoint_write_amp, deltas_at_checkpoint;
  /// Probe phase.
  Samples compile_us, rewrite_us, exec_overhead_us;
  Samples select_ns, compact_ns, fold_ns, hash_ns, decode_ns;
  double bytes_per_value = 0;
  double trace_overhead_pct = 0;

  /// Records the operator times of one query of a reported shape.
  void AddShape(const std::string& shape, const x100::QueryProfile& p);
  /// Counts one timed-phase query toward the per-query figures.
  void CountTimed(const x100::QueryProfile& p);
  /// Adds every per-layer metric to `report`. Span-derived ones (txn
  /// operations, commits) come from `tracer`.
  void Emit(const Tracer& tracer, Report* report) const;
};

/// What the probe phase runs on a workload's own database.
struct ProbeSpec {
  /// Statements the frontend and rewriter probes compile.
  std::vector<std::string> sql;
  /// Executed synchronously to time the engine's per-call overhead.
  x100::PreparedStatement overhead_stmt;
  /// Lineitem's order count; the PDT probe updates the newest orders.
  int64_t num_orders = 0;
  /// False for workloads whose timed phase already writes.
  bool pdt = true;
};

x100::Status RunProbes(x100::Session* session, const ProbeSpec& spec,
                       Tracer* tracer, LayerStats* layers);

}  // namespace x100bench

#endif  // X100BENCH_LAYERS_H_
