// The closed-loop client shared by olap_mem, cold_rw and spill_join: one
// thread issues its next request only when the previous one completed.
#ifndef X100BENCH_LOOP_H_
#define X100BENCH_LOOP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/session.h"
#include "harness.h"
#include "layers.h"

namespace x100bench {

enum class Outcome { kOk, kFailed, kWrong };

/// Where an op records what it measured: per-layer figures into `layers`
/// (the warm-up's are discarded), child spans into `tracer` (null when
/// this request is not traced) under `parent`, and the CPU its answer
/// check took into `check_cpu_s`.
struct OpCtx {
  LayerStats* layers = nullptr;
  Tracer* tracer = nullptr;
  int64_t req = 0;
  int64_t parent = 0;
  double* check_cpu_s = nullptr;
};

/// One request: `run` performs it and checks its answer. `cls` names its
/// latency class.
struct Op {
  std::string cls;
  std::function<Outcome(const OpCtx&)> run;
};

struct LoopResult {
  std::map<std::string, Samples> ms;  // latency per class, every request
  /// Traced runs trace every other round, so tracing overhead is the
  /// difference between these two interleaved halves.
  std::map<std::string, Samples> traced_ms, untraced_ms;
  int64_t attempted = 0, failed = 0, wrong = 0;
  double wall_s = 0;
  /// Process CPU time, less what checking answers took: the CPU the
  /// engine (and the client's calls into it) used.
  double cpu_s = 0;
  Samples gap_ms;  // client time between one completion and the next send
};

/// Runs rounds of ops back to back until `seconds` have passed (the op in
/// flight completes). `round(i)` returns round i's ops. With an enabled
/// tracer, the requests of every other round get a span named after
/// their class, and each op's context carries it. The quota share is
/// sampled into `layers` after every request.
LoopResult RunClosedLoop(double seconds,
                         const std::function<std::vector<Op>(int64_t)>& round,
                         x100::Database* db, Tracer* tracer,
                         LayerStats* layers);

/// Executes a prepared query as one closed-loop request: resets the memory
/// tracker's peak, runs, records the profile (timed) and peak into
/// `ctx.layers`, and compares the rows with `expected`.
Outcome RunCheckedQuery(x100::Session* session,
                        const x100::PreparedStatement& stmt,
                        const std::vector<Row>& expected,
                        const std::string& shape, const OpCtx& ctx);

/// Percent by which traced requests were slower than untraced ones: the
/// geometric mean over classes of the ratio of their medians.
double TraceOverheadPct(const std::map<std::string, Samples>& traced,
                        const std::map<std::string, Samples>& untraced);

/// The measured part of a closed-loop workload: an untimed warm-up of
/// params::kWarmupSeconds running `round` (its per-layer figures are
/// discarded), then the timed phase. Records the timed phase's counter
/// deltas, resource use and outcome into `layers` and `report`, and the
/// end-to-end metrics into `report`. False when the resident-set peak
/// could not be reset (nothing ran).
bool RunWarmupAndTimed(double seconds,
                       const std::function<std::vector<Op>(int64_t)>& round,
                       x100::Database* db, Tracer* tracer, LayerStats* layers,
                       Report* report);

}  // namespace x100bench

#endif  // X100BENCH_LOOP_H_
