// The four workloads. Each runs in its own process: set-up (timed,
// repeated), references, an untimed warm-up, the timed phase, and — in a
// traced run — the probe phase.
#ifndef X100BENCH_WORKLOADS_H_
#define X100BENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "engine/session.h"
#include "harness.h"
#include "layers.h"
#include "params.h"

namespace x100bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = params::kDefaultSeconds;
  bool trace = false;
};

/// Runs one workload, filling `report` (end-to-end and class metrics) and,
/// when `tracer` is enabled, `layers` and the spans. Returns false when
/// the workload could not run at all (set-up or reference failure).
using WorkloadFn = bool (*)(const Options&, Report*, Tracer*, LayerStats*);
bool RunOlapMem(const Options&, Report*, Tracer*, LayerStats*);
bool RunServeMix(const Options&, Report*, Tracer*, LayerStats*);
bool RunColdRw(const Options&, Report*, Tracer*, LayerStats*);
bool RunSpillJoin(const Options&, Report*, Tracer*, LayerStats*);

/// A freshly set-up database, and when and for how long its constructor
/// (the storage layer's open) ran.
struct Built {
  std::unique_ptr<x100::Database> db;
  Clock::time_point open_start;
  double open_ms = 0;
};

/// Constructs a Database, timing the constructor.
Built Open(const x100::EngineConfig& cfg);

/// Runs `build` params::kSetupReps times, destroying each database before
/// the next is built, and keeps the last. Reports setup_s (median) and
/// the kept database's open time; records an `open` span.
x100::Result<Built> TimedSetup(const std::function<x100::Result<Built>()>& build,
                               Report* report, Tracer* tracer,
                               LayerStats* layers);

/// Picks one element of a fixed parameter set.
template <typename T, size_t N>
const T& Pick(x100::Rng* rng, const T (&set)[N]) {
  return set[rng->Uniform(0, static_cast<int64_t>(N) - 1)];
}

/// Called right after the timed phase, whose resident-set peak
/// ResetPeakRss started: reports the end-to-end metric peak_rss_mb and, as
/// class metrics, each class's latencies, sustained_qps (requests
/// completed with a right answer per second) and cpu_ms_per_op.
void ReportEndToEnd(Report* report,
                    const std::map<std::string, Samples>& class_ms,
                    double sustained_qps, double cpu_ms_per_op);

/// Fails loudly (stderr) and returns false on a non-OK status.
bool Check(const x100::Status& st, const char* what);

}  // namespace x100bench

#endif  // X100BENCH_WORKLOADS_H_
