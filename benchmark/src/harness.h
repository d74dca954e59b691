// Measurement plumbing shared by the workloads: samples and percentiles,
// the metric report, engine counter snapshots, span tracing, scratch
// directories, process resource usage and answer comparison.
#ifndef X100BENCH_HARNESS_H_
#define X100BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/value.h"
#include "engine/database.h"

namespace x100bench {

using Clock = std::chrono::steady_clock;
using Row = std::vector<x100::Value>;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Samples ---------------------------------------------------------------

/// A bag of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  int64_t size() const { return static_cast<int64_t>(v_.size()); }
  bool empty() const { return v_.empty(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Max() const;

 private:
  std::vector<double> v_;
};

/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& v);

// --- Report ----------------------------------------------------------------

/// One reported number: end-to-end (gated in BENCHMARK.json), class
/// (per request class, reported but not gated), or per-layer (traced run).
struct Metric {
  enum class Kind { kEndToEnd, kClass, kLayer };
  std::string name;
  double value = 0;
  std::string unit;
  int64_t n = 0;  // samples behind the value
  Kind kind = Kind::kLayer;
};

class Report {
 public:
  void Add(Metric::Kind kind, const std::string& name, double value,
           const std::string& unit, int64_t n);
  void EndToEnd(const std::string& name, double v, const std::string& unit,
                int64_t n) {
    Add(Metric::Kind::kEndToEnd, name, v, unit, n);
  }
  void Class(const std::string& name, double v, const std::string& unit,
             int64_t n) {
    Add(Metric::Kind::kClass, name, v, unit, n);
  }
  void Layer(const std::string& name, double v, const std::string& unit,
             int64_t n) {
    Add(Metric::Kind::kLayer, name, v, unit, n);
  }
  /// A latency class as `<cls>_p10_ms`, its median `<cls>_p50_ms` and its
  /// tail `<cls>_p<tail>_ms` (the tail only when it has >= 10 samples
  /// beyond).
  void LatencyClass(const std::string& cls, const Samples& ms);

  /// Outcome counters of the timed phase.
  int64_t attempted = 0;
  int64_t failed = 0;  // engine errors + rejections + wrong answers
  int64_t wrong = 0;   // wrong answers anywhere in the run
  /// Free-form facts recorded in the result file (sizes, parameters).
  std::map<std::string, std::string> facts;

  const std::vector<Metric>& metrics() const { return metrics_; }
  /// `name value unit (n=samples)` lines on stdout.
  void Print() const;
  /// The result file: every metric plus facts and the host fingerprint.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed, double seconds, bool trace) const;
  /// The one-line summary for the last line of stdout: end-to-end metrics
  /// untraced, per-layer metrics traced.
  std::string SummaryLine(bool trace) const;

 private:
  std::vector<Metric> metrics_;
};

// --- Engine counters -------------------------------------------------------

/// The public monotonic counters of every layer, read at span and phase
/// boundaries; differences attribute work to what ran in between.
struct EngineCounters {
  int64_t pool_hits = 0, pool_misses = 0, pool_waits = 0, evictions = 0;
  int64_t prefetch_issued = 0, prefetch_hits = 0, prefetch_wasted = 0;
  int64_t device_read = 0, device_written = 0;
  int64_t spill_written = 0, spill_read = 0;
  int64_t tasks_run = 0, tasks_stolen = 0;
  int64_t rebalances = 0;
  int64_t cache_hits = 0, cache_misses = 0;

  static EngineCounters Read(x100::Database* db);
  EngineCounters operator-(const EngineCounters& o) const;
  int64_t pins() const { return pool_hits + pool_misses + pool_waits; }
  /// Nonzero fields as `"name":value` pairs (trace-event args).
  std::string NonZeroJson() const;
};

// --- Tracing ---------------------------------------------------------------

/// One span: a call the client made into a layer.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t req = 0;     // request the span belongs to
  double start_us = 0, end_us = 0;
  int tid = 0;  // 0 = client thread, 1 = collector thread
  EngineCounters delta;
};

/// In-memory span store, written as Chrome trace-event JSON at exit.
/// Thread-safe. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double NowUs() const { return UsAt(Clock::now()); }
  double UsAt(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  int64_t NewId();
  void Add(Span s);
  /// Durations in microseconds of every span named `name`.
  Samples DurationsUs(const char* name) const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

/// Records one span around a scope (no-op when the tracer is null or
/// disabled), with the counter delta of the database across it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, x100::Database* db, const std::string& name,
             int64_t req, int64_t parent = 0, int tid = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  x100::Database* db_;
  Span span_;
  EngineCounters begin_;
};

// --- Process and environment ----------------------------------------------

double ProcessCpuSeconds();
double ThreadCpuSeconds();  // the calling thread's CPU time
/// Starts a new resident-set peak: hands freed heap back to the kernel,
/// then resets the process's high-water mark (/proc/self/clear_refs).
/// False, with a message on stderr, when the kernel refuses.
bool ResetPeakRss();
/// The resident-set high-water mark (VmHWM) since the last ResetPeakRss,
/// in MB; 0 when it cannot be read.
double PeakRssMb();

/// `$TMPDIR/x100bench-<pid>-<workload>[-<suffix>]`, created on
/// construction and removed with everything in it on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& workload, const std::string& suffix = "");
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Answers ---------------------------------------------------------------

/// Row-by-row equality: f64 to relative 1e-9 (sums depend on merge order),
/// everything else exactly.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b);

/// The engine configuration every workload starts from.
x100::EngineConfig BaseConfig();

}  // namespace x100bench

#endif  // X100BENCH_HARNESS_H_
