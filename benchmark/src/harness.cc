#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "params.h"
#include "simd/simd.h"

namespace x100bench {

// --- Samples ---------------------------------------------------------------

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  // Nearest rank: the smallest value with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  std::nth_element(s.begin(), s.begin() + idx, s.end());
  return s[idx];
}

double Samples::Max() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

namespace {

/// The highest of p50/p90/p99/p99.9 that leaves at least ten of `n`
/// samples beyond it (0 = none qualifies).
double TailLevel(int64_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0;
}

std::string TailLabel(double p) {
  return p == 99.9 ? "p999" : "p" + std::to_string(static_cast<int>(p));
}

/// Every digit a double carries; JSON has no literal for non-finite
/// values, so those become null.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// --- Report ----------------------------------------------------------------

void Report::Add(Metric::Kind kind, const std::string& name, double value,
                 const std::string& unit, int64_t n) {
  Metric m;
  m.kind = kind;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.n = n;
  metrics_.push_back(std::move(m));
}

void Report::LatencyClass(const std::string& cls, const Samples& ms) {
  Class(cls + "_p10_ms", ms.Percentile(10), "ms", ms.size());
  Class(cls + "_p50_ms", ms.Median(), "ms", ms.size());
  const double p = TailLevel(ms.size());
  if (p > 50) {
    Class(cls + "_" + TailLabel(p) + "_ms", ms.Percentile(p), "ms",
          ms.size());
  }
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    const char* tag = m.kind == Metric::Kind::kEndToEnd ? "e2e"
                      : m.kind == Metric::Kind::kClass  ? "class"
                                                        : "layer";
    std::printf("%-5s %-40s %14.6g %-6s (n=%lld)\n", tag, m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.n));
  }
}

bool Report::WriteJson(const std::string& path, const std::string& workload,
                       uint64_t seed, double seconds, bool trace) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "x100bench: cannot write %s\n", path.c_str());
    return false;
  }
  const char* sha = std::getenv("X100BENCH_GIT_SHA");
  out << "{\n  \"workload\": " << Quote(workload)
      << ",\n  \"seed\": " << seed << ",\n  \"seconds\": " << Num(seconds)
      << ",\n  \"trace\": " << (trace ? "true" : "false")
      << ",\n  \"correct\": " << (wrong == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": " << Quote(CpuModel()) << ", \"simd\": "
      << Quote(x100::SimdLevelName(
             x100::ResolveSimdLevel(x100::SimdMode::kAuto)))
      << ", \"compiler\": " << Quote(__VERSION__) << ", \"git_sha\": "
      << Quote(sha != nullptr && *sha != '\0' ? sha : "unknown")
      << "},\n  \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : facts) {
    out << (first ? "" : ", ") << Quote(k) << ": " << Quote(v);
    first = false;
  }
  out << "},\n  \"metrics\": [\n";
  for (size_t i = 0; i < metrics_.size(); i++) {
    const Metric& m = metrics_[i];
    const char* kind = m.kind == Metric::Kind::kEndToEnd ? "end_to_end"
                       : m.kind == Metric::Kind::kClass  ? "class"
                                                         : "per_layer";
    out << "    {\"name\": " << Quote(m.name) << ", \"kind\": \"" << kind
        << "\", \"value\": " << Num(m.value) << ", \"unit\": "
        << Quote(m.unit) << ", \"n\": " << m.n << "}"
        << (i + 1 < metrics_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

std::string Report::SummaryLine(bool trace) const {
  const Metric::Kind want =
      trace ? Metric::Kind::kLayer : Metric::Kind::kEndToEnd;
  std::string s = "{\"correct\": ";
  s += wrong == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.kind != want) continue;
    s += (first ? "" : ", ") + Quote(m.name) + ": {\"value\": " +
         Num(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
    first = false;
  }
  return s + "}}";
}

// --- Engine counters -------------------------------------------------------

EngineCounters EngineCounters::Read(x100::Database* db) {
  EngineCounters c;
  x100::BufferManager* bm = db->buffers();
  c.pool_hits = bm->hits();
  c.pool_misses = bm->misses();
  c.pool_waits = bm->single_flight_waits();
  c.evictions = bm->evictions();
  c.prefetch_issued = bm->prefetch_issued();
  c.prefetch_hits = bm->prefetch_hits();
  c.prefetch_wasted = bm->prefetch_wasted();
  c.device_read = bm->device()->bytes_read();
  c.device_written = bm->device()->bytes_written();
  auto spill = db->spill_device();
  if (spill.ok()) {
    c.spill_written = (*spill)->spill_bytes_written();
    c.spill_read = (*spill)->spill_bytes_read();
  }
  x100::TaskScheduler* sched = db->scheduler();
  c.tasks_run = sched->tasks_run();
  c.tasks_stolen = sched->tasks_stolen();
  c.rebalances = db->quota_controller()->rebalances();
  c.cache_hits = db->plan_cache()->hits();
  c.cache_misses = db->plan_cache()->misses();
  return c;
}

EngineCounters EngineCounters::operator-(const EngineCounters& o) const {
  EngineCounters d;
  d.pool_hits = pool_hits - o.pool_hits;
  d.pool_misses = pool_misses - o.pool_misses;
  d.pool_waits = pool_waits - o.pool_waits;
  d.evictions = evictions - o.evictions;
  d.prefetch_issued = prefetch_issued - o.prefetch_issued;
  d.prefetch_hits = prefetch_hits - o.prefetch_hits;
  d.prefetch_wasted = prefetch_wasted - o.prefetch_wasted;
  d.device_read = device_read - o.device_read;
  d.device_written = device_written - o.device_written;
  d.spill_written = spill_written - o.spill_written;
  d.spill_read = spill_read - o.spill_read;
  d.tasks_run = tasks_run - o.tasks_run;
  d.tasks_stolen = tasks_stolen - o.tasks_stolen;
  d.rebalances = rebalances - o.rebalances;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  return d;
}

std::string EngineCounters::NonZeroJson() const {
  const std::pair<const char*, int64_t> fields[] = {
      {"pool_hits", pool_hits},         {"pool_misses", pool_misses},
      {"pool_waits", pool_waits},       {"evictions", evictions},
      {"prefetch_issued", prefetch_issued},
      {"prefetch_hits", prefetch_hits}, {"prefetch_wasted", prefetch_wasted},
      {"device_read", device_read},     {"device_written", device_written},
      {"spill_written", spill_written}, {"spill_read", spill_read},
      {"tasks_run", tasks_run},         {"tasks_stolen", tasks_stolen},
      {"rebalances", rebalances},       {"cache_hits", cache_hits},
      {"cache_misses", cache_misses}};
  std::string s;
  for (const auto& [name, v] : fields) {
    if (v == 0) continue;
    s += ",\"" + std::string(name) + "\":" + std::to_string(v);
  }
  return s;
}

// --- Tracing ---------------------------------------------------------------

int64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Add(Span s) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

Samples Tracer::DurationsUs(const char* name) const {
  Samples out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name) out.Add(s.end_us - s.start_us);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "x100bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"client\"}},\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"collector\"}}";
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << ",\n{\"name\":" << Quote(s.name)
        << ",\"cat\":\"x100bench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << Num(s.start_us) << ",\"dur\":"
        << Num(s.end_us - s.start_us) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"req\":" << s.req
        << s.delta.NonZeroJson() << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, x100::Database* db,
                       const std::string& name,
                       int64_t req, int64_t parent, int tid)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      db_(db) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.req = req;
  span_.tid = tid;
  begin_ = EngineCounters::Read(db_);
  span_.start_us = tracer_->NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->NowUs();
  span_.delta = EngineCounters::Read(db_) - begin_;
  tracer_->Add(span_);
}

// --- Process and environment ----------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool ResetPeakRss() {
  // Without the trim, heap freed by set-up and the references would still
  // count as resident.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset the peak resident set size
  out.flush();
  if (!out) {
    std::fprintf(stderr, "x100bench: cannot reset the peak RSS through "
                         "/proc/self/clear_refs\n");
    return false;
  }
  return true;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

ScratchDir::ScratchDir(const std::string& workload,
                       const std::string& suffix) {
  const char* tmp = std::getenv("TMPDIR");
  path_ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
          "/x100bench-" + std::to_string(getpid()) + "-" + workload +
          (suffix.empty() ? "" : "-" + suffix);
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// --- Answers ---------------------------------------------------------------

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); c++) {
      const x100::Value& x = a[i][c];
      const x100::Value& y = b[i][c];
      if (x.is_null() || y.is_null()) {
        if (x.is_null() != y.is_null()) return false;
        continue;
      }
      if (x.type() == x100::TypeId::kF64 || y.type() == x100::TypeId::kF64) {
        const double dx = x.AsF64(), dy = y.AsF64();
        if (std::abs(dx - dy) > 1e-9 * std::max(1.0, std::abs(dx))) {
          return false;
        }
      } else if (!x.SqlEquals(y)) {
        return false;
      }
    }
  }
  return true;
}

x100::EngineConfig BaseConfig() {
  x100::EngineConfig cfg;
  cfg.scheduler_workers = params::kWorkers;
  cfg.max_parallelism = params::kWorkers;
  return cfg;
}

}  // namespace x100bench
