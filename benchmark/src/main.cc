// x100bench: the repository benchmark. One process runs one
// workload and prints its metrics; the last line of stdout is a one-line
// JSON summary (end-to-end metrics, or per-layer metrics with --trace 1).
//
//   x100bench --workload olap_mem|serve_mix|cold_rw|spill_join
//             [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// Exit status: 0 on a correct run, 1 on any wrong answer (the summary
// still prints), 2 when the workload could not run (nothing printed).
// benchmark/run.sh builds this binary and is the entry point to use.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "workloads.h"

namespace x100bench {

Built Open(const x100::EngineConfig& cfg) {
  Built b;
  b.open_start = Clock::now();
  b.db = std::make_unique<x100::Database>(cfg);
  b.open_ms = SecondsSince(b.open_start) * 1e3;
  return b;
}

x100::Result<Built> TimedSetup(
    const std::function<x100::Result<Built>()>& build, Report* report,
    Tracer* tracer, LayerStats* layers) {
  Samples seconds;
  Built kept;
  for (int rep = 0; rep < params::kSetupReps; rep++) {
    kept.db.reset();
    const Clock::time_point t0 = Clock::now();
    X100_ASSIGN_OR_RETURN(kept, build());
    seconds.Add(SecondsSince(t0));
  }
  report->EndToEnd("setup_s", seconds.Median(), "s", seconds.size());
  layers->open_ms = kept.open_ms;
  Span open;
  open.name = "open";
  open.id = tracer->NewId();
  open.start_us = tracer->UsAt(kept.open_start);
  open.end_us = open.start_us + kept.open_ms * 1e3;
  tracer->Add(open);
  return kept;
}

void ReportEndToEnd(Report* report,
                    const std::map<std::string, Samples>& class_ms,
                    double sustained_qps, double cpu_ms_per_op) {
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
  // Timings are class metrics, not gated in BENCHMARK.json: none of them
  // repeats within the 10% timing bound on every workload (README.md
  // "Repeatability").
  int64_t n = 0;
  for (const auto& [cls, ms] : class_ms) {
    report->LatencyClass(cls, ms);
    n += ms.size();
  }
  report->Class("sustained_qps", sustained_qps, "1/s", n);
  report->Class("cpu_ms_per_op", cpu_ms_per_op, "ms", n);
}

bool Check(const x100::Status& st, const char* what) {
  if (st.ok()) return true;
  std::fprintf(stderr, "x100bench: %s failed: %s\n", what,
               st.ToString().c_str());
  return false;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: x100bench --workload olap_mem|serve_mix|cold_rw|"
               "spill_join [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string out_dir;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::pair<const char*, WorkloadFn> workloads[] = {
      {"olap_mem", RunOlapMem},
      {"serve_mix", RunServeMix},
      {"cold_rw", RunColdRw},
      {"spill_join", RunSpillJoin}};
  WorkloadFn fn = nullptr;
  for (const auto& [name, f] : workloads) {
    if (opt.workload == name) fn = f;
  }
  if (fn == nullptr || !(opt.seconds > 0)) return Usage();

  Report report;
  Tracer tracer(opt.trace);
  LayerStats layers;
  if (!fn(opt, &report, &tracer, &layers)) {
    std::fprintf(stderr, "x100bench: %s did not run\n", opt.workload.c_str());
    return 2;
  }
  if (opt.trace) layers.Emit(tracer, &report);
  report.Print();
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string base = out_dir + "/" + opt.workload;
    bool written = report.WriteJson(base + (opt.trace ? ".traced.json" : ".json"),
                                    opt.workload, opt.seed, opt.seconds,
                                    opt.trace);
    if (opt.trace) {
      written &= tracer.WriteChromeJson(out_dir + "/trace-" + opt.workload +
                                        ".json");
    }
    if (!written) return 2;
  }
  std::printf("%s\n", report.SummaryLine(opt.trace).c_str());
  std::fflush(stdout);
  return report.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace x100bench

int main(int argc, char** argv) { return x100bench::Main(argc, argv); }
