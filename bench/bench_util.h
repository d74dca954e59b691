// Shared helpers for the experiment benches (E1..E12). Each bench binary
// prints paper-style result tables; docs/BENCHMARKS.md says how to read them.
// Invoking a bench with `--json <path>` additionally writes its results
// as a machine-readable JSON document (CI uploads these as artifacts).
#ifndef X100_BENCH_BENCH_UTIL_H_
#define X100_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "simd/simd.h"

namespace x100 {
namespace bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Runs fn `reps` times, returns the minimum wall time in seconds.
inline double MinTime(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; r++) {
    Timer t;
    fn();
    best = std::min(best, t.Seconds());
  }
  return best;
}

inline void Header(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("==============================================================\n");
  // SIMD-sensitive benches sweep levels explicitly; the header records
  // what "auto" resolves to on this machine so a result table is
  // self-describing.
  std::printf("simd: auto resolves to %s (build targets:%s%s scalar)\n",
              SimdLevelName(ResolveSimdLevel(SimdMode::kAuto)),
#if defined(X100_HAVE_AVX2_BUILD)
              " avx2",
#else
              "",
#endif
#if defined(X100_HAVE_NEON_BUILD)
              " neon");
#else
              "");
#endif
}

/// Per-result rows for the `--json <path>` artifact: one entry per
/// primitive/query measurement, ns-per-row normalized.
class JsonReport {
 public:
  /// Scans argv for `--json <path>`; without it the report is a no-op.
  JsonReport(const char* bench_id, int argc, char** argv) : id_(bench_id) {
    for (int i = 1; i + 1 < argc; i++) {
      if (std::strcmp(argv[i], "--json") == 0) path_ = argv[i + 1];
    }
  }

  void Add(const std::string& name, double ns_per_row) {
    rows_.push_back({name, ns_per_row});
  }

  /// Worker-thread count recorded in the document (defaults to the
  /// machine's concurrency; parallel benches set what they actually used).
  void set_workers(int workers) { workers_ = workers; }

  /// Writes the document; returns false (with a message) on IO failure.
  /// Every bench shares the same envelope — bench id, git sha (from
  /// GITHUB_SHA in CI, "unknown" locally), worker count, resolved SIMD
  /// level — so E1/E12/E14 artifacts diff cleanly across runs.
  bool Write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    const char* sha = std::getenv("GITHUB_SHA");
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"git_sha\": \"%s\",\n",
                 id_, sha != nullptr && *sha != '\0' ? sha : "unknown");
    std::fprintf(f, "  \"workers\": %d,\n  \"simd\": \"%s\",\n", workers_,
                 SimdLevelName(ResolveSimdLevel(SimdMode::kAuto)));
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < rows_.size(); i++) {
      std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_row\": %.4f}%s\n",
                   rows_[i].name.c_str(), rows_[i].ns,
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\njson results written to %s\n", path_.c_str());
    return true;
  }

 private:
  struct Row {
    std::string name;
    double ns;
  };
  const char* id_;
  std::string path_;
  int workers_ = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace x100

#endif  // X100_BENCH_BENCH_UTIL_H_
