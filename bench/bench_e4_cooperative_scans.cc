// E4 — concurrent scans over one buffer pool (the setting of Cooperative
// Scans [7]): N staggered sessions scan the same table through one
// byte-budgeted BufferManager and one bandwidth-limited channel. Reported:
// device MB read per session, pool lookups and mean per-session latency.
// A session reads a block from the device only when the pool no longer
// holds it. A second phase gates the pool's read-ahead on a cold
// sequential scan.
//
// Set X100_DATA_PATH=<dir> to run against the durable file-backed column
// store instead of the in-RAM SimulatedDisk: each run builds its table in
// a fresh subdirectory, scans fault blocks in from the real file, and the
// bench removes its files afterwards (CI asserts nothing is left behind).
#include <sys/stat.h>
#include <unistd.h>

#include <thread>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/database.h"
#include "exec/scan.h"
#include "exec/select_project.h"

using namespace x100;

namespace {

struct RunResult {
  int64_t table_bytes;
  int64_t bytes;
  int64_t hits, misses, waits;
  double avg_latency;
  double wall;
};

int g_run_seq = 0;

RunResult RunSessions(int n_sessions) {
  // Table: 24 groups x 4K rows of i64+f64; pool of ~8 group-equivalents.
  EngineConfig cfg;
  cfg.disk_bandwidth = 100ll << 20;  // 100 MB/s channel (RAM-backed mode)
  cfg.buffer_pool_bytes = 16 * kDiskBlockBytes;
  // File-backed mode: a fresh subdirectory per run so repeated runs never
  // collide with a catalog left by the previous one.
  std::string data_dir;
  const char* data_root = std::getenv("X100_DATA_PATH");
  if (data_root != nullptr && *data_root != '\0') {
    data_dir = std::string(data_root) + "/e4-" + std::to_string(::getpid()) +
               "-" + std::to_string(g_run_seq++);
    if (::mkdir(data_dir.c_str(), 0700) != 0) std::abort();
    cfg.data_path = data_dir;
  }

  RunResult result;
  {
    Database db(cfg);
    if (!db.open_status().ok()) std::abort();
    auto b = db.CreateTable(
        "t", Schema({Field("k", TypeId::kI64), Field("v", TypeId::kF64)}),
        Layout::kDsm, 4096);
    Rng rng(7);
    for (int i = 0; i < 24 * 4096; i++) {
      (void)b->AppendRow({Value::I64(rng.Uniform(0, 1 << 30)),
                          Value::F64(rng.NextDouble())});
    }
    {
      auto t = b->Finish();
      (void)db.RegisterTable(std::move(t).value());
    }
    UpdatableTable* table = *db.GetTable("t");
    db.buffers()->Clear();  // every run starts cold
    BufferManager* pool = db.buffers();
    const int64_t bytes_base = db.block_device()->bytes_read();
    const int64_t hits_base = pool->hits(), misses_base = pool->misses();
    const int64_t waits_base = pool->single_flight_waits();

    std::vector<double> latencies(n_sessions);
    std::vector<std::thread> threads;
    bench::Timer wall;
    for (int q = 0; q < n_sessions; q++) {
      threads.emplace_back([&, q] {
        // Staggered arrivals.
        std::this_thread::sleep_for(std::chrono::milliseconds(8 * q));
        bench::Timer t;
        ExecContext ctx;
        ScanOptions opts;
        opts.columns = {0, 1};
        ScanOp scan(table->View(), table->SnapshotPdt(), pool,
                    std::move(opts));
        auto res = CollectRows(&scan, &ctx);
        if (!res.ok() || res->rows.size() != 24u * 4096) std::abort();
        latencies[q] = t.Seconds();
      });
    }
    for (auto& t : threads) t.join();
    double avg = 0;
    for (double l : latencies) avg += l;
    result = RunResult{table->base()->compressed_bytes(),
                       db.block_device()->bytes_read() - bytes_base,
                       pool->hits() - hits_base, pool->misses() - misses_base,
                       pool->single_flight_waits() - waits_base,
                       avg / n_sessions, wall.Seconds()};
  }
  if (!data_dir.empty()) {
    ::unlink((data_dir + "/x100-data.blocks").c_str());
    ::unlink((data_dir + "/x100-catalog.bin").c_str());
    ::rmdir(data_dir.c_str());
  }
  return result;
}

// Cold-scan read-ahead: one sequential scan over a dataset far larger
// than the pool, through a bandwidth-limited channel. With prefetch on,
// the next group's blocks stream in while the current group is decoded;
// with it off, every group load stalls on the device. The CI smoke gate
// asserts the on/off speedup stays >= 1.2x.
void RunColdScanPhase(bench::JsonReport* json) {
  EngineConfig cfg;
  cfg.disk_bandwidth = 200ll << 20;           // 200 MB/s channel
  cfg.buffer_pool_bytes = 8 * kDiskBlockBytes;  // 2 MiB pool << dataset
  std::string data_dir;
  const char* data_root = std::getenv("X100_DATA_PATH");
  if (data_root != nullptr && *data_root != '\0') {
    data_dir = std::string(data_root) + "/e4-" + std::to_string(::getpid()) +
               "-" + std::to_string(g_run_seq++);
    if (::mkdir(data_dir.c_str(), 0700) != 0) std::abort();
    cfg.data_path = data_dir;
  }
  constexpr int kGroups = 48;
  constexpr int kGroupRows = 16384;
  constexpr int64_t kRows = int64_t{kGroups} * kGroupRows;
  {
    Database db(cfg);
    if (!db.open_status().ok()) std::abort();
    auto b = db.CreateTable(
        "cold", Schema({Field("k", TypeId::kI64), Field("v", TypeId::kF64)}),
        Layout::kDsm, kGroupRows);
    Rng rng(11);
    for (int64_t i = 0; i < kRows; i++) {
      // Wide-random keys defeat lightweight compression: the scan pays
      // full-width IO, which is the regime read-ahead targets.
      (void)b->AppendRow({Value::I64(rng.Uniform(0, int64_t{1} << 62)),
                          Value::F64(rng.NextDouble())});
    }
    {
      auto t = b->Finish();
      (void)db.RegisterTable(std::move(t).value());
    }
    UpdatableTable* table = *db.GetTable("cold");

    const auto scan_once = [&] {
      ExecContext ctx;
      ctx.scheduler = db.scheduler();
      ctx.buffers = db.buffers();
      ScanOptions opts;
      opts.columns = {0, 1};
      ScanOp scan(table->View(), table->SnapshotPdt(), db.buffers(),
                  std::move(opts));
      auto res = CollectRows(&scan, &ctx);
      if (!res.ok() || res->rows.size() != static_cast<size_t>(kRows)) {
        std::abort();
      }
    };

    double best[2] = {1e30, 1e30};
    for (int rep = 0; rep < 3; rep++) {
      for (int on = 0; on < 2; on++) {
        db.buffers()->set_prefetch_budget_bytes(on ? 4 * kDiskBlockBytes : 0);
        db.buffers()->Clear();  // every rep starts cold
        bench::Timer t;
        scan_once();
        db.buffers()->DrainPrefetches();
        best[on] = std::min(best[on], t.Seconds());
      }
    }
    const int64_t issued = db.buffers()->prefetch_issued();
    const int64_t hits = db.buffers()->prefetch_hits();
    const int64_t wasted = db.buffers()->prefetch_wasted();
    std::printf("\nCold sequential scan, pool %.1f MiB, data %.1f MiB,"
                " 200 MB/s channel:\n",
                cfg.buffer_pool_bytes / (1024.0 * 1024.0),
                kRows * 16 / (1024.0 * 1024.0));
    std::printf("%-22s %12s %12s\n", "read-ahead", "wall(s)", "ns/row");
    std::printf("%-22s %12.3f %12.1f\n", "off", best[0],
                best[0] * 1e9 / kRows);
    std::printf("%-22s %12.3f %12.1f\n", "on", best[1],
                best[1] * 1e9 / kRows);
    std::printf("prefetch issued=%lld hits=%lld wasted=%lld\n",
                static_cast<long long>(issued), static_cast<long long>(hits),
                static_cast<long long>(wasted));
    std::printf("speedup=%.2fx\n", best[0] / best[1]);
    json->Add("cold_scan_prefetch_off", best[0] * 1e9 / kRows);
    json->Add("cold_scan_prefetch_on", best[1] * 1e9 / kRows);
  }
  if (!data_dir.empty()) {
    ::unlink((data_dir + "/x100-data.blocks").c_str());
    ::unlink((data_dir + "/x100-catalog.bin").c_str());
    ::rmdir(data_dir.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool file_backed = std::getenv("X100_DATA_PATH") != nullptr &&
                           *std::getenv("X100_DATA_PATH") != '\0';
  bench::Header("E4", file_backed
                          ? "concurrent scans over one buffer pool"
                            " (file-backed column store)"
                          : "concurrent scans over one buffer pool");
  std::printf("%-9s %12s %14s %10s %10s %12s %10s\n", "sessions",
              "MB read", "MB/session", "hits", "misses", "avg lat(s)",
              "wall(s)");
  int64_t table_bytes = 0;
  for (int n_sessions : {2, 4, 8}) {
    const RunResult r = RunSessions(n_sessions);
    table_bytes = r.table_bytes;
    std::printf("%-9d %12.1f %14.2f %10lld %10lld %12.3f %10.2f\n",
                n_sessions, r.bytes / 1e6, r.bytes / 1e6 / n_sessions,
                static_cast<long long>(r.hits),
                static_cast<long long>(r.misses + r.waits), r.avg_latency,
                r.wall);
  }
  std::printf("\ntable %.2f MB compressed, pool %.2f MB: blocks a session"
              " finds in the pool cost no device read.\n",
              table_bytes / 1e6, 16 * kDiskBlockBytes / 1e6);
  bench::JsonReport json("e4", argc, argv);
  RunColdScanPhase(&json);
  if (!json.Write()) return 1;
  return 0;
}
