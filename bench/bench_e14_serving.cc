// E14 — the concurrent serving layer: prepared-statement plan caching vs
// ad-hoc recompilation, async submission throughput, and quota-governed
// mixed workloads.
//
// The paper's serving lesson: once the kernel loop is vectorized, small-
// query latency is dominated by the frontend (parse -> cross-compile ->
// rewrite), so a server must do that work once per statement, not once
// per call. This bench measures exactly that margin on a point-query mix
// (the CI gate requires prepared >= 2x ad-hoc), then drives the async
// path with N concurrent sessions against the shared scheduler and the
// adaptive task quota, checking every answer against a serial reference.
// First, it times a scan-bound prepared point lookup on a 1M-row table and
// counts the minor page faults each lookup takes (the CI gate allows at
// most 8: a lookup must not allocate and release group-sized buffers).
//
//   $ ./bench_e14_serving [--json BENCH_E14.json]
#include <sys/resource.h>

#include <atomic>
#include <cinttypes>
#include <thread>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/session.h"
#include "tpch/tpch.h"

using namespace x100;

namespace {

constexpr int kPointIters = 2000;
constexpr int kLookupIters = 2000;
constexpr int64_t kBigKvRows = 1000000;
constexpr double kMaxFaultsPerLookup = 8;

/// The point-query mix against a small kv table: a bare lookup, a
/// predicate-heavy lookup, and an ORM-style verbose statement whose
/// select list is constant arithmetic the rewriter folds to literals.
/// Execution is microseconds for all three — the frontend (parse,
/// cross-compile, rewrite/fold) decides ad-hoc throughput, which is
/// exactly the asymmetry prepared statements exploit.
std::vector<std::string> PointQueries() {
  std::vector<std::string> out;
  out.push_back("SELECT v FROM kv WHERE k = 517");
  out.push_back(
      "SELECT v FROM kv WHERE k = 517 AND v >= 0.0 AND k BETWEEN 0 AND "
      "100000 AND k + 1 = 518 AND v * 2.0 >= 0.0 AND k - 1 = 516 AND "
      "v <= 1000000000.0 AND k * 2 = 1034");
  // The ORM/BI shape: generated SQL carries the pricing constants in
  // every statement; the cached plan carries the folded literals.
  std::string orm = "SELECT v";
  for (int i = 1; i <= 12; i++) {
    orm += ", (" + std::to_string(i) +
           ".0 * 1.21 + 100.0 - 2.5 * 3.0) * (7.0 - 4.0) + 0.5 AS c" +
           std::to_string(i);
  }
  orm += " FROM kv WHERE k = 517";
  out.push_back(std::move(orm));
  return out;
}

/// Registers kv(k, v): 1024 rows, k unique.
bool RegisterKv(Database* db) {
  auto b = db->CreateTable(
      "kv", Schema({Field("k", TypeId::kI64), Field("v", TypeId::kF64)}),
      Layout::kDsm, 256);
  for (int i = 0; i < 1024; i++) {
    if (!b->AppendRow({Value::I64(i), Value::F64(i * 0.5)}).ok()) {
      return false;
    }
  }
  auto t = b->Finish();
  return t.ok() && db->RegisterTable(std::move(t).value()).ok();
}

/// Registers kv1m(k, v): 1M rows in 16,384-row groups, k unique and
/// sorted, so MinMax pushdown leaves one group for a lookup to scan.
bool RegisterBigKv(Database* db) {
  auto b = db->CreateTable(
      "kv1m", Schema({Field("k", TypeId::kI64), Field("v", TypeId::kF64)}),
      Layout::kDsm, 16384);
  for (int64_t k = 0; k < kBigKvRows; k++) {
    if (!b->AppendRow({Value::I64(k), Value::F64(static_cast<double>(k) * 0.5)})
             .ok()) {
      return false;
    }
  }
  auto t = b->Finish();
  return t.ok() && db->RegisterTable(std::move(t).value()).ok();
}

int64_t MinorFaults() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("E14", "concurrent serving: plan cache + async sessions");
  bench::JsonReport report("E14", argc, argv);

  EngineConfig cfg;
  cfg.scheduler_workers = 4;
  cfg.max_parallelism = 4;
  cfg.query_task_quota = 0;  // auto: 2x workers, adaptively shared
  Database db(cfg);
  report.set_workers(4);
  Session session(&db);
  if (!RegisterBigKv(&db)) return 1;
  // --- Part 1: scan-bound point lookup, time and page faults ------------
  // First, in a fresh process: the faults come from the allocator handing
  // memory back to the kernel between lookups, which earlier large
  // allocations (the other parts) would mask by raising glibc's dynamic
  // trim threshold.
  std::vector<PreparedStatement> lookups;
  std::vector<int64_t> lookup_keys;
  Rng rng(14);
  for (int i = 0; i < 64; i++) {
    lookup_keys.push_back(rng.Uniform(0, kBigKvRows - 1));
    auto p = session.Prepare("SELECT v FROM kv1m WHERE k = " +
                             std::to_string(lookup_keys.back()));
    if (!p.ok()) return 1;
    lookups.push_back(*p);
  }
  const auto run_lookups = [&](int iters) {
    for (int i = 0; i < iters; i++) {
      const int at = i % static_cast<int>(lookups.size());
      auto r = session.ExecutePrepared(lookups[at]);
      if (!r.ok() || r->rows.size() != 1 ||
          r->rows[0][0].AsF64() != static_cast<double>(lookup_keys[at]) * 0.5) {
        std::abort();
      }
    }
  };
  run_lookups(200);  // warm-up: plans, pool, allocator
  const int64_t faults_before = MinorFaults();
  bench::Timer lookup_timer;
  run_lookups(kLookupIters);
  const double lookup_us = lookup_timer.Seconds() / kLookupIters * 1e6;
  const double faults =
      static_cast<double>(MinorFaults() - faults_before) / kLookupIters;
  std::printf("\nprepared point lookup on kv1m (1M rows, 16,384-row groups,"
              " %d lookups):\n", kLookupIters);
  std::printf("  %10.1f us/lookup %10.2f minor faults/lookup"
              "  [gate: <= %.0f faults] %s\n",
              lookup_us, faults, kMaxFaultsPerLookup,
              faults <= kMaxFaultsPerLookup ? "PASS" : "FAIL");
  report.Add("lookup.kv1m", lookup_us * 1e3);

  if (!tpch::Generate(&db, 0.01).ok() || !RegisterKv(&db)) return 1;

  // --- Part 2: prepared vs ad-hoc on the point-query mix ---------------
  const std::vector<std::string> points = PointQueries();
  const int num_point = static_cast<int>(points.size());
  std::vector<PreparedStatement> prepared;
  for (const std::string& sql : points) {
    auto p = session.Prepare(sql);
    if (!p.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   p.status().ToString().c_str());
      return 1;
    }
    prepared.push_back(*p);
  }

  const double adhoc_s = bench::MinTime(3, [&] {
    for (int i = 0; i < kPointIters; i++) {
      auto r = session.ExecuteSql(points[i % num_point]);
      if (!r.ok()) std::abort();
    }
  });
  const double prepared_s = bench::MinTime(3, [&] {
    for (int i = 0; i < kPointIters; i++) {
      auto r = session.ExecutePrepared(prepared[i % num_point]);
      if (!r.ok()) std::abort();
    }
  });
  const double speedup = adhoc_s / prepared_s;
  std::printf("\npoint-query mix (%d queries/rep, min of 3 reps):\n",
              kPointIters);
  std::printf("  %-22s %10.1f us/query %12.0f q/s\n", "ad-hoc (recompile)",
              adhoc_s / kPointIters * 1e6, kPointIters / adhoc_s);
  std::printf("  %-22s %10.1f us/query %12.0f q/s\n", "prepared (cached)",
              prepared_s / kPointIters * 1e6, kPointIters / prepared_s);
  std::printf("  speedup: %.2fx  [gate: >= 2x] %s\n", speedup,
              speedup >= 2.0 ? "PASS" : "FAIL");
  report.Add("point.adhoc", adhoc_s / kPointIters * 1e9);
  report.Add("point.prepared", prepared_s / kPointIters * 1e9);

  // --- Part 3: async submission throughput, concurrent sessions --------
  // Each session submits its whole batch asynchronously and then drains;
  // a fat analytic query rides along so the quota controller has to
  // split shares while point queries stream past it.
  const char* fat_sql =
      "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q FROM "
      "lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  auto fat_ref = session.ExecuteSql(fat_sql);
  auto point_ref = session.ExecuteSql(points[0]);
  if (!fat_ref.ok() || !point_ref.ok()) return 1;

  for (int sessions : {4, 8, 16}) {
    const int per_session = 50;
    std::atomic<int64_t> bad{0};
    bench::Timer t;
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; s++) {
      threads.emplace_back([&, s] {
        Session local(&db);
        std::vector<PendingQuery> pending;
        for (int i = 0; i < per_session; i++) {
          // Every 10th query is the fat aggregate; the rest are cached
          // point lookups.
          const bool fat = (s + i) % 10 == 0;
          auto p = local.Prepare(fat ? fat_sql : points[0].c_str());
          if (!p.ok()) {
            bad.fetch_add(1);
            continue;
          }
          auto pq = local.Submit(*p);
          if (!pq.ok()) {
            bad.fetch_add(1);
            continue;
          }
          pending.push_back(*pq);
          if (pending.size() >= 8) {  // bounded in-flight window
            for (auto& q : pending) {
              auto r = q.Wait();
              if (!r.ok()) bad.fetch_add(1);
            }
            pending.clear();
          }
        }
        for (auto& q : pending) {
          auto r = q.Wait();
          const QueryResult& want =
              r.ok() && r->rows.size() > 1 ? *fat_ref : *point_ref;
          if (!r.ok() || r->rows.size() != want.rows.size()) bad.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    const double secs = t.Seconds();
    const double qps = sessions * per_session / secs;
    std::printf(
        "async mix, %2d sessions x %d queries: %8.0f q/s "
        "(%.2fs, %" PRId64 " errors, %" PRId64 " rebalances)\n",
        sessions, per_session, qps, secs, bad.load(),
        db.quota_controller()->rebalances());
    report.Add("async.sessions" + std::to_string(sessions),
               secs / (sessions * per_session) * 1e9);
    if (bad.load() != 0) {
      std::fprintf(stderr, "FAIL: %" PRId64 " failed queries\n", bad.load());
      return 1;
    }
  }

  std::printf(
      "\nplan cache: %" PRId64 " hits / %" PRId64 " misses (%" PRId64
      " entries); quota: budget %d, %" PRId64 " rebalances\n",
      db.plan_cache()->hits(), db.plan_cache()->misses(),
      db.plan_cache()->size(), db.quota_controller()->global_budget(),
      db.quota_controller()->rebalances());

  if (!report.Write()) return 1;
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: prepared speedup %.2fx < 2x gate\n", speedup);
    return 1;
  }
  if (faults > kMaxFaultsPerLookup) {
    std::fprintf(stderr, "FAIL: %.2f minor faults per lookup > %.0f gate\n",
                 faults, kMaxFaultsPerLookup);
    return 1;
  }
  return 0;
}
