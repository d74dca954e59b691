// E13 — memory-accounted spill-to-disk: in-memory vs out-of-core
// throughput for the E8 group-by-join+sort workload.
//
// The paper's product lesson (§"things researchers do not think about"):
// graceful degradation under memory pressure is table stakes. This bench
// runs orders ⋈ lineitem -> group-by -> sort at three memory_limit
// points derived from the measured in-memory peak:
//   unlimited — the reference (0% spilled),
//   tight     — ~half the peak (a sizable fraction of breaker state
//               spills),
//   very tight — ~1/24th of the peak (nearly all build/agg/sort state
//               streams through SpillFile).
// Every configuration must reproduce the unlimited run's result exactly
// (the determinism self-check doubles as the CI gate, like bench_e8), the
// tight configurations must actually spill (nonzero spilled bytes in the
// profile), and the tracker must drain to zero after every query. A final
// 1-worker run at peak/24 covers the one-chain (serial) case of every
// breaker out of core: it must match the reference, every breaker must
// spill and the tracker must drain. At both peak/24 points the bench
// prints each breaker's spilled rows and writes and the sort's run count,
// and fails when a breaker wrote more than kSpillChunkRows rows per write.
// The 4-worker peak/24 point also prints `agg_bytes_per_group=`, the
// aggregation's spilled bytes per spilled group, which CI gates.
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "bench_util.h"
#include "common/hash.h"
#include "engine/session.h"
#include "storage/spill_file.h"
#include "tpch/tpch.h"

using namespace x100;

namespace {

/// Order-independent result checksum (rows arrive in sorted order here,
/// but hashing per-row and XOR-folding keeps the checksum stable even
/// for plans without a sort sink). CI runs this bench once on the
/// SimulatedDisk and once with X100_SPILL_PATH set, and diffs the
/// printed checksums: the storage device must never change an answer.
uint64_t ResultChecksum(const QueryResult& r) {
  uint64_t sum = HashMix(r.rows.size());
  for (const auto& row : r.rows) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : row) {
      const std::string s = v.ToString();
      h = HashCombine(h, HashBytes(s.data(), s.size()));
    }
    sum ^= h;
  }
  return sum;
}

AlgebraPtr GroupByJoinSortPlan() {
  // The E8 shape (orders ⋈ lineitem -> group-by -> sort), but grouped
  // per ORDER KEY rather than per priority: every breaker then carries
  // real state (build: all orders; agg: one group per order; sort: one
  // row per order), comfortably above the kMinSpillBytes floor, so each
  // of them visibly spills at the tight limits. The unique integer sort
  // key keeps row order deterministic.
  AlgebraPtr join = JoinNode(
      ScanNode("orders", {"o_orderkey", "o_orderpriority"}),
      ScanNode("lineitem", {"l_orderkey", "l_extendedprice"}),
      JoinType::kInner, {"o_orderkey"}, {"l_orderkey"});
  AlgebraPtr aggr =
      AggrNode(std::move(join), {{"okey", Col("o_orderkey")}},
               {{AggKind::kSum, Col("l_extendedprice"), "revenue"},
                {AggKind::kCount, nullptr, "items"}});
  return OrderNode(std::move(aggr), {{"okey", true}});
}

bool SameRows(const QueryResult& a, const QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); i++) {
    for (size_t c = 0; c < a.rows[i].size(); c++) {
      const Value& x = a.rows[i][c];
      const Value& y = b.rows[i][c];
      if (x.type() == TypeId::kF64 || y.type() == TypeId::kF64) {
        // FP sums depend on merge order; accept relative eps.
        const double dx = x.AsF64(), dy = y.AsF64();
        if (std::abs(dx - dy) > 1e-9 * (1 + std::abs(dx))) return false;
      } else if (!x.SqlEquals(y)) {
        return false;
      }
    }
  }
  return true;
}

int64_t SpilledBytes(const QueryProfile& p) {
  int64_t b = 0;
  for (const OperatorProfile& op : p.operators) b += op.spill_bytes;
  return b;
}

/// One breaker's spill entries, summed.
struct Spilled {
  int64_t bytes = 0, rows = 0, writes = 0;
  void Add(const OperatorProfile& p) {
    bytes += p.spill_bytes;
    rows += p.rows;
    writes += p.spills;
  }
  /// No write held more than one chunk's rows.
  bool chunked() const { return rows <= writes * kSpillChunkRows; }
};

/// Spill per pipeline breaker, from the breakers' profile entries.
struct BreakerSpill {
  Spilled build, probe, agg, sort;
  int64_t pairs = 0;
  int64_t sort_runs = 0;  // the merge width, from the "Sort(N)" entry
  bool every_breaker() const {
    return build.bytes > 0 && agg.bytes > 0 && sort.bytes > 0;
  }
  bool chunked() const {
    return build.chunked() && probe.chunked() && agg.chunked() &&
           sort.chunked();
  }
};

BreakerSpill SumBreakerSpill(const QueryProfile& prof) {
  BreakerSpill s;
  for (const OperatorProfile& p : prof.operators) {
    if (p.op == "JoinBuildSpill" || p.op == "JoinBuildDefer") s.build.Add(p);
    if (p.op == "JoinProbeSpill") s.probe.Add(p);
    if (p.op == "JoinProbePair") s.pairs++;
    if (p.op == "AggSpill") s.agg.Add(p);
    if (p.op == "SortSpill") s.sort.Add(p);
    if (p.op.rfind("Sort(", 0) == 0) {
      s.sort_runs = std::strtoll(p.op.c_str() + 5, nullptr, 10);
    }
  }
  return s;
}

/// Prints each breaker's spill; false (with a note) when a breaker wrote
/// more than kSpillChunkRows rows per write.
bool PrintBreakers(const char* label, const BreakerSpill& s) {
  std::printf("\n%s: grace pairs %lld, sort runs %lld\n", label,
              static_cast<long long>(s.pairs),
              static_cast<long long>(s.sort_runs));
  const std::pair<const char*, const Spilled*> rows[] = {
      {"build", &s.build}, {"probe", &s.probe}, {"agg", &s.agg},
      {"sort", &s.sort}};
  for (const auto& [name, sp] : rows) {
    std::printf("  %-6s %8.2f MB %9lld rows %6lld writes%s\n", name,
                sp->bytes / 1e6, static_cast<long long>(sp->rows),
                static_cast<long long>(sp->writes),
                sp->chunked() ? "" : "  <- more than one chunk per write");
  }
  return s.chunked();
}

}  // namespace

int main() {
  bench::Header("E13", "memory-accounted spill-to-disk (out-of-core)");
  EngineConfig cfg;
  cfg.buffer_pool_bytes = 1024 * kDiskBlockBytes;
  cfg.max_parallelism = 4;
  cfg.scheduler_workers = 4;
  Database db(cfg);
  if (!tpch::Generate(&db, 0.02).ok()) return 1;
  Session session(&db);
  (void)session.Execute(GroupByJoinSortPlan());  // warm

  // Measure the in-memory peak to derive the spilling limits.
  db.memory()->ResetPeak();
  auto reference = session.Execute(GroupByJoinSortPlan());
  if (!reference.ok()) {
    std::printf("reference failed: %s\n",
                reference.status().ToString().c_str());
    return 1;
  }
  const int64_t peak = db.memory()->peak();
  std::printf("in-memory peak: %.2f MB\n", peak / 1e6);
  const std::string spill_dir =
      Database::ResolvedSpillPath(db.config().spill_path);
  std::printf("spill device: %s\n\n",
              spill_dir.empty()
                  ? "SimulatedDisk (in-RAM)"
                  : ("file-backed (" + spill_dir + ")").c_str());

  struct Point {
    const char* name;
    int64_t limit;
    bool expect_spill;
  };
  const Point points[] = {
      {"unlimited", 0, false},
      {"tight (peak/2)", peak / 2, true},
      {"very tight (peak/24)", peak / 24, true},
  };

  // Reload traffic is read off the spill view, which counts only spill
  // blocks — with X100_SPILL_PATH they go to a temp FileBlockDevice, and
  // the SimulatedDisk's counters would show only table IO.
  auto spill_dev = db.spill_device();
  if (!spill_dev.ok()) {
    std::printf("spill device unavailable: %s\n",
                spill_dev.status().ToString().c_str());
    return 1;
  }

  bool ok = true;
  std::printf("%-22s %10s %12s %12s %8s   %s\n", "memory_limit", "ms",
              "spilled(MB)", "reload(MB)", "leak(B)", "determinism");
  for (const Point& pt : points) {
    db.config().memory_limit = pt.limit;
    const int64_t read0 = (*spill_dev)->spill_bytes_read();
    const double t = bench::MinTime(2, [&] {
      auto r = session.Execute(GroupByJoinSortPlan());
      if (!r.ok()) std::abort();
    });
    auto res = session.Execute(GroupByJoinSortPlan());
    if (!res.ok()) return 1;
    const bool same = SameRows(*reference, *res);
    const int64_t spilled = SpilledBytes(res->profile);
    const int64_t leak = db.memory()->used();
    std::printf("%-22s %10.2f %12.2f %12.2f %8lld   %s\n", pt.name, t * 1e3,
                spilled / 1e6,
                ((*spill_dev)->spill_bytes_read() - read0) / 1e6,
                static_cast<long long>(leak), same ? "ok" : "MISMATCH");
    ok &= same;
    ok &= leak == 0;  // reservations must drain after every query
    if (pt.expect_spill && spilled == 0) {
      std::printf("  ^ expected spilling at this limit, saw none\n");
      ok = false;
    }
    if (!pt.expect_spill && spilled != 0) {
      std::printf("  ^ unexpected spilling with no limit\n");
      ok = false;
    }
  }
  db.config().memory_limit = 0;

  // Per-breaker visibility at the tightest point: each pipeline breaker
  // must report nonzero spilled bytes in the profile.
  db.config().memory_limit = peak / 24;
  auto profiled = session.Execute(GroupByJoinSortPlan());
  db.config().memory_limit = 0;
  if (!profiled.ok()) return 1;
  const BreakerSpill spill = SumBreakerSpill(profiled->profile);
  bool chunks_ok = PrintBreakers("per-breaker spill at peak/24", spill);
  // The aggregation's spill width: a spilled group is its hash, its key
  // and the accumulator arrays its aggregates keep. CI gates on it.
  std::printf("agg_bytes_per_group=%.2f\n",
              spill.agg.rows > 0 ? static_cast<double>(spill.agg.bytes) /
                                       static_cast<double>(spill.agg.rows)
                                 : 0.0);
  std::printf("\nvery-tight profile:\n%s",
              profiled->profile.ToString().c_str());
  const bool breakers_ok = spill.every_breaker();
  if (!breakers_ok) {
    std::printf("^ expected every breaker to spill at peak/24\n");
  }

  // The serial case out of core: one chain per breaker, same limit.
  db.config().max_parallelism = 1;
  db.config().scheduler_workers = 1;
  db.config().memory_limit = peak / 24;
  auto serial = session.Execute(GroupByJoinSortPlan());
  db.config().memory_limit = 0;
  db.config().max_parallelism = 4;
  db.config().scheduler_workers = 4;
  if (!serial.ok()) return 1;
  const BreakerSpill s_spill = SumBreakerSpill(serial->profile);
  const bool serial_same = SameRows(*reference, *serial);
  const int64_t serial_leak = db.memory()->used();
  const bool serial_ok =
      serial_same && serial_leak == 0 && s_spill.every_breaker();
  chunks_ok &= PrintBreakers("1-worker at peak/24", s_spill);
  std::printf("1-worker at peak/24: leak=%lldB determinism=%s -> %s\n",
              static_cast<long long>(serial_leak),
              serial_same ? "ok" : "MISMATCH",
              serial_ok ? "ok"
                        : "FAILED (every breaker must spill, no leak)");
  if (!chunks_ok) {
    std::printf("^ a breaker wrote more than %lld rows per spill write\n",
                static_cast<long long>(kSpillChunkRows));
  }

  // The CI gate diffs this line between the SimulatedDisk run and the
  // X100_SPILL_PATH file-backed run. Hash the TIGHTEST run — the one
  // whose rows actually round-tripped through the device — so a
  // device-induced wrong answer changes the checksum (the unlimited
  // reference never touches the device and would gate nothing).
  std::printf("\nresult checksum: %016" PRIx64 "\n",
              ResultChecksum(*profiled));
  std::printf("determinism in-memory vs out-of-core: %s\n",
              ok ? "ok" : "MISMATCH");
  return ok && breakers_ok && serial_ok && chunks_ok ? 0 : 1;
}
