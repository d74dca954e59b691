// E1 — §1 headline claim: vectorized execution "allows modern CPU to
// process queries more than 10 times faster than conventional query
// engines". Two experiments:
//  1. Per-primitive ns/row sweeps of the hot kernels (selection compares,
//     mask compaction, hashing, keyless aggregation) at every SIMD
//     dispatch level this machine supports, scalar speedup column — the
//     kernels behind the dispatch layer in src/simd/.
//  2. TPC-H Q1 and Q6 through the vectorized engine (per level) vs the
//     Volcano tuple-at-a-time baseline, same memory-resident data.
// `--json <path>` writes every measurement as BENCH_E1.json for CI.
#include <random>

#include "bench_util.h"
#include "engine/session.h"
#include "primitives/agg_kernels.h"
#include "primitives/hash_kernels.h"
#include "primitives/primitive_registry.h"
#include "simd/simd_kernels.h"
#include "tpch/tpch.h"

using namespace x100;

namespace {

constexpr int kN = 1024;
constexpr int kIters = 20000;

double NsPerRow(double seconds) {
  return seconds * 1e9 / (static_cast<double>(kN) * kIters);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("E1", "hot primitives + vectorized vs tuple-at-a-time");
  bench::JsonReport json("E1", argc, argv);
  EnsureKernelsRegistered();
  auto* reg = PrimitiveRegistry::Get();
  const auto levels = AvailableSimdLevels();

  // ---- per-primitive sweeps -----------------------------------------------
  std::mt19937_64 rng(17);
  std::vector<int32_t> i32(kN);
  std::vector<int64_t> i64(kN);
  std::vector<double> f64(kN);
  std::vector<uint8_t> boolv(kN), nulls(kN);
  for (int i = 0; i < kN; i++) {
    i32[i] = static_cast<int32_t>(rng() % 1000);
    i64[i] = static_cast<int64_t>(rng() % 1000);
    f64[i] = static_cast<double>(rng() % 1000) * 0.5;
    boolv[i] = rng() & 1;
    nulls[i] = (rng() % 10) == 0;
  }
  std::vector<sel_t> sel_out(kN);
  std::vector<uint64_t> hashes(kN);
  Vector vi64(TypeId::kI64, kN);
  std::memcpy(vi64.RawData(), i64.data(), kN * sizeof(int64_t));
  Vector vf64(TypeId::kF64, kN);
  std::memcpy(vf64.RawData(), f64.data(), kN * sizeof(double));

  const int32_t c32 = 500;
  const double c64 = 250.0;
  const void* sel_i32_args[2] = {i32.data(), &c32};
  const void* sel_f64_args[2] = {f64.data(), &c64};

  struct Prim {
    const char* name;
    std::function<double(SimdLevel)> run;  // returns min seconds
  };
  std::vector<Prim> prims;
  prims.push_back({"select_lt_i32_vec_val", [&](SimdLevel l) {
    SelectFn fn = reg->FindSelect(
        "lt", {{TypeId::kI32, false}, {TypeId::kI32, true}}, l);
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        fn(kN, nullptr, sel_i32_args, sel_out.data());
      }
    });
  }});
  prims.push_back({"select_lt_f64_vec_val", [&](SimdLevel l) {
    SelectFn fn = reg->FindSelect(
        "lt", {{TypeId::kF64, false}, {TypeId::kF64, true}}, l);
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        fn(kN, nullptr, sel_f64_args, sel_out.data());
      }
    });
  }});
  prims.push_back({"compact_true_bool", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        simd::CompactTrue(kN, boolv.data(), sel_out.data(), l);
      }
    });
  }});
  prims.push_back({"compact_true_notnull", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        simd::CompactTrueNotNull(kN, boolv.data(), nulls.data(),
                                 sel_out.data(), l);
      }
    });
  }});
  prims.push_back({"hash_i64", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        hashk::HashColumn(vi64, kN, nullptr, hashes.data(), false, l);
      }
    });
  }});
  prims.push_back({"hash_f64_combine", [&](SimdLevel l) {
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        hashk::HashColumn(vf64, kN, nullptr, hashes.data(), true, l);
      }
    });
  }});
  prims.push_back({"agg_sum_i64_keyless", [&](SimdLevel l) {
    int64_t acc_i64 = 0, acc_cnt = 0;
    double acc_f64 = 0;
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        agg::UpdateAccum(AggKind::kSum, TypeId::kI64, kN, nullptr, nullptr,
                         nulls.data(), i64.data(), &acc_i64, &acc_f64,
                         &acc_cnt, l);
      }
    });
  }});
  prims.push_back({"agg_max_i32_keyless", [&](SimdLevel l) {
    int64_t acc_i64 = 0, acc_cnt = 0;
    double acc_f64 = 0;
    return bench::MinTime(5, [&] {
      for (int it = 0; it < kIters; it++) {
        agg::UpdateAccum(AggKind::kMax, TypeId::kI32, kN, nullptr, nullptr,
                         nulls.data(), i32.data(), &acc_i64, &acc_f64,
                         &acc_cnt, l);
      }
    });
  }});

  std::printf("\nper-primitive ns/row (%d-row vectors):\n", kN);
  std::printf("%-24s", "primitive");
  for (SimdLevel l : levels) std::printf(" %12s", SimdLevelName(l));
  std::printf(" %10s\n", "speedup");
  for (const Prim& p : prims) {
    std::printf("%-24s", p.name);
    double scalar_ns = 0, best_ns = 0;
    for (SimdLevel l : levels) {
      const double ns = NsPerRow(p.run(l));
      if (l == SimdLevel::kScalar) scalar_ns = ns;
      best_ns = ns;
      std::printf(" %12.3f", ns);
      json.Add(std::string(p.name) + " " + SimdLevelName(l), ns);
    }
    if (levels.size() > 1) {
      std::printf(" %9.2fx", scalar_ns / best_ns);
    } else {
      std::printf(" %10s", "n/a");
    }
    std::printf("\n");
  }

  // ---- end-to-end: Q1/Q6 per level vs the Volcano baseline ----------------
  const double sf = 0.02;
  Database db;
  if (!tpch::Generate(&db, sf).ok()) return 1;
  Session session(&db);
  const int64_t rows = (*db.GetTable("lineitem"))->visible_rows();
  std::printf("\nlineitem rows: %lld (SF %.3f), data memory-resident\n\n",
              static_cast<long long>(rows), sf);

  auto vrows = tpch::MaterializeRows(&db, "lineitem");
  if (!vrows.ok()) return 1;

  // Warm the buffer pool once.
  (void)session.Execute(tpch::Q1Plan());

  std::printf("%-10s %14s %14s %14s\n", "query", "level", "time(ms)",
              "ns/tuple");
  const char* names[2] = {"Q1", "Q6"};
  double vec_best[2] = {0, 0};
  for (int q = 0; q < 2; q++) {
    for (SimdLevel l : levels) {
      db.config().simd_level =
          l == SimdLevel::kScalar
              ? SimdMode::kScalar
              : (l == SimdLevel::kAvx2 ? SimdMode::kAvx2 : SimdMode::kNeon);
      const double t = bench::MinTime(3, [&] {
        auto r = session.Execute(q == 0 ? tpch::Q1Plan() : tpch::Q6Plan());
        if (!r.ok()) std::abort();
      });
      vec_best[q] = t;
      std::printf("%-10s %14s %14.2f %14.2f\n", names[q], SimdLevelName(l),
                  t * 1e3, t * 1e9 / rows);
      json.Add(std::string(names[q]) + " vectorized " + SimdLevelName(l),
               t * 1e9 / rows);
    }
  }
  db.config().simd_level = SimdMode::kAuto;
  double vol_t[2];
  vol_t[0] = bench::MinTime(3, [&] {
    auto plan = tpch::Q1Volcano(&*vrows);
    auto r = volcano::Collect(plan->get());
    if (!r.ok()) std::abort();
  });
  vol_t[1] = bench::MinTime(3, [&] {
    auto plan = tpch::Q6Volcano(&*vrows);
    auto r = volcano::Collect(plan->get());
    if (!r.ok()) std::abort();
  });
  for (int q = 0; q < 2; q++) {
    std::printf("%-10s %14s %14.2f %14.2f   (%.1fx vs vectorized)\n",
                names[q], "volcano", vol_t[q] * 1e3, vol_t[q] * 1e9 / rows,
                vol_t[q] / vec_best[q]);
    json.Add(std::string(names[q]) + " volcano", vol_t[q] * 1e9 / rows);
  }
  const double q1x = vol_t[0] / vec_best[0], q6x = vol_t[1] / vec_best[1];
  std::printf(
      "\npaper claim: >10x over conventional engines — %s "
      "(Q1 %.1fx, Q6 %.1fx)\n",
      q1x > 10 && q6x > 10 ? "CONFIRMED" : "NOT MET", q1x, q6x);
  return json.Write() ? 0 : 1;
}
