#include "primitives/agg_kernels.h"

#include "simd/simd_kernels.h"

namespace x100 {
namespace agg {
namespace {

/// Loads row i of the typed input column as (dv, iv): f64 fills dv (iv
/// stays 0), every int width sign-extends into iv (dv stays 0).
inline void LoadRow(TypeId in_type, const void* data, int i, double* dv,
                    int64_t* iv) {
  *dv = 0;
  *iv = 0;
  if (in_type == TypeId::kF64) {
    *dv = static_cast<const double*>(data)[i];
  } else if (in_type == TypeId::kI64) {
    *iv = static_cast<const int64_t*>(data)[i];
  } else if (in_type == TypeId::kI16) {
    *iv = static_cast<const int16_t*>(data)[i];
  } else if (in_type == TypeId::kI8 || in_type == TypeId::kBool) {
    *iv = static_cast<const int8_t*>(data)[i];
  } else {
    *iv = static_cast<const int32_t*>(data)[i];
  }
}

void UpdateAccumScalar(AggKind kind, TypeId in_type, int n, const sel_t* sel,
                       const uint32_t* gid, const uint8_t* nulls,
                       const void* data, int64_t* i64, double* f64,
                       int64_t* count) {
  for (int j = 0; j < n; j++) {
    const int i = sel ? sel[j] : j;
    if (nulls != nullptr && nulls[i]) continue;
    const uint32_t g = gid ? gid[j] : 0;
    double dv;
    int64_t iv;
    LoadRow(in_type, data, i, &dv, &iv);
    switch (kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (in_type == TypeId::kF64) {
          f64[g] += dv;
        } else {
          i64[g] = WrapAdd(i64[g], iv);
          f64[g] += static_cast<double>(iv);
        }
        break;
      case AggKind::kMin:
        if (count[g] == 0 ||
            (in_type == TypeId::kF64 ? dv < f64[g] : iv < i64[g])) {
          f64[g] = dv;
          i64[g] = iv;
        }
        break;
      case AggKind::kMax:
        if (count[g] == 0 ||
            (in_type == TypeId::kF64 ? dv > f64[g] : iv > i64[g])) {
          f64[g] = dv;
          i64[g] = iv;
        }
        break;
    }
    count[g]++;
  }
}

/// Keyless + dense AVX2 paths. Returns false when no fast path covers
/// this (kind, in_type) — the caller falls through to the scalar loop.
bool UpdateAccumKeylessAvx2(AggKind kind, TypeId in_type, int n,
                            const uint8_t* nulls, const void* data,
                            int64_t* i64, double* f64, int64_t* count) {
  const bool is_i32 = in_type == TypeId::kI32 || in_type == TypeId::kDate;
  const bool is_i64 = in_type == TypeId::kI64;
  switch (kind) {
    case AggKind::kCount: {
      count[0] += simd_avx2::CountNonNull(n, nulls);
      return true;
    }
    case AggKind::kSum:
    case AggKind::kAvg: {
      if (!is_i32 && !is_i64) return false;  // f64 sum is order-sensitive
      // i64 sum + count vectorize; the f64 shadow replays the exact
      // row-order FP additions of the scalar loop (non-associative).
      if (is_i32) {
        const auto* v = static_cast<const int32_t*>(data);
        simd_avx2::SumI32Keyless(n, v, nulls, &i64[0], &count[0]);
        double s = f64[0];
        for (int i = 0; i < n; i++) {
          if (nulls != nullptr && nulls[i]) continue;
          s += static_cast<double>(static_cast<int64_t>(v[i]));
        }
        f64[0] = s;
      } else {
        const auto* v = static_cast<const int64_t*>(data);
        simd_avx2::SumI64Keyless(n, v, nulls, &i64[0], &count[0]);
        double s = f64[0];
        for (int i = 0; i < n; i++) {
          if (nulls != nullptr && nulls[i]) continue;
          s += static_cast<double>(v[i]);
        }
        f64[0] = s;
      }
      return true;
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      if (!is_i32 && !is_i64) return false;
      const bool is_min = kind == AggKind::kMin;
      const bool had = count[0] > 0;
      // Min/max are order-independent: fold the vector's extremum, then
      // merge against the existing best exactly as row-at-a-time would.
      if (is_i32) {
        int32_t best = 0;
        int64_t cnt = 0;
        if (!simd_avx2::MinMaxI32Keyless(n, static_cast<const int32_t*>(data),
                                         nulls, is_min, &best, &cnt)) {
          return true;  // all rows NULL: nothing changes
        }
        count[0] += cnt;
        const int64_t b = best;
        if (!had || (is_min ? b < i64[0] : b > i64[0])) {
          i64[0] = b;
          f64[0] = 0.0;  // the scalar int path stores dv == 0 on adopt
        }
      } else {
        int64_t best = 0;
        int64_t cnt = 0;
        if (!simd_avx2::MinMaxI64Keyless(n, static_cast<const int64_t*>(data),
                                         nulls, is_min, &best, &cnt)) {
          return true;
        }
        count[0] += cnt;
        if (!had || (is_min ? best < i64[0] : best > i64[0])) {
          i64[0] = best;
          f64[0] = 0.0;
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace

void UpdateAccum(AggKind kind, TypeId in_type, int n, const sel_t* sel,
                 const uint32_t* gid, const uint8_t* nulls, const void* data,
                 int64_t* i64, double* f64, int64_t* count, SimdLevel simd) {
  if (simd == SimdLevel::kAvx2 && gid == nullptr && sel == nullptr) {
    if (UpdateAccumKeylessAvx2(kind, in_type, n, nulls, data, i64, f64,
                               count)) {
      return;
    }
  }
  UpdateAccumScalar(kind, in_type, n, sel, gid, nulls, data, i64, f64, count);
}

void UpdateCountStar(int n, const uint32_t* gid, int64_t* count) {
  if (gid == nullptr) {
    count[0] += n;
    return;
  }
  for (int j = 0; j < n; j++) count[gid[j]]++;
}

}  // namespace agg
}  // namespace x100
