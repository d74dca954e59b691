// Aggregation update kernels: fold one vector of agg input into the
// accumulator arrays (the X100 "aggr_*" primitive family). HashAggOp
// drives these after computing group ids for a whole vector; pulling the
// row loop out of the operator lets the keyless/dense cases ride the SIMD
// fast paths while every grouped case keeps the exact scalar semantics.
#ifndef X100_PRIMITIVES_AGG_KERNELS_H_
#define X100_PRIMITIVES_AGG_KERNELS_H_

#include <cstdint>

#include "common/types.h"
#include "simd/simd.h"
#include "vector/vector.h"

namespace x100 {

/// Identifies an aggregate function in plans and operators.
enum class AggKind : uint8_t {
  kCount,     // COUNT(*) or COUNT(x)
  kSum,
  kMin,
  kMax,
  kAvg,       // computed as sum + count, finalized to f64
};

const char* AggKindName(AggKind k);

namespace agg {

/// The SUM/AVG i64 add: wraps on overflow like the AVX2 lane-wise
/// add_epi64, where a plain signed add would be undefined behaviour. The
/// scalar fold and the barrier merge (GroupTable::MergeFrom) use it.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Folds `data` (a typed column of `in_type`) into one accumulator set.
/// Exact engine semantics per live non-NULL row i with group g = gid[j]
/// (gid == nullptr means keyless: every row hits group 0):
///   kCount:      count[g]++
///   kSum/kAvg:   f64 input: f64[g] += v;  int input: i64[g] += v
///                (WrapAdd) AND f64[g] += double(v) (the f64 shadow
///                accumulates in row order — FP addition is
///                non-associative, so it is never vectorized); then
///                count[g]++
///   kMin/kMax:   adopt v when count[g] == 0 or v beats the current best
///                (f64[g]/i64[g] both overwritten; int inputs store 0.0
///                into f64[g]); then count[g]++
/// SIMD fast paths exist for keyless + dense (sel == nullptr) int sum /
/// min / max and for COUNT(x); they mask NULL lanes rather than trusting
/// NULL-slot values and produce bit-identical accumulator state.
void UpdateAccum(AggKind kind, TypeId in_type, int n, const sel_t* sel,
                 const uint32_t* gid, const uint8_t* nulls, const void* data,
                 int64_t* i64, double* f64, int64_t* count,
                 SimdLevel simd = SimdLevel::kScalar);

/// COUNT(*): no input column, no NULL skip — every live row counts.
void UpdateCountStar(int n, const uint32_t* gid, int64_t* count);

}  // namespace agg
}  // namespace x100

#endif  // X100_PRIMITIVES_AGG_KERNELS_H_
