// Every constant of the benchmark: sizes, rates, limits and durations.
// They are fixed here, once, and never recalibrated at run time; a change
// to any of them is a change to the benchmark and resets its baseline.
// README.md explains each choice.
#ifndef X100BENCH_PARAMS_H_
#define X100BENCH_PARAMS_H_

#include <cstdint>

namespace x100bench {
namespace params {

// --- Load model shared by every workload -----------------------------------
/// Engine workers: scheduler_workers = max_parallelism = 4 (the host has
/// 4 hardware threads).
inline constexpr int kWorkers = 4;
/// Length of the timed phase when --seconds is not given (BENCHMARK.json
/// run_seconds holds the same value).
inline constexpr double kDefaultSeconds = 20.0;
/// Untimed warm-up running the workload's own mix before the timed phase.
inline constexpr double kWarmupSeconds = 2.0;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;
/// Traced runs: repetitions of each call in the per-layer probe phase.
inline constexpr int kProbeReps = 5;

// --- olap_mem --------------------------------------------------------------
inline constexpr double kOlapSf = 0.2;
inline constexpr int64_t kOlapPoolBytes = 256ll << 20;

// Query parameter sets; the seed picks one value of each per run.
inline constexpr int kQ1DeltaDays[] = {60, 90, 120};
inline constexpr int kQ6Years[] = {1993, 1994, 1995, 1996, 1997};
inline constexpr const char* kQ3Segments[] = {
    "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};

/// The Volcano oracle boxes every row into Values; it walks lineitem in
/// slices of this many orders so one slice stays a few tens of MB.
inline constexpr int64_t kOracleSliceOrders = 12500;

// --- serve_mix -------------------------------------------------------------
inline constexpr int64_t kKvRows = 1000000;
/// MinMax prunes a point lookup on k to one of ~62 groups.
inline constexpr int64_t kKvGroupRows = 16384;
inline constexpr double kServeSf = 0.05;
inline constexpr int64_t kServePoolBytes = 64ll << 20;  // all data resident
inline constexpr int kPreparedStatements = 256;
inline constexpr double kZipfExponent = 0.99;
/// Request mix; the remaining 1% is the prepared fat aggregate.
inline constexpr double kPointShare = 0.80;
inline constexpr double kAdhocShare = 0.19;
/// Nominal Poisson arrival rate and the point-lookup p99 limit, calibrated
/// once (R_nom ~ 50% of closed-loop capacity, L ~ 2x the p99 at R_nom; see
/// README.md) and frozen here.
inline constexpr double kRateNominal = 10000.0;
inline constexpr double kP99LimitMs = 20.0;
/// Saturation phase after the nominal one: a closed window of this many
/// requests in flight; its completion rate is sustained_qps.
inline constexpr int kSaturationWindow = 64;
/// Rate ladder last: kRateNominal * kLadderRatio^k for k = 0 ..
/// kLadderSteps-1, ascending, with an untimed drain between steps.
inline constexpr double kLadderRatio = 1.1;
inline constexpr int kLadderSteps = 8;
/// Shares of --seconds spent at kRateNominal and saturated; the ladder
/// gets the rest.
inline constexpr double kNominalShare = 0.5;
inline constexpr double kSaturationShare = 0.2;
/// A step's backlog "grew" when the mean in-flight count of its last third
/// exceeds that of its first third by more than this many requests.
inline constexpr double kBacklogGrowth = 16.0;
/// Admission cap on queued + running async queries (Submit refuses above).
inline constexpr int kAdmissionCap = 512;
/// Collector poll period and backlog sampling period.
inline constexpr int kPollMicros = 50;
inline constexpr double kBacklogSampleSeconds = 0.01;

// --- cold_rw ---------------------------------------------------------------
/// SF 0.044 puts 264,307 lineitem rows on disk: four full 65,536-row block
/// groups plus a 2,163-row last group. Every write lands in that last
/// group, because a checkpoint rewrites each dirty group row by row at a
/// cost that grows with the square of its size (a 38K-row group takes
/// ~40 s; see README.md "Caveats").
inline constexpr double kColdSf = 0.044;
inline constexpr int64_t kColdPoolBytes = 4ll << 20;
inline constexpr int64_t kColdBandwidth = 200000000;  // bytes per second
/// The writable rows: the lines of the newest kHotOrders orders (~2,000
/// rows, the tail of the table, inside the last block group).
inline constexpr int64_t kColdHotOrders = 500;
inline constexpr int kTxnsPerRound = 4;
inline constexpr int kUpdatesPerTxn = 100;
/// Share of a transaction's writes that are a delete of a row paired with
/// an append of an identical row; the rest write a column's value back.
inline constexpr double kDeleteAppendShare = 0.1;
inline constexpr int kCheckpointEvery = 16;  // rounds

// --- spill_join ------------------------------------------------------------
inline constexpr double kSpillSf = 0.1;
/// ~1/6.5 of join_sort's unlimited tracker peak at this scale (54.9 MB).
inline constexpr int64_t kSpillLimitBytes = 8ll << 20;

// --- per-layer probe (traced runs) ----------------------------------------
/// Rows per vector and vectors per timing in the primitive probe.
inline constexpr int kProbeVector = 1024;
inline constexpr int kProbeVectors = 2048;
/// Orders whose lines the PDT probe updates in non-writing workloads.
inline constexpr int64_t kProbeHotOrders = 25;

}  // namespace params
}  // namespace x100bench

#endif  // X100BENCH_PARAMS_H_
