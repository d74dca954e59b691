// Engine-wide tunables.
#ifndef X100_COMMON_CONFIG_H_
#define X100_COMMON_CONFIG_H_

#include <cstdint>
#include <string>

#include "simd/simd.h"

namespace x100 {

/// Default number of values per vector. X100's sweet spot: large enough to
/// amortize interpretation overhead, small enough that the working set of a
/// pipeline stays in the CPU cache (experiment E2 sweeps this).
inline constexpr int kDefaultVectorSize = 1024;

/// Rows per storage block group (PAX/DSM unit).
inline constexpr int64_t kBlockGroupRows = 64 * 1024;

/// Size of one on-"disk" block.
inline constexpr int64_t kDiskBlockBytes = 256 * 1024;

/// Engine configuration carried by Database / QueryExecutor.
struct EngineConfig {
  int vector_size = kDefaultVectorSize;
  /// Pipeline width: the number of worker chains the physical planner
  /// clones per parallelizable pipeline (join build side, join probe +
  /// aggregation, sort input). <= 1 builds fully serial plans.
  int max_parallelism = 0;
  /// Worker threads of the task scheduler parallel plans run on:
  /// 0 = share the process-wide pool (sized to hardware concurrency),
  /// > 0 = give this Database a private pool with that many workers
  /// (tests and benches pin worker counts this way).
  int scheduler_workers = 0;
  /// Admission control: the GLOBAL budget of concurrently-running
  /// pipeline tasks shared by every query on this Database, redistributed
  /// across active queries by the AdaptiveQuotaController
  /// (common/adaptive_quota.h). 0 = auto-size to 2x the scheduler's
  /// worker count; < 0 = unlimited (no controller). A single query gets
  /// the whole budget; each concurrent query is granted an equal share
  /// (never below 1), shrunk further while the scheduler's run queues
  /// back up with no steals happening — so one fat analytical query
  /// cannot starve concurrent point queries. A query granted fewer slots
  /// than its pipeline width degrades gracefully (fewer tasks each
  /// covering more worker chains).
  int query_task_quota = 0;
  /// Plan cache capacity in entries (prepared statements; engine/
  /// plan_cache.h). 0 disables caching — Session::Prepare then compiles
  /// every time.
  int plan_cache_capacity = 256;
  /// Async admission queue: cap on queued + running Session::Submit
  /// queries per Database (0 = unbounded). Submit returns
  /// kResourceExhausted once the cap is reached — backpressure at the
  /// door instead of an unbounded task pile-up on the scheduler.
  int admission_queue_cap = 0;
  /// Completed-query retention in the QueryRegistry (monitoring): at most
  /// this many finished/failed/cancelled entries are kept, oldest evicted
  /// first (0 = unbounded — only sensible for short-lived tests). Running
  /// and queued queries are never evicted.
  int query_history_cap = 1024;
  /// Radix partitioning of pipeline-breaker merges (join build table,
  /// aggregation group merge): per-worker state is hash-partitioned by
  /// the TOP `radix_bits` bits of the key hash, and each of the
  /// 2^radix_bits partitions is merged/indexed by an independent
  /// scheduler task — the barrier merge is no longer a serial fraction.
  ///  -1 = auto: sized from the pipeline width (see EffectiveRadixBits),
  ///   0 = single-table path (one merge task; the fallback for tiny
  ///       builds and the reference configuration in bench sweeps),
  ///  >0 = exactly 2^radix_bits partitions.
  int radix_bits = -1;
  /// Memory accounting limit in bytes (0 = unlimited, unless the
  /// X100_MEMORY_LIMIT environment knob supplies a default — see
  /// Database::ResolvedMemoryLimit). Enforced by the per-query
  /// MemoryTracker: pipeline breakers whose reservation fails spill whole
  /// radix partitions / sorted runs to the SimulatedDisk, or surface
  /// kResourceExhausted when spilling is disabled.
  int64_t memory_limit = 0;
  /// Out-of-core execution: when a breaker's memory reservation fails,
  /// spill radix partitions (join build, aggregation) and sorted runs
  /// (sort) to disk instead of failing the query. false turns a failed
  /// reservation into kResourceExhausted, unwound through the pipeline
  /// cancellation machinery.
  bool enable_spill = true;
  /// Directory for the file-backed spill device. Empty (the default)
  /// spills to the in-RAM SimulatedDisk unless the X100_SPILL_PATH
  /// environment knob supplies a directory (see Database::
  /// ResolvedSpillPath); non-empty makes every spill write hit a real
  /// temp file under this directory (storage/file_block_device.h), so
  /// memory_limit bounds the process's actual footprint, not just the
  /// accounted one. The directory must exist: a configured-but-unusable
  /// spill path fails the query loudly instead of silently running
  /// in-RAM.
  std::string spill_path;
  /// SIMD dispatch level for primitive/kernel selection. kAuto defers to
  /// the X100_SIMD environment knob when set (auto|scalar|avx2|neon;
  /// malformed values warn once and stay auto — same contract as
  /// X100_MEMORY_LIMIT), then to runtime CPU detection. A concrete mode
  /// the hardware cannot execute degrades to scalar with a one-time
  /// warning; scalar kernels are always available, so every query runs at
  /// every setting with bit-identical results (hashes included — see
  /// src/simd/simd_kernels.h).
  SimdMode simd_level = SimdMode::kAuto;
  /// Buffer pool capacity in BYTES (< 0 = auto: the X100_BUFFER_POOL
  /// environment knob when set — plain bytes or a binary suffix like
  /// "4MiB"; see Database::ResolvedBufferPoolBytes — else 64 MiB). 0 is a
  /// legal degenerate pool: every unpinned block is evicted immediately,
  /// but pinned working sets still resolve (pin-during-insert).
  int64_t buffer_pool_bytes = -1;
  /// Read-ahead budget in BYTES: the slice of the buffer pool that
  /// prefetched-but-unread blocks (plus the Grace pair streamer's
  /// ahead-of-probe spill reads) may occupy. They are first in line for
  /// eviction, so read-ahead never displaces blocks a query already
  /// touched. < 0 = auto (a quarter of the resolved pool capacity);
  /// 0 disables prefetch entirely (cold reads become synchronous again,
  /// the PR 8 behaviour). See docs/STORAGE.md §"Read-ahead".
  int64_t prefetch_budget_bytes = -1;
  /// Directory for the durable file-backed column store + catalog. Empty
  /// (the default) keeps base tables on the in-RAM SimulatedDisk;
  /// non-empty routes table blocks to
  /// `<data_path>/x100-data.blocks` (storage/file_block_device.h) and
  /// persists the catalog to `<data_path>/x100-catalog.bin`, so a
  /// Database reopened on the same path serves the same tables cold. The
  /// directory must exist — a configured-but-unusable data path fails
  /// Database construction loudly (see Database::open_status()).
  std::string data_path;
  /// Device bandwidth in bytes/sec (0 = infinite). Throttles the in-RAM
  /// SimulatedDisk and, when `data_path` is set, the file-backed device's
  /// reads too — a single shared IO channel, so benchmarks can model a
  /// cold medium regardless of the page cache.
  int64_t disk_bandwidth = 0;
};

/// Upper bound on radix partitioning: 2^6 = 64 partitions is enough to
/// keep any realistic pool busy while per-partition buffers stay coarse.
inline constexpr int kMaxRadixBits = 6;

/// The one radix routing function: partition = TOP `bits` bits of the
/// key hash. Join build and aggregation must agree bit-for-bit on
/// partition assignment, so both route through here (the bucket index
/// inside a partition uses the LOW bits — no aliasing).
inline uint64_t RadixPartitionOf(uint64_t hash, int bits) {
  return bits == 0 ? 0 : hash >> (64 - bits);
}

/// Resolves EngineConfig::radix_bits against the plan's pipeline width.
/// Auto (-1) sizes the partition count to ~2x the worker count so the
/// merge fan-out tolerates partition skew; serial plans never partition.
inline int EffectiveRadixBits(int configured, int parallelism) {
  if (configured >= 0) {
    return configured < kMaxRadixBits ? configured : kMaxRadixBits;
  }
  if (parallelism <= 1) return 0;
  int bits = 1;
  while ((1 << bits) < 2 * parallelism && bits < kMaxRadixBits) bits++;
  return bits;
}

/// Tiny-build cutoff for AUTO radix sizing: below this many estimated
/// build rows the ~2^radix_bits empty per-worker partition buffers cost
/// more than the single merge task they replace, so the planner keeps the
/// single-table path. Explicit radix_bits settings are never overridden.
inline constexpr int64_t kTinyBuildRows = 4096;

/// Spill floor: a pipeline breaker only goes out of core when its
/// spillable state exceeds this many bytes; anything smaller is
/// force-admitted as minimum working set instead. Without the floor, a
/// worker squeezed by OTHER operators' reservations degrades into
/// hundreds of micro-spills (serialize + write + reload + merge for a
/// few hundred bytes each) that free almost nothing.
inline constexpr int64_t kMinSpillBytes = 16 * 1024;

/// Applies the tiny-build cutoff to an already-resolved radix_bits.
/// `estimated_rows < 0` means the planner could not bound the build
/// cardinality (e.g. an aggregation feeds the build) — keep partitioning.
inline int RadixBitsForBuild(int effective_bits, int64_t estimated_rows) {
  if (estimated_rows >= 0 && estimated_rows < kTinyBuildRows) return 0;
  return effective_bits;
}

/// Dynamic radix re-sizing trigger: the drain re-plans its merge
/// partitioning when the OBSERVED build cardinality exceeds the planner's
/// scan-spine estimate by this factor (the estimate only sees base-table
/// spines — PDT-inserted rows, for one, are invisible to it).
inline constexpr int64_t kRadixResizeFactor = 8;

/// Radix bits sized from an observed cardinality: enough partitions that
/// each holds under ~kTinyBuildRows rows, capped at kMaxRadixBits. Used
/// by the drain-time re-size (the planner-side estimate proved wrong by
/// kRadixResizeFactor or more).
inline int RadixBitsForObserved(int64_t rows) {
  int bits = 0;
  while (bits < kMaxRadixBits && (rows >> bits) >= kTinyBuildRows) bits++;
  return bits;
}

/// The documented force-admit floor of out-of-core execution, beyond the
/// partition pair: once every spillable byte is on disk, the breakers
/// overcommit past memory_limit by at most
///  * one Grace partition pair at a time (the resident build partition +
///    one reloaded probe chunk — reported as mem(kb) on the query
///    profile's JoinProbePair entries; pairs are processed strictly
///    serially), plus
///  * per concurrently-draining worker, a GrowOrSpill remainder under the
///    kMinSpillBytes spill floor (with allocator slack, < 4x the floor).
/// Tests assert peak <= limit + max pair mem + this slack — the bound PR 4
/// could not state while the whole merged build table was force-charged.
inline int64_t SpillForceAdmitSlack(int workers) {
  return static_cast<int64_t>(workers + 2) * 4 * kMinSpillBytes;
}

}  // namespace x100

#endif  // X100_COMMON_CONFIG_H_
