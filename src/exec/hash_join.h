// Hash join — build/probe with the join flavors whose SQL semantics the
// paper calls out (§"NULL intricacies"): "While most operators are NULL
// oblivious, one of the exceptions were join operators. Here, intricacies
// of the SQL semantics of anti-joins added significant complexity."
//
// Flavors:
//  * kInner, kLeftOuter, kSemi
//  * kAnti           — NOT EXISTS semantics: probe rows with NULL keys
//                      vacuously survive (NULL = x is unknown, EXISTS false)
//  * kAntiNullAware  — NOT IN semantics: a NULL anywhere poisons the
//                      predicate: any NULL build key -> empty result; a
//                      NULL probe key -> row dropped.
//
// Pipeline decomposition (docs/EXECUTION.md): the build side is its own
// pipeline, run by the first probe clone's Open. A sink opens its chains
// on one thread, in chain order, before it pulls any, so the build
// completes before any task of the probe pipeline exists. JoinBuildState
// owns N cloned build chains, drains them with scheduler tasks into
// per-worker, per-partition HashTables — rows are radix-partitioned by
// the TOP `radix_bits` bits of the key hash as they arrive — then
// merges + hash-indexes each of the 2^radix_bits partitions with an
// independent scheduler task (no cross-partition synchronization;
// radix_bits = 0 degenerates to the single-table path).
// After the merge fan-out's barrier the table is immutable and any
// number of JoinProbeOps — one per probe worker chain, cloned by the
// physical planner — read it concurrently; the last of them to reach
// end-of-stream frees it. A serial join is one build chain and one
// JoinProbeOp.
//
// Partition-wise (Grace) probe, docs/EXECUTION.md §"Partition-wise
// probe": a merge task whose partition does not FIT the memory budget
// leaves that partition on disk ("deferred") instead of force-charging it
// resident. Probe rows hashing into a deferred partition are not probed;
// each prober routes them — same RadixPartitionOf bits, so build and
// probe agree bit-for-bit — into one probe-side SpillRun per partition
// under its own memory reservation. When the LAST registered prober
// exhausts its probe child it takes over the partition-pair phase: one
// deferred partition at a time, it reloads the build side (chunks +
// index, force-charged as the pair's minimum working set), streams every
// prober's probe chunks back through the ordinary probe loop, and emits
// the joined rows up its own chain — sinks union/merge worker output
// anyway, so which chain carries the deferred rows is as immaterial as
// which worker steals a morsel.
// Peak memory is thereby bounded by ONE partition pair instead of the
// whole build table.
#ifndef X100_EXEC_HASH_JOIN_H_
#define X100_EXEC_HASH_JOIN_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/memory_tracker.h"
#include "common/task_scheduler.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "storage/spill_file.h"

namespace x100 {

enum class JoinType : uint8_t {
  kInner,
  kLeftOuter,
  kSemi,
  kAnti,
  kAntiNullAware,
};

const char* JoinTypeName(JoinType t);

/// The shared, immutable-after-build side of a hash join, radix-
/// partitioned by the top `radix_bits` bits of the key hash. Built
/// exactly once per query, from the first probe clone's Open, with the
/// query's whole task grant: no task of the probe pipeline holds a slot
/// yet. Records one "JoinBuildMerge" entry per partition merge task in the
/// query profile so merge parallelism — and partition skew — is visible
/// per-operator (replacing the old serial "JoinBuild(N)" entry).
class JoinBuildState {
 public:
  /// One radix partition of the built table: rows whose key hash has the
  /// same top `radix_bits` bits, in one indexed HashTable.
  struct Partition {
    /// The resident rows and their index. A deferred partition holds an
    /// empty indexed table, so a stray lookup misses instead of faulting.
    std::unique_ptr<HashTable> table;
    /// Charge for the merged, probe-resident partition: the drained
    /// partials' charges, adopted before the merge, plus what admission
    /// RESERVED (not forced) for the index and the spilled chunks. A
    /// partition that does not fit is deferred to the partition-pair
    /// phase instead of overcommitting. Released with the table by the
    /// last prober to finish (or when the pair completes, or when the
    /// build state is destroyed).
    MemoryReservation mem;
    /// Grace probe: the build side of this partition stayed on disk; the
    /// probe phase routes matching rows to probe-side spill and a later
    /// partition-pair task joins the two.
    bool deferred = false;
  };

  /// `radix_bits` = 0 keeps the single-table path (one partition, one
  /// merge task) — the fallback for serial plans and tiny builds.
  /// `estimated_rows` (>= 0) is the planner's scan-spine bound on the
  /// build cardinality; with `allow_radix_resize` (AUTO radix sizing),
  /// a drain observing >= kRadixResizeFactor x the estimate re-sizes the
  /// merge fan-out to RadixBitsForObserved — the tiny-build skip only
  /// sees base-table spines, and a mispredicted build (PDT-inserted
  /// rows, say) must not collapse onto one merge task / one Grace
  /// partition.
  JoinBuildState(std::vector<OperatorPtr> chains, std::vector<int> build_keys,
                 int radix_bits = 0, int64_t estimated_rows = -1,
                 bool allow_radix_resize = false);

  /// Runs the build pipeline on the first call and returns its status on
  /// every call: N scheduler tasks drain the chains into per-worker,
  /// per-partition buffers, then 2^radix_bits merge tasks concatenate and
  /// hash-index one partition each. Every JoinProbeOp calls it from Open.
  /// The probe clones of one join are chains of one sink, which opens
  /// them on one thread (DrainChains), so the calls never race.
  Status EnsureBuilt(ExecContext* ctx);

  const Schema& schema() const { return build_schema_; }

  // Probe-side accessors; valid only after EnsureBuilt returned OK.
  int radix_bits() const { return radix_bits_; }
  int num_partitions() const { return 1 << radix_bits_; }
  size_t PartitionOf(uint64_t hash) const {
    return RadixPartitionOf(hash, radix_bits_);
  }
  /// The table of the partition `hash` routes to.
  const HashTable& table(uint64_t hash) const {
    return *partitions_[PartitionOf(hash)].table;
  }
  bool partition_deferred(size_t p) const { return partitions_[p].deferred; }
  bool any_deferred() const {
    return any_deferred_.load(std::memory_order_relaxed);
  }
  bool has_null_key() const { return has_null_key_; }

  // --- Partition-wise (Grace) probe protocol -------------------------------
  //
  // Every probing operator registers at CONSTRUCTION time (all probe
  // clones of a plan exist before any of them drains), finishes exactly
  // once when its probe child hits end-of-stream, and the LAST finisher
  // frees every resident partition, then runs the partition-pair phase
  // single-threaded — by then every other prober has returned
  // end-of-stream to its sink, so the deferred partitions have exactly
  // one owner and pairs are processed one at a time (the documented
  // memory floor). A prober that never reaches end-of-stream (a LIMIT
  // above it, a cancel) leaves the table to the state's destruction.

  void RegisterProber() {
    probers_registered_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Hands a finished prober's probe-side runs (one per partition, none
  /// when nothing was deferred) to the shared state. Returns true iff
  /// this was the last registered prober: the resident partitions and
  /// their charges are then freed (no join reads the build side after
  /// its probe ends), and the caller owns the partition-pair phase.
  bool FinishProber(std::vector<SpillRun> probe_runs);

  /// The deferred partitions that received probe rows, in partition
  /// order. Call only as the last finisher.
  std::vector<int> DeferredPairList() const;

  /// Loads deferred partition `p` resident: merges its build run's
  /// chunks, indexes them, and force-charges the result as the pair's
  /// minimum working set. Returns the resident bytes charged. Call only
  /// as the last finisher, one partition at a time. `preloaded`, when
  /// non-null and sized like build_run(p)'s chunks, supplies the chunk
  /// blobs already read ahead (the pair prefetcher) — they are consumed
  /// in chunk order instead of re-reading the spill device.
  Result<int64_t> LoadDeferredPartition(
      int p, ExecContext* ctx,
      std::vector<std::vector<uint8_t>>* preloaded = nullptr);

  /// This pair's probe run (every prober's, concatenated). Valid
  /// between LoadDeferredPartition(p) and ReleaseDeferredPartition(p).
  const SpillRun& probe_run(int p) const { return probe_spilled_[p]; }

  /// Partition `p`'s build run (read-ahead peeks at the next pair's
  /// chunks while the current pair probes; by then the last finisher is
  /// the only thread left touching spill state).
  const SpillRun& build_run(int p) const { return spilled_[p]; }

  /// Drops partition `p`'s resident build side, its reservation and its
  /// build + probe runs — the pair is done, its disk space and memory
  /// return before the next pair loads.
  void ReleaseDeferredPartition(int p);

 private:
  Status Build(ExecContext* ctx);
  std::unique_ptr<HashTable> NewTable() const {
    return std::make_unique<HashTable>(build_schema_, build_keys_);
  }
  /// Empties a partition (no rows, an empty index) and releases its
  /// charge.
  void ResetPartition(Partition* part) const;

  std::vector<OperatorPtr> chains_;
  std::vector<int> build_keys_;
  Schema build_schema_;
  int radix_bits_;
  const int64_t estimated_rows_;
  const bool allow_radix_resize_;

  bool built_ = false;  // EnsureBuilt ran Build, whose status is below
  Status build_status_;

  std::vector<Partition> partitions_;  // 2^radix_bits, built in parallel
  bool has_null_key_ = false;  // poison for NOT IN semantics
  /// Set by merge tasks (concurrently, hence atomic), read by probes.
  std::atomic<bool> any_deferred_{false};

  /// Out-of-core build: one run per partition of rows on disk (HashTable
  /// chunks: rows + hashes). Drain workers spill into runs of their own,
  /// spliced here in worker order after the drain barrier; the merge task
  /// reloads the run before indexing (its rows and bytes size the up-front
  /// reservation), or appends its resident partials to it when the
  /// partition is deferred.
  std::vector<SpillRun> spilled_;

  /// Grace probe hand-off (guarded by probe_mu_): one probe-side run per
  /// partition, deposited by finishing probers; the counters implement
  /// the last-finisher election.
  std::mutex probe_mu_;
  std::vector<SpillRun> probe_spilled_;
  std::atomic<int> probers_registered_{0};
  int probers_finished_ = 0;
};

using JoinBuildStatePtr = std::shared_ptr<JoinBuildState>;

/// Probe machinery against a built JoinBuildState: vectorized key hashing,
/// chain walking with output-overflow resume, the per-flavor emit rules,
/// and the Grace probe-side spill + partition-pair streaming. One instance
/// per probing operator (it owns the output batch and resume cursor), so
/// cloned probe pipelines never share mutable state.
class JoinProber {
 public:
  void Init(JoinBuildState* state, std::vector<int> probe_keys,
            JoinType type, const Schema* probe_schema,
            const Schema* out_schema);
  Status Open(ExecContext* ctx);
  /// Pulls probe batches from `child` and emits joined output; nullptr at
  /// end-of-stream, which it reports to the build state (FinishProber).
  /// When the build deferred partitions, rows routed to them surface
  /// later: the last prober to finish streams the deferred partition
  /// pairs before reporting end-of-stream.
  Result<Batch*> Next(Operator* child, ExecContext* ctx);
  /// Flushes Grace probe bookkeeping (a "JoinProbeSpill" profile entry)
  /// and releases any pair working set. Called from the owning
  /// operator's Close.
  void Close(ExecContext* ctx);

 private:
  bool ProbeKeyHasNull(int i) const;
  /// Records output row `*filled`: probe row `i` joined with row `row` of
  /// `table` (nullptr: the build columns are NULL, or not emitted).
  void Emit(int* filled, int i, const HashTable* table, int64_t row) {
    out_probe_[*filled] = i;
    out_table_[*filled] = table;
    out_row_[*filled] = row;
    (*filled)++;
  }
  /// Materializes output rows [begin, end), recorded from the current
  /// probe batch, a column at a time.
  void Materialize(int begin, int end);

  // Grace probe-side machinery (see the header comment).
  /// Routes the current probe batch's rows whose partition stayed on disk
  /// to that partition's deferred rows, one append per touched partition,
  /// and drops them from the probe selection (probe_sel_, probe_n_).
  void DeferRows();
  /// Covers the deferred rows with defer_mem_, spilling partitions to
  /// their runs by GrowOrSpill's victim rule — or, at the end of the
  /// probe input (`flush`), every partition, releasing the charge.
  Status SpillDeferred(ExecContext* ctx, bool flush);
  /// Records this prober's "JoinProbeSpill" entry from its runs.
  void RecordProbeSpill(ExecContext* ctx) const;
  /// The probe feed: the child's stream, then — for the last finisher —
  /// synthetic batches materialized from each deferred pair's probe
  /// chunks.
  Result<Batch*> NextProbeBatch(Operator* child, ExecContext* ctx);
  Status StartPair(ExecContext* ctx);
  Status FinishPair(ExecContext* ctx);
  Result<bool> NextPairChunk(ExecContext* ctx);  // false: pair exhausted
  /// Overlap: after pair_idx_'s build is resident, read the NEXT pair's
  /// build chunks + first probe chunk on a background task so its IO
  /// hides behind this pair's probing. The bytes are charged against the
  /// buffer pool's read-ahead budget (ctx->buffers) — NOT the query
  /// memory limit, whose documented floor is one resident pair; when the
  /// charge is refused the next pair simply loads synchronously.
  void MaybePrefetchNextPair(ExecContext* ctx);
  /// Cancels + joins any in-flight pair prefetch and returns its budget
  /// charge. Safe to call at any point (Close, error unwind).
  void DropPairPrefetch();

  JoinBuildState* state_ = nullptr;
  std::vector<int> probe_keys_;
  JoinType type_ = JoinType::kInner;
  const Schema* probe_schema_ = nullptr;
  const Schema* out_schema_ = nullptr;

  std::unique_ptr<Batch> out_;
  // Probe resume state (a probe batch can overflow the output vector).
  /// Resolved dispatch level (batched hash kernels) and the derived
  /// prefetch gate — kScalar keeps the exact reference memory behavior.
  SimdLevel simd_ = SimdLevel::kScalar;
  bool prefetch_ = false;
  Batch* probe_batch_ = nullptr;
  std::vector<const Vector*> probe_cols_;  // probe_batch_'s columns
  std::vector<const Vector*> probe_key_vecs_;  // its key columns
  // The rows of probe_batch_ to probe: its selection, minus deferred rows.
  int probe_n_ = 0;
  const sel_t* probe_sel_ = nullptr;
  std::vector<sel_t> live_sel_;
  // Per output row: probe position, build table and row (Emit).
  std::vector<sel_t> out_probe_;
  std::vector<const HashTable*> out_table_;
  std::vector<int64_t> out_row_;
  int probe_pos_ = 0;        // index into the probe batch's live rows
  int64_t chain_pos_ = -1;   // current chain node (inner/outer continue)
  bool row_matched_ = false; // left outer bookkeeping
  std::vector<uint64_t> probe_hashes_;
  bool eos_ = false;

  // Grace probe-side state: per-partition buffers of rows routed away
  // from deferred partitions, spilled to per-partition runs under
  // defer_mem_.
  std::vector<std::unique_ptr<RowBuffer>> defer_rows_;
  std::vector<SpillRun> defer_runs_;
  RadixGroups<sel_t, uint64_t> defer_groups_;
  MemoryReservation defer_mem_;
  bool finished_ = false;    // FinishProber already ran

  // Partition-pair streaming (last finisher only).
  bool pair_mode_ = false;
  std::vector<int> pair_parts_;
  size_t pair_idx_ = 0;
  size_t pair_chunk_ = 0;
  int64_t pair_row_ = 0;
  std::unique_ptr<RowBuffer> pair_probe_rows_;  // current reloaded chunk
  std::unique_ptr<Batch> pair_batch_;
  MemoryReservation pair_mem_;
  int64_t pair_build_bytes_ = 0;
  int64_t pair_mem_hwm_ = 0;
  int64_t pair_rows_ = 0;
  int64_t pair_t0_ = 0;

  /// One in-flight read-ahead of a deferred pair's run chunks. The
  /// TaskGroup owns the background read; the blobs are adopted by the
  /// next StartPair (build) and its first NextPairChunk (probe).
  struct PairPrefetch {
    int part = -1;
    std::unique_ptr<TaskGroup> tasks;
    std::vector<std::vector<uint8_t>> build_blobs;
    std::vector<uint8_t> probe_blob;
    bool has_probe_blob = false;
    int64_t charged_bytes = 0;
    BufferManager* buffers = nullptr;  // budget to refund on release
  };
  PairPrefetch next_pair_;
  std::vector<uint8_t> adopted_probe_blob_;  // chunk 0, read ahead
  bool has_adopted_probe_blob_ = false;
  int64_t pair_prefetch_issued_ = 0;
  int64_t pair_prefetch_adopted_ = 0;
};

/// Output schema of a join: probe columns, then (inner/left-outer) build
/// columns — nullable for the padded left-outer side.
Schema JoinOutputSchema(const Schema& probe, const Schema& build,
                        JoinType type);

/// One probe pipeline worker: probes the shared build table with its own
/// cloned source chain. The planner creates N of these per parallel join,
/// embedded in the worker chains of the pipeline's sink (aggregation,
/// sort, or the root drain).
class JoinProbeOp : public Operator {
 public:
  JoinProbeOp(OperatorPtr probe, JoinBuildStatePtr state,
              std::vector<int> probe_keys, JoinType type);
  ~JoinProbeOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override { return out_schema_; }
  std::string name() const override {
    return std::string("JoinProbe[") + JoinTypeName(type_) + "]";
  }

 private:
  OperatorPtr probe_child_;
  JoinBuildStatePtr state_;
  JoinType type_;
  Schema out_schema_;
  ExecContext* ctx_ = nullptr;
  JoinProber prober_;
};

}  // namespace x100

#endif  // X100_EXEC_HASH_JOIN_H_
