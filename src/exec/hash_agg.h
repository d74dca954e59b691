// Hash group-by aggregation: the pipeline sink for every Aggr node.
//
// The machinery is split so the pipeline executor can reuse it:
//  * GroupTable      — group store (key rows in a HashTable + accumulator
//                      arrays) with an aggregate-aware MergeFrom, the
//                      barrier operation of parallel aggregation.
//  * AggWorkerState  — one worker chain's thread-local state: compiled
//                      key/aggregate programs + private GroupTables.
//  * HashAggOp       — N source chains (N >= 1) drained (DrainChains)
//                      into per-worker GroupTables, merged at the
//                      pipeline barrier (Leis-style morsel parallelism:
//                      no partial/final plan rewrite, no exchange). One
//                      chain is the serial case: the barrier merge then
//                      only folds spilled chunks back into worker 0's
//                      table. With radix_bits > 0 each worker keeps one
//                      GroupTable per radix partition (routed by the top
//                      bits of the key hash), and the barrier merge runs
//                      as 2^radix_bits independent scheduler tasks — one
//                      per partition — instead of one serial fold.
//
// Group ids are resolved for a whole vector, then aggregate update kernels
// fold the vector into accumulator arrays (the X100 aggr_* primitive
// pattern).
#ifndef X100_EXEC_HASH_AGG_H_
#define X100_EXEC_HASH_AGG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/expression.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/select_project.h"
#include "primitives/agg_kernels.h"
#include "storage/spill_file.h"
#include "vector/row_buffer.h"

namespace x100 {

struct AggItem {
  AggKind kind;
  /// Input expression (ignored for COUNT(*): nullptr).
  ExprPtr input;
  std::string name;
};

/// Group store: key rows in a HashTable (group id = row id) + one
/// accumulator set per aggregate. Single-writer; parallel aggregation
/// gives each worker its own table and merges them at the barrier.
class GroupTable {
 public:
  /// Accumulators for one aggregate: the per-group count of non-NULL
  /// inputs folded so far, and only the running values its fold writes.
  /// COUNT keeps `count` alone; SUM and AVG over f64 keep `f64` too;
  /// every other (kind, input type) keeps all three arrays, because its
  /// kernel writes both values (an integer SUM or AVG adds into an f64
  /// shadow, MIN and MAX store both). An array it does not keep stays
  /// empty, in memory and in the spill format.
  struct Accum {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int64_t> count;
    TypeId in_type = TypeId::kI64;
    bool has_i64 = true;
    bool has_f64 = true;
  };

  /// `kinds`/`in_types`: one entry per aggregate (merge semantics).
  GroupTable(const Schema& key_schema, std::vector<AggKind> kinds,
             std::vector<TypeId> in_types);

  /// Resolves the group id for key values (`key_vecs`, row `row`, with
  /// precomputed `hash`), appending a new group if unseen.
  Result<uint32_t> FindOrAdd(const std::vector<const Vector*>& key_vecs,
                             int row, uint64_t hash);

  /// Hints the bucket head for `hash` into cache. The whole vector's
  /// hashes are known before the FindOrAdd loop runs, so the lookup for
  /// row j can overlap the memory latency of row j + kPrefetchDistance.
  void PrefetchBucket(uint64_t hash) const { keys_.PrefetchBucket(hash); }

  /// Materializes the single group of a keyless aggregation so an empty
  /// input still yields one output row.
  void EnsureGlobalGroup();

  /// The parallel-aggregation barrier: folds every group of `src` into
  /// this table, combining accumulators by aggregate kind (SUM/COUNT/AVG
  /// add, MIN/MAX compare). `src` must share this table's construction.
  Status MergeFrom(const GroupTable& src);

  int64_t num_groups() const { return keys_.size(); }
  const RowBuffer& keys() const { return keys_.rows(); }
  Accum& accum(size_t a) { return accums_[a]; }
  const Accum& accum(size_t a) const { return accums_[a]; }

  /// Footprint for memory accounting: key rows, index, accumulators.
  size_t MemoryBytes() const;

  /// Appends the spill serialization of groups [begin, end) to `out`:
  /// their key hashes, each accumulator's slice of the arrays it keeps,
  /// then their key rows.
  /// kinds/in_types are NOT serialized — the reloader constructs the
  /// table and merges it back via MergeFrom.
  void Serialize(int64_t begin, int64_t end, std::vector<uint8_t>* out) const;
  /// Rebuilds a spilled chunk of groups, without a bucket index: a
  /// reloaded chunk is only ever the `src` of a MergeFrom, which reads
  /// its rows and hashes. kIoError when the blob is corrupt.
  static Result<std::unique_ptr<GroupTable>> Deserialize(
      const Schema& key_schema, std::vector<AggKind> kinds,
      std::vector<TypeId> in_types, const uint8_t* data, size_t size);

 private:
  GroupTable(const Schema& key_schema, std::vector<AggKind> kinds,
             std::vector<TypeId> in_types, bool indexed);
  /// Gives the key row just appended its accumulators.
  Result<uint32_t> FinishNewGroup();

  std::vector<AggKind> kinds_;
  HashTable keys_;
  std::vector<Accum> accums_;
};

/// One aggregation worker: the thread-local state that drains one source
/// chain (compiled programs, scratch, private GroupTables — one per radix
/// partition). HashAggOp runs one per chain and folds the chain's batches
/// into it; the 2^radix_bits partitions merge independently at the
/// barrier.
class AggWorkerState {
 public:
  /// Compiles programs and allocates the private tables. `radix_bits` is
  /// forced to 0 for keyless aggregation (a single global group cannot
  /// be partitioned).
  Status Prepare(const std::vector<ExprPtr>& bound_keys,
                 const std::vector<ExprPtr>& bound_aggs,
                 const Schema& key_schema,
                 const std::vector<AggItem>& aggs,
                 const std::vector<TypeId>& in_types, int vector_size,
                 int radix_bits = 0,
                 SimdLevel simd = SimdLevel::kScalar);

  /// Folds one batch of the chain into the private tables, routing each
  /// row to the partition named by the top radix_bits of its key hash.
  Status Consume(Batch& in, ExecContext* ctx,
                 const std::vector<AggItem>& aggs);

  int num_partitions() const { return 1 << radix_bits_; }

  /// Moves the `partition` table out — the barrier merge takes every
  /// worker's tables, worker 0's as its base — and hands the table's
  /// share of this worker's reservation to `charge` (an Init'ed
  /// reservation; a worker that never charged hands over nothing), so
  /// the tracker never counts the table twice.
  std::unique_ptr<GroupTable> TakeTable(int partition,
                                        MemoryReservation* charge);

  /// Reloads every chunk this worker spilled for `partition` and folds it
  /// into `dst` via MergeFrom — the merge-on-reload half of out-of-core
  /// aggregation, run by the partition's merge task at the barrier.
  Status MergeSpilled(int partition, GroupTable* dst,
                      CancellationToken* cancel) const;

  /// Records an "AggSpill" profile entry when this worker went out of
  /// core (rows = groups spilled).
  void RecordSpillProfile(ExecContext* ctx) const;

 private:
  /// Grows the reservation to the tables' footprint; on failure spills
  /// partition tables to their runs (GrowOrSpill's victim rule) or
  /// surfaces kResourceExhausted when ctx has no spill device.
  Status EnsureReservation(ExecContext* ctx);

  std::vector<std::unique_ptr<ExprProgram>> key_progs_;
  std::vector<std::unique_ptr<ExprProgram>> agg_progs_;  // null: COUNT(*)
  int radix_bits_ = 0;
  /// Resolved dispatch level: picks hash/agg kernel variants and gates
  /// the group-lookup prefetch window (kScalar = reference behavior).
  SimdLevel simd_ = SimdLevel::kScalar;
  std::vector<std::unique_ptr<GroupTable>> tables_;  // one per partition
  std::vector<uint32_t> gids_;  // group per live row (radix_bits == 0)
  RadixGroups<sel_t, uint32_t> groups_;  // rows and groups per partition
  std::vector<uint64_t> hashes_;

  // Spill construction state (what a fresh table needs) + results.
  Schema key_schema_;
  std::vector<AggKind> kinds_;
  std::vector<TypeId> in_types_;
  MemoryReservation reserv_;
  std::vector<SpillRun> spilled_;  // one per partition
};

/// HashAggOp's binding: resolves group-by and aggregate expressions
/// against the input schema and derives the key and output schemas.
struct AggBinding {
  Status Bind(const Schema& in, const std::vector<ProjectItem>& group_by,
              const std::vector<AggItem>& aggs);

  Schema key_schema;
  Schema out_schema;
  std::vector<ExprPtr> bound_keys;
  std::vector<ExprPtr> bound_aggs;  // nullptr for COUNT(*)
  std::vector<TypeId> in_types;
};

/// The sink of a scan→[probe→]aggregate pipeline. Each of the N source
/// chains (clones sharing morsel sources and join build states underneath,
/// or one chain over a non-clonable input) is drained (DrainChains) into
/// per-worker GroupTables (one per radix partition); at the TaskGroup
/// barrier each partition is merged by an independent scheduler task
/// (radix_bits = 0: one table, one merge task), then groups stream out
/// partition by partition.
class HashAggOp : public Operator {
 public:
  /// `group_by`: expressions evaluated as grouping keys (usually column
  /// refs); their names become output columns, followed by the aggregates.
  HashAggOp(std::vector<OperatorPtr> chains,
            std::vector<ProjectItem> group_by, std::vector<AggItem> aggs,
            int radix_bits = 0);
  ~HashAggOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override {
    return binding_.out_schema;
  }
  std::string name() const override {
    return "HashAgg(" + std::to_string(chains_.size()) + ")";
  }

 private:
  /// Runs the pipeline: spawn tasks (bounded by the query's TaskQuota),
  /// barrier, then a per-partition merge fan-out into `final_`.
  Status Consume();

  std::vector<OperatorPtr> chains_;
  std::vector<ProjectItem> group_items_;
  std::vector<AggItem> agg_items_;
  int radix_bits_;
  AggBinding binding_;
  Status init_status_;
  ExecContext* ctx_ = nullptr;

  std::vector<std::unique_ptr<AggWorkerState>> workers_;
  std::vector<std::unique_ptr<GroupTable>> final_;  // one per partition
  /// Charges for the merged final tables (worker 0's, force-grown after
  /// each fold: they must be resident to emit; the drain phase is what
  /// spilling bounds). Each is freed with its table once emitted.
  std::vector<MemoryReservation> final_mem_;
  bool consumed_ = false;
  std::unique_ptr<Batch> out_;
  int emit_part_ = 0;
  int64_t emit_pos_ = 0;
};

}  // namespace x100

#endif  // X100_EXEC_HASH_AGG_H_
