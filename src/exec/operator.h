// Vectorized operator interface (pull-based, batch-at-a-time).
//
// Operators return pointers to internally-owned batches; a batch stays
// valid until the operator's next Next()/Close(). Every operator polls the
// cancellation token once per vector, which is what makes "proper query
// cancellation" (paper §Query cancellation) cheap and prompt.
//
// The public Open/Next/Close entry points are NON-virtual: they wrap the
// per-operator OpenImpl/NextImpl/CloseImpl with metric collection
// (batches, rows, wall time), flushed into the ExecContext's QueryProfile
// when the operator closes. Parents must call the public methods on their
// children so the whole tree is profiled.
#ifndef X100_EXEC_OPERATOR_H_
#define X100_EXEC_OPERATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/result.h"
#include "common/value.h"
#include "monitor/profile.h"
#include "vector/batch.h"

namespace x100 {

class EventLog;        // monitor/monitor.h
class TaskScheduler;   // common/task_scheduler.h
class TaskQuota;       // common/task_scheduler.h
class MemoryTracker;   // common/memory_tracker.h
class SpillDevice;     // storage/spill_device.h
class SpillRun;        // storage/spill_file.h
class BufferManager;   // storage/buffer_manager.h

/// Per-query execution context shared by all operators of a plan.
struct ExecContext {
  int vector_size = kDefaultVectorSize;
  /// Resolved SIMD dispatch level for this query's kernels. The default
  /// resolves kAuto (X100_SIMD env knob, then CPU detection) so
  /// directly-built plans in tests honor the knob; QueryExecutor
  /// overwrites it from EngineConfig::simd_level.
  SimdLevel simd = ResolveSimdLevel(SimdMode::kAuto);
  CancellationToken* cancel = nullptr;
  EventLog* events = nullptr;
  /// Pool the pipeline sinks' chain tasks run on; nullptr means
  /// TaskScheduler::Global().
  TaskScheduler* scheduler = nullptr;
  /// Per-query admission control: pipelines acquire task slots here
  /// before spawning (nullptr = unlimited). Owned by the query executor.
  TaskQuota* quota = nullptr;
  /// Per-query memory budget (child of the Database's process-wide
  /// tracker). nullptr = unaccounted execution (directly-built plans in
  /// tests); pipeline breakers then never spill.
  MemoryTracker* memory = nullptr;
  /// Device pipeline breakers spill radix partitions / sorted runs /
  /// Grace probe partitions to when a reservation fails — a view over the
  /// in-RAM SimulatedDisk by default, over a temp FileBlockDevice when the
  /// engine is configured with a spill_path. nullptr = spilling disabled:
  /// a failed reservation surfaces kResourceExhausted instead.
  SpillDevice* spill_device = nullptr;
  /// Buffer pool serving this query's table blocks. Operators that can
  /// overlap IO with compute (scan read-ahead, Grace pair prefetch) use
  /// it to issue background reads and to budget ahead-of-demand bytes;
  /// nullptr = no read-ahead (directly-built plans in tests keep exact,
  /// synchronous IO counts).
  BufferManager* buffers = nullptr;
  /// Running total of tuples produced by scans (load monitoring).
  std::atomic<int64_t> tuples_scanned{0};
  /// Block groups elided by MinMax pushdown across all scans.
  std::atomic<int64_t> groups_skipped{0};

  Status CheckCancel() const {
    return cancel ? cancel->Check() : Status::OK();
  }

  /// Thread-safe sink for closed operators' metrics (a sink's chains
  /// close on pool threads).
  void RecordOperator(OperatorProfile p) {
    std::lock_guard<std::mutex> lock(profile_mu);
    profile.operators.push_back(std::move(p));
  }
  /// Records a breaker's synthetic spill entry ("JoinBuildSpill",
  /// "AggSpill", ...): the rows, bytes and chunks written to `runs[0..n)`,
  /// or nothing when they hold no chunk.
  void RecordSpill(const char* op, const SpillRun* runs, size_t n);
  /// Snapshot with the scan counters folded in.
  QueryProfile TakeProfile() {
    std::lock_guard<std::mutex> lock(profile_mu);
    profile.tuples_scanned = tuples_scanned.load();
    profile.groups_skipped = groups_skipped.load();
    return profile;
  }

  std::mutex profile_mu;
  QueryProfile profile;
};

class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares for execution (allocates batches, opens children).
  Status Open(ExecContext* ctx);

  /// Produces the next batch; nullptr at end-of-stream. The batch is owned
  /// by the operator and valid until the next call.
  Result<Batch*> Next();

  /// Releases resources; idempotent, called on success, error and
  /// cancellation paths alike (RAII backstop in destructors). Flushes this
  /// operator's metrics into the context profile on first invocation.
  void Close();

  virtual const Schema& output_schema() const = 0;
  virtual std::string name() const = 0;

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<Batch*> NextImpl() = 0;
  virtual void CloseImpl() = 0;

 private:
  ExecContext* profile_ctx_ = nullptr;
  OperatorProfile prof_;
  bool prof_flushed_ = false;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Borrowed pointers to `ops`, in order.
std::vector<Operator*> Borrow(const std::vector<OperatorPtr>& ops);

/// The one drain loop under every pipeline sink. It first opens every
/// chain on the calling (the sink's) thread, in chain order, with a
/// cancellation check before each: a chain's Open runs its pipeline's
/// dependencies (a join probe builds its table), so they complete before
/// any task of this pipeline exists. Each chain is then pulled by one
/// RunPipelineTasks item (a lone chain on the calling thread) batch by
/// batch, with a cancellation check before each pull, and every batch is
/// handed to `consume(w, batch)` for chain w; `consume` returns false to
/// stop pulling early. The item closes the chain and, if it ended without
/// error, runs `finish(w)` (when given) on the same thread. Every chain is
/// closed on every path, an unopened one included. Returns the first
/// error.
Status DrainChains(
    ExecContext* ctx, const std::vector<Operator*>& chains,
    const std::function<Result<bool>(int, Batch&)>& consume,
    const std::function<Status(int)>& finish = nullptr);

/// A materialized result (rows of Values). Used by tests, examples and
/// the session layer.
struct QueryResult {
  Schema schema;
  std::vector<std::vector<Value>> rows;
  int64_t batches = 0;
  /// Per-operator execution profile (filled by QueryExecutor::Execute;
  /// empty for results not produced through it).
  QueryProfile profile;
};
/// Drains `chains` (the plan root's chains) into one result: each chain's
/// rows, in chain order. With `limit` >= 0 the chains stop pulling once
/// `limit` rows have arrived, and the result is cut to `limit` rows.
Result<QueryResult> CollectChains(const std::vector<Operator*>& chains,
                                  ExecContext* ctx, int64_t limit = -1);
/// The one-chain case of CollectChains.
Result<QueryResult> CollectRows(Operator* op, ExecContext* ctx);

/// Groups rows by radix partition in one stable pass, the routing step of
/// the join build and the partitioned aggregation fold. Add rows in input
/// order; each touched partition then holds its rows' positions (the
/// selection a RowBuffer append or a fold kernel reads) and one tag per
/// row (a key hash or a group id), still in input order. A key lives in
/// one partition, so each key's rows keep their relative order.
template <typename Pos, typename Tag>
class RadixGroups {
 public:
  struct Group {
    std::vector<Pos> pos;
    std::vector<Tag> tag;
  };

  explicit RadixGroups(size_t partitions = 0) : groups_(partitions) {}

  void Add(size_t p, Pos pos, Tag tag) {
    Group& g = groups_[p];
    if (g.pos.empty()) touched_.push_back(p);
    g.pos.push_back(pos);
    g.tag.push_back(tag);
  }
  /// The non-empty partitions, in order of first touch.
  const std::vector<size_t>& touched() const { return touched_; }
  const Group& group(size_t p) const { return groups_[p]; }
  /// Empties every group, keeping the capacity for the next vector.
  void Clear() {
    for (size_t p : touched_) {
      groups_[p].pos.clear();
      groups_[p].tag.clear();
    }
    touched_.clear();
  }

 private:
  std::vector<Group> groups_;
  std::vector<size_t> touched_;
};

}  // namespace x100

#endif  // X100_EXEC_OPERATOR_H_
