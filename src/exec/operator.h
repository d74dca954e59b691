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
#include <memory>
#include <mutex>
#include <string>

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
  /// Pool parallel operators (pipelines, XchgOp) schedule their tasks on;
  /// nullptr means TaskScheduler::Global().
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

  /// Thread-safe sink for closed operators' metrics (exchange producers
  /// close on pool threads).
  void RecordOperator(OperatorProfile p) {
    std::lock_guard<std::mutex> lock(profile_mu);
    profile.operators.push_back(std::move(p));
  }
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

  /// Names the operator that a pipeline task's chain charges its Open/Next
  /// time to, for the task's lifetime on the running thread. A breaker
  /// draining its lone input chain passes itself: the chain then counts
  /// as child time exactly as if the breaker pulled it from its own Next,
  /// whichever thread runs the task (one chain runs on one thread at a
  /// time, and the task barrier orders its writes before the breaker's
  /// profile is read). nullptr keeps the thread's current caller: a
  /// breaker over several chains passes it, so only a chain its waiting
  /// thread runs inline counts as its child time.
  class ChainProfileScope {
   public:
    explicit ChainProfileScope(Operator* sink);
    ~ChainProfileScope();
    ChainProfileScope(const ChainProfileScope&) = delete;
    ChainProfileScope& operator=(const ChainProfileScope&) = delete;

   private:
    Operator* saved_;
  };

 private:
  ExecContext* profile_ctx_ = nullptr;
  OperatorProfile prof_;
  bool prof_flushed_ = false;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` into a materialized result (rows of Values). Used by tests,
/// examples and the session layer.
struct QueryResult {
  Schema schema;
  std::vector<std::vector<Value>> rows;
  int64_t batches = 0;
  /// Per-operator execution profile (filled by QueryExecutor::Execute;
  /// empty for results not produced through it).
  QueryProfile profile;
};
Result<QueryResult> CollectRows(Operator* op, ExecContext* ctx);

}  // namespace x100

#endif  // X100_EXEC_OPERATOR_H_
