// TaskScheduler: a process-wide work-stealing thread pool, plus TaskGroup
// for structured fork/join with error and cancellation propagation.
//
// Motivation (paper §"Multi-core", §"When more cores hurts"): the seed's
// Volcano Xchg operators spawned one std::thread per producer, so every
// concurrent parallel query multiplied the thread count and oversubscribed
// the machine. All parallel work now runs on ONE shared pool sized to the
// hardware (morsel-driven scheduling a la Leis et al.): queries enqueue
// tasks, workers pull them, and an idle worker steals from a busy one, so
// skew in one pipeline no longer strands cores.
//
// Design:
//  * One deque per worker. Submissions are distributed round-robin;
//    a worker prefers its own deque (FIFO) and steals from the longest
//    other deque when empty.
//  * TaskGroup tracks a batch of tasks spawned together. The first non-OK
//    status cancels the remaining tasks of the group (not-yet-started
//    tasks are skipped, running ones observe IsCancelled()), and Wait()
//    returns that first error. An external CancellationToken chains in:
//    cancelling the query cancels every group that references the token.
//  * Wait() *helps*: while blocked it executes queued tasks OF ITS OWN
//    GROUP on the calling thread, so a 1-worker (or saturated) pool
//    cannot deadlock a joiner. Helping is deliberately restricted to the
//    group's tasks: an arbitrary task inlined here may block on something
//    (a barrier, a lock) owned by a frame suspended beneath this Wait on
//    the same thread — a self-deadlock no timeout can resolve.
//    Structured concurrency: a group only ever runs down its own
//    dependency subtree.
//  * Pipeline dependencies are expressed as barriers: a pipeline spawns
//    its morsel tasks into one TaskGroup and Wait()s before the dependent
//    pipeline starts. A pipeline's dependencies run when its chains are
//    opened, on the sink's thread, before any of its tasks exists (a
//    join probe's Open runs the build pipeline). See docs/EXECUTION.md.
//  * TaskQuota provides per-query admission control: each query's
//    pipelines acquire task slots from the query's quota before spawning,
//    so one query cannot flood the shared pool and starve its neighbours
//    ("when more cores hurts").
#ifndef X100_COMMON_TASK_SCHEDULER_H_
#define X100_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"

namespace x100 {

class TaskGroup;

class TaskScheduler {
 public:
  /// num_workers == 0 uses std::thread::hardware_concurrency().
  explicit TaskScheduler(int num_workers = 0);
  ~TaskScheduler();  // drains queued tasks, then joins workers

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// The shared process-wide pool (sized to the hardware). Constructed on
  /// first use; queries without an explicit pool run here.
  static TaskScheduler* Global();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Fire-and-forget; prefer TaskGroup for joinable work. `tag` (owned by
  /// the submitter: a TaskGroup tags its tasks with itself) lets
  /// RunOneTask filter for a group's own tasks.
  void Submit(std::function<void()> fn, const void* tag = nullptr);

  /// Runs one queued task submitted under `tag` on the calling thread, if
  /// any is ready. TaskGroup::Wait uses this so a barrier never
  /// inline-executes unrelated work that may depend on the waiting frame.
  bool RunOneTask(const void* tag);

  // Monitoring counters.
  int64_t tasks_run() const { return tasks_run_.load(); }
  int64_t tasks_stolen() const { return tasks_stolen_.load(); }
  /// Tasks submitted but not yet picked up, summed across all deques —
  /// the pool-pressure signal the AdaptiveQuotaController samples on
  /// every quota acquisition (common/adaptive_quota.h). Kept as its own
  /// atomic so reading it never touches the scheduler lock.
  int64_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    const void* tag = nullptr;
  };

  void WorkerLoop(int id);
  /// Pops a task, preferring deque `home`; steals from the longest other
  /// deque. Returns false if every deque is empty. `mu_` must be held.
  bool PopTaskLocked(int home, std::function<void()>* out, bool* stolen);
  /// Pops the oldest task carrying `tag`, if any. `mu_` must be held.
  bool PopTaggedTaskLocked(const void* tag, std::function<void()>* out);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::deque<Task>> queues_;  // one per worker
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::atomic<uint64_t> next_queue_{0};  // round-robin submission cursor
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> tasks_stolen_{0};
  std::atomic<int64_t> queued_{0};  // submitted, not yet popped
};

/// Per-query admission control: a budget of concurrently-running pipeline
/// tasks. Pipelines ask for as many slots as they have worker chains and
/// are granted possibly fewer; a grant is never zero, so a query always
/// makes progress (it degrades toward serial execution instead of
/// queueing behind itself). Thread-safe; slots are returned at the
/// pipeline's barrier.
///
/// The limit is dynamic: the AdaptiveQuotaController (common/
/// adaptive_quota.h) retargets each active query's budget via set_limit()
/// as queries come and go. A shrink never revokes in-flight grants — it
/// only governs subsequent Acquires — and usage is tracked even while
/// unlimited, so a limit change between Acquire and Release can never
/// underflow the slot count.
class TaskQuota {
 public:
  /// limit <= 0 means unlimited.
  explicit TaskQuota(int limit) : limit_(limit) {}

  /// Optional hook run at the top of every Acquire — the quota controller
  /// samples pool pressure here, so rebalancing happens exactly when a
  /// query is about to spawn tasks. Set before the quota is shared across
  /// threads (not synchronized against concurrent Acquire).
  void set_observer(std::function<void()> fn) { observer_ = std::move(fn); }

  /// Grants between 1 and `want` slots (never blocks, never zero).
  int Acquire(int want) {
    if (observer_) observer_();
    if (want < 1) want = 1;
    int used = used_.load(std::memory_order_relaxed);
    while (true) {
      const int limit = limit_.load(std::memory_order_relaxed);
      int grant = want;
      if (limit > 0) {
        const int room = limit - used;
        grant = room < 1 ? 1 : (room < want ? room : want);
      }
      if (used_.compare_exchange_weak(used, used + grant,
                                      std::memory_order_acq_rel)) {
        return grant;
      }
    }
  }

  void Release(int n) { used_.fetch_sub(n, std::memory_order_acq_rel); }

  /// Retargets the budget. In-flight grants are unaffected; only future
  /// Acquires see the new limit.
  void set_limit(int limit) {
    limit_.store(limit, std::memory_order_relaxed);
  }

  int limit() const { return limit_.load(std::memory_order_relaxed); }
  int in_use() const {
    return limit() <= 0 ? 0 : used_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> limit_;
  std::atomic<int> used_{0};
  std::function<void()> observer_;
};

/// A batch of tasks that complete together. Not reusable after Wait().
class TaskGroup {
 public:
  /// `cancel` (optional) chains external query cancellation into the
  /// group: once the token fires, pending tasks are skipped.
  explicit TaskGroup(TaskScheduler* scheduler,
                     CancellationToken* cancel = nullptr)
      : scheduler_(scheduler), external_cancel_(cancel) {}
  ~TaskGroup() {
    Cancel();
    Wait();
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn` on the pool. A non-OK return cancels the group and
  /// becomes the Wait() result (first error wins; Cancelled never
  /// overrides a real error).
  void Spawn(std::function<Status()> fn);

  /// Blocks until every spawned task finished or was skipped, helping to
  /// run queued tasks meanwhile. Returns the first error, Cancelled if
  /// the group was cancelled with no prior error, OK otherwise.
  Status Wait();

  /// Requests cancellation of the group's remaining tasks.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire) ||
           (external_cancel_ != nullptr && external_cancel_->IsCancelled());
  }

  Status CheckCancel() const {
    return IsCancelled() ? Status::Cancelled("task group cancelled")
                         : Status::OK();
  }

 private:
  void Finish(const Status& s);

  TaskScheduler* scheduler_;
  CancellationToken* external_cancel_;
  std::atomic<bool> cancelled_{false};

  std::mutex mu_;
  std::condition_variable done_cv_;
  int outstanding_ = 0;
  Status first_error_;
  bool any_cancelled_ = false;
};

/// The pipeline scaffold shared by the parallel operators (aggregation,
/// sort, join build): acquires task slots from `quota` (nullptr =
/// unlimited; the grant may be smaller than `n` but never zero), spawns
/// that many tasks into a TaskGroup chained to `cancel`, and has each
/// task claim work-item indexes [0, n) from a shared cursor and run
/// `body(index, group)` — so a reduced grant still covers every item,
/// just with less concurrency. Waits at the barrier, releases the quota,
/// and returns the group's status (first error wins). A one-item
/// pipeline (`n` == 1) runs `body` on the calling thread instead, with
/// no task and no quota slot.
Status RunPipelineTasks(TaskScheduler* scheduler, TaskQuota* quota,
                        CancellationToken* cancel, int n,
                        const std::function<Status(int, TaskGroup&)>& body);

}  // namespace x100

#endif  // X100_COMMON_TASK_SCHEDULER_H_
