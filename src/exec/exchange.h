// XchgOp: exchange union (paper §"Multi-core": "The Vectorwise rewriter
// was used to implement a Volcano-style query parallelizer"). Parallelism
// now comes from pipeline sinks, so the planner uses the union only at the
// plan root, where a streaming chain with a join has no sink to run its
// probe clones (BuildRootOperator in engine/physical_plan.h).
//
// N producer tasks each drive one clone of the chain (morsel-driven scans
// sharing one MorselSource); batches flow through a bounded queue to the
// single consumer. Producers no longer own dedicated
// std::threads: they are TaskGroup tasks on the shared TaskScheduler, so
// concurrent parallel queries share one hardware-sized pool instead of
// oversubscribing the machine (§"When more cores hurts"). Cancellation
// wakes every queue wait and joins all in-flight tasks before Close
// returns — the "parallelism" hazard of §"Query cancellation".
//
// Backpressure is scheduler-aware, never time-polled: a producer blocked
// on a full queue enters TaskScheduler::HelpUntil, lending its thread to
// whatever tasks are queued (other exchanges' producers, other queries'
// pipelines) and parking on the scheduler's work signal while idle. Every
// event that can unblock it — consumer pop, Close, a failing sibling, a
// CancellationToken callback registered at Open — calls WakeHelpers(), so
// a cancelled producer releases its pool worker immediately instead of
// sleeping out a poll interval.
#ifndef X100_EXEC_EXCHANGE_H_
#define X100_EXEC_EXCHANGE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/task_scheduler.h"
#include "exec/operator.h"

namespace x100 {

class XchgOp : public Operator {
 public:
  /// All producers must share one output schema.
  explicit XchgOp(std::vector<OperatorPtr> producers,
                  int queue_capacity = 8);
  ~XchgOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override {
    return producers_.front()->output_schema();
  }
  std::string name() const override {
    return "XchgUnion(" + std::to_string(producers_.size()) + ")";
  }

 private:
  Status ProducerLoop(int p);

  std::vector<OperatorPtr> producers_;
  int queue_capacity_;
  ExecContext* ctx_ = nullptr;
  TaskScheduler* scheduler_ = nullptr;

  std::mutex mu_;
  std::condition_variable not_empty_;  // consumer wake (producers use
                                       // the scheduler's HelpUntil)
  std::deque<std::unique_ptr<Batch>> queue_;
  Status producer_error_;
  int active_producers_ = 0;
  bool shutdown_ = false;

  std::unique_ptr<TaskGroup> group_;
  std::unique_ptr<Batch> current_;
  bool opened_ = false;
  int cancel_callback_ = -1;  // registered on ctx->cancel while open
};

}  // namespace x100

#endif  // X100_EXEC_EXCHANGE_H_
