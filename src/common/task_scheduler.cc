#include "common/task_scheduler.h"

#include <algorithm>

namespace x100 {

TaskScheduler::TaskScheduler(int num_workers) {
  if (num_workers <= 0) {
    num_workers =
        std::max(1u, std::thread::hardware_concurrency());
  }
  queues_.resize(num_workers);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; i++) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Workers drained their deques before exiting; run anything submitted
  // during teardown so no TaskGroup is left waiting.
  std::function<void()> fn;
  bool stolen;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!PopTaskLocked(0, &fn, &stolen)) break;
    }
    fn();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

TaskScheduler* TaskScheduler::Global() {
  static TaskScheduler* global = new TaskScheduler();
  return global;
}

void TaskScheduler::Submit(std::function<void()> fn, const void* tag) {
  const size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                   queues_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[q].push_back(Task{std::move(fn), tag});
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_one();
}

bool TaskScheduler::PopTaskLocked(int home, std::function<void()>* out,
                                  bool* stolen) {
  *stolen = false;
  if (!queues_[home].empty()) {
    *out = std::move(queues_[home].front().fn);
    queues_[home].pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  // Steal from the longest deque (front = oldest task: FIFO across
  // thieves keeps partial pipelines of one query flowing together).
  int victim = -1;
  size_t best = 0;
  for (int q = 0; q < static_cast<int>(queues_.size()); q++) {
    if (q != home && queues_[q].size() > best) {
      best = queues_[q].size();
      victim = q;
    }
  }
  if (victim < 0) return false;
  *out = std::move(queues_[victim].front().fn);
  queues_[victim].pop_front();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  *stolen = true;
  return true;
}

bool TaskScheduler::PopTaggedTaskLocked(const void* tag,
                                        std::function<void()>* out) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->tag == tag) {
        *out = std::move(it->fn);
        queue.erase(it);
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  return false;
}

bool TaskScheduler::RunOneTask(const void* tag) {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!PopTaggedTaskLocked(tag, &fn)) return false;
  }
  fn();
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TaskScheduler::WorkerLoop(int id) {
  while (true) {
    std::function<void()> fn;
    bool stolen = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Pop before checking stopping_ so shutdown drains queued tasks.
      work_cv_.wait(lock, [&] {
        return PopTaskLocked(id, &fn, &stolen) || stopping_;
      });
      if (!fn) return;  // stopping and every deque empty
    }
    fn();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (stolen) tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TaskGroup::Spawn(std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_++;
  }
  scheduler_->Submit(
      [this, fn = std::move(fn)] {
        if (IsCancelled()) {
          std::lock_guard<std::mutex> lock(mu_);
          any_cancelled_ = true;
          outstanding_--;
          if (outstanding_ == 0) done_cv_.notify_all();
          return;
        }
        Finish(fn());
      },
      this);
}

void TaskGroup::Finish(const Status& s) {
  // One failing task aborts its siblings (cancellation propagation).
  // Cancel BEFORE the final decrement: once outstanding_ hits 0, Wait()
  // may return and the owner may destroy the group, so no member access
  // is allowed after the decrement is published.
  if (!s.ok() && !s.IsCancelled()) Cancel();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.IsCancelled()) {
    any_cancelled_ = true;
  } else if (!s.ok() && first_error_.ok()) {
    first_error_ = s;
  }
  outstanding_--;
  if (outstanding_ == 0) done_cv_.notify_all();
}

Status TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (outstanding_ > 0) {
    lock.unlock();
    // Help drain THIS group's queued tasks so a saturated (or single-
    // worker) scheduler cannot deadlock the joining thread. Only own
    // tasks: an arbitrary stolen task may block on a barrier owned by a
    // frame suspended beneath this very Wait (see header).
    if (!scheduler_->RunOneTask(this)) {
      lock.lock();
      if (outstanding_ > 0) {
        done_cv_.wait_for(lock, std::chrono::milliseconds(2));
      }
      continue;
    }
    lock.lock();
  }
  if (!first_error_.ok()) return first_error_;
  if (any_cancelled_ || IsCancelled()) {
    return Status::Cancelled("task group cancelled");
  }
  return Status::OK();
}

Status RunPipelineTasks(TaskScheduler* scheduler, TaskQuota* quota,
                        CancellationToken* cancel, int n,
                        const std::function<Status(int, TaskGroup&)>& body) {
  if (n == 1) {
    // A one-item pipeline runs on the calling thread: no task, no quota
    // slot. TaskGroup::Wait would run the lone queued task inline anyway
    // whenever no worker took it first.
    TaskGroup group(scheduler, cancel);
    Status status = group.CheckCancel();
    if (status.ok()) status = body(0, group);
    return status.ok() ? group.CheckCancel() : status;
  }
  const int grant = quota != nullptr ? quota->Acquire(n) : n;
  Status status;
  {
    TaskGroup group(scheduler, cancel);
    std::atomic<int> next{0};
    for (int t = 0; t < grant && t < n; t++) {
      group.Spawn([&group, &next, &body, n]() -> Status {
        int i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
          X100_RETURN_IF_ERROR(body(i, group));
        }
        return Status::OK();
      });
    }
    status = group.Wait();  // pipeline barrier
  }
  if (quota != nullptr) quota->Release(grant);
  return status;
}

}  // namespace x100
