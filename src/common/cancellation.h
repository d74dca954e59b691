// Query cancellation support.
//
// Paper §"Query cancellation": "Performing a proper query cancellation
// turned out a much more complex task than initially expected, mostly due
// to aspects such as parallelism, asynchronous IO and memory management."
//
// The mechanism: a shared CancellationToken is plumbed from the session
// into every operator, pipeline task and simulated-disk wait. Operators
// poll it once per *vector* (cheap: one atomic load per ~1000 tuples), IO
// waits use interruptible condition-variable sleeps, and Status::Cancelled
// unwinds the operator tree whose destructors (RAII) release memory,
// buffer-pool pins and threads.
#ifndef X100_COMMON_CANCELLATION_H_
#define X100_COMMON_CANCELLATION_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/status.h"

namespace x100 {

class CancellationToken {
 public:
  CancellationToken() : cancelled_(false) {}

  /// Requests cancellation and wakes all interruptible waits. Registered
  /// callbacks run once, outside the token lock (they may take their own
  /// locks, e.g. to notify a condition variable of their own).
  void Cancel() {
    cancelled_.store(true, std::memory_order_release);
    std::map<int, std::function<void()>> run;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
      run.swap(callbacks_);
      // Counter, not a flag: concurrent Cancel() calls (disconnect and
      // timeout paths racing) must each hold RemoveCallback open until
      // their own callbacks finished.
      callbacks_running_++;
    }
    for (auto& [id, fn] : run) fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      callbacks_running_--;
    }
    callbacks_done_cv_.notify_all();
  }

  /// Registers `fn` to run when Cancel() fires; if the token is already
  /// cancelled, runs it immediately. Returns an id for RemoveCallback.
  /// Blocking waits (the buffer manager's) use this instead of timed
  /// polling, so a cancelled waiter never sits out a poll interval.
  int AddCallback(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!IsCancelled()) {
        const int id = next_callback_++;
        callbacks_[id] = std::move(fn);
        return id;
      }
    }
    fn();  // already cancelled: fire now, nothing to remove later
    return -1;
  }

  /// Unregisters a callback (no-op for ids already fired or -1) and, if a
  /// Cancel() is mid-flight on another thread, waits for its callbacks to
  /// finish — after this returns, the callback's captures are safe to
  /// destroy. Must not be called from inside a callback.
  void RemoveCallback(int id) {
    std::unique_lock<std::mutex> lock(mu_);
    callbacks_.erase(id);
    callbacks_done_cv_.wait(lock, [&] { return callbacks_running_ == 0; });
  }

  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Per-vector poll: OK or kCancelled.
  Status Check() const {
    if (IsCancelled()) return Status::Cancelled("query cancelled");
    return Status::OK();
  }

  /// Interruptible sleep used by the simulated disk: returns kCancelled as
  /// soon as Cancel() is called, OK after the full wait otherwise.
  Status WaitFor(std::chrono::nanoseconds d) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, d, [&] { return IsCancelled(); });
    return Check();
  }

  /// Resets to the not-cancelled state (session reuse between queries).
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, std::function<void()>> callbacks_;
  std::condition_variable callbacks_done_cv_;
  int callbacks_running_ = 0;  // in-flight Cancel() callback batches
  int next_callback_ = 0;
};

}  // namespace x100

#endif  // X100_COMMON_CANCELLATION_H_
