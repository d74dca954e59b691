// MemoryTracker: hierarchical memory accounting for query execution.
//
// Paper §"things most researchers do not think about": the research
// prototype assumed every hash table and sort run fits in RAM; the product
// had to degrade gracefully under memory pressure. EngineConfig::
// memory_limit used to be declared but enforced nowhere — now a process-
// wide root tracker (owned by Database, limit = memory_limit) parents one
// child tracker per query, and every pipeline breaker charges its
// materialized state against the query tracker as it grows:
//
//   TryReserve  — all-or-nothing against the limit chain. A failed
//                 reservation is the SPILL SIGNAL: the operator writes a
//                 radix partition / sorted run to disk and retries, or —
//                 with spilling disabled — surfaces kResourceExhausted
//                 through the pipeline's cancellation machinery.
//   ForceReserve — charges past the limit (tracked, never fails). Used
//                 only for the MINIMUM working set a pipeline stage needs
//                 to make progress at all (the single partition being
//                 merged/probed, the run chunk being streamed): spilling
//                 bounds the bulk state, but a query must never wedge on
//                 a limit smaller than one batch.
//
// Reservations release through MemoryReservation's RAII, so cancellation
// and error unwinds drain the tracker to zero without operator-by-operator
// bookkeeping.
#ifndef X100_COMMON_MEMORY_TRACKER_H_
#define X100_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"

namespace x100 {

class MemoryTracker {
 public:
  /// limit <= 0 means unlimited (the tracker still counts usage — peak
  /// statistics drive bench/test limit selection). `parent` (optional)
  /// receives every charge too, so a per-query tracker rolls up into the
  /// process-wide budget.
  explicit MemoryTracker(int64_t limit = 0, MemoryTracker* parent = nullptr)
      : parent_(parent), limit_(limit > 0 ? limit : 0) {}

  /// All-or-nothing reservation against this tracker and every ancestor.
  /// On failure nothing is charged anywhere and the caller should spill
  /// or surface kResourceExhausted.
  Status TryReserve(int64_t bytes) {
    if (bytes <= 0) return Status::OK();
    int64_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      const int64_t limit = limit_.load(std::memory_order_relaxed);
      if (limit > 0 && used + bytes > limit) {
        return Status::ResourceExhausted(
            "memory limit exceeded: need " + std::to_string(bytes) +
            " bytes, " + std::to_string(used) + " of " +
            std::to_string(limit) + " in use");
      }
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_acq_rel)) {
        break;
      }
    }
    if (parent_ != nullptr) {
      const Status s = parent_->TryReserve(bytes);
      if (!s.ok()) {
        used_.fetch_sub(bytes, std::memory_order_acq_rel);
        return s;
      }
    }
    UpdatePeak();
    return Status::OK();
  }

  /// Charges unconditionally, past the limit if necessary (the overflow is
  /// visible in overcommitted()). Reserved for the minimum working set of
  /// a pipeline stage — see the header comment.
  void ForceReserve(int64_t bytes) {
    if (bytes <= 0) return;
    const int64_t now = used_.fetch_add(bytes, std::memory_order_acq_rel) +
                        bytes;
    const int64_t limit = limit_.load(std::memory_order_relaxed);
    if (limit > 0 && now > limit) {
      int64_t over = overcommitted_.load(std::memory_order_relaxed);
      const int64_t excess = now - limit;
      while (over < excess &&
             !overcommitted_.compare_exchange_weak(
                 over, excess, std::memory_order_acq_rel)) {
      }
    }
    if (parent_ != nullptr) parent_->ForceReserve(bytes);
    UpdatePeak();
  }

  void Release(int64_t bytes) {
    if (bytes <= 0) return;
    used_.fetch_sub(bytes, std::memory_order_acq_rel);
    if (parent_ != nullptr) parent_->Release(bytes);
  }

  /// Limits are read per reservation, so a config change applies to the
  /// next charge without recreating the tracker (Database re-applies the
  /// EngineConfig limit at every query start).
  void set_limit(int64_t limit) {
    limit_.store(limit > 0 ? limit : 0, std::memory_order_relaxed);
  }

  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Largest observed excess of used() over the limit (ForceReserve).
  int64_t overcommitted() const {
    return overcommitted_.load(std::memory_order_relaxed);
  }
  void ResetPeak() {
    peak_.store(used_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    overcommitted_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdatePeak() {
    const int64_t now = used_.load(std::memory_order_relaxed);
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (peak < now && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  MemoryTracker* parent_;
  std::atomic<int64_t> limit_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> overcommitted_{0};
};

/// RAII charge against one tracker, sized to a component that only grows
/// (a partition buffer, a group table, a sort run). GrowTo charges the
/// delta between the component's current footprint and what has been
/// charged so far; destruction releases everything, which is what makes
/// "the tracker drains to zero on every exit path" hold under
/// cancellation and error unwinds. Single-writer like the components it
/// accounts; not thread-safe.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  explicit MemoryReservation(MemoryTracker* tracker) : tracker_(tracker) {}
  ~MemoryReservation() { ReleaseAll(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  MemoryReservation(MemoryReservation&& other) noexcept
      : tracker_(other.tracker_), charged_(other.charged_) {
    other.tracker_ = nullptr;
    other.charged_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      tracker_ = other.tracker_;
      charged_ = other.charged_;
      other.tracker_ = nullptr;
      other.charged_ = 0;
    }
    return *this;
  }

  /// `tracker` may be nullptr: every operation becomes a no-op, so
  /// operators call unconditionally (plans built outside QueryExecutor run
  /// unaccounted, exactly as before).
  void Init(MemoryTracker* tracker) {
    if (tracker_ != tracker) {
      ReleaseAll();
      tracker_ = tracker;
    }
  }

  /// Charges up to `bytes` total; never shrinks. A failure charges
  /// nothing new (the existing charge stands).
  Status GrowTo(int64_t bytes) {
    if (tracker_ == nullptr || bytes <= charged_) return Status::OK();
    X100_RETURN_IF_ERROR(tracker_->TryReserve(bytes - charged_));
    charged_ = bytes;
    return Status::OK();
  }

  /// Charges up to `bytes` total, overcommitting past the limit.
  void ForceGrowTo(int64_t bytes) {
    if (tracker_ == nullptr || bytes <= charged_) return;
    tracker_->ForceReserve(bytes - charged_);
    charged_ = bytes;
  }

  /// Releases down to `bytes` total (after a spill freed the component).
  void ShrinkTo(int64_t bytes) {
    if (bytes < 0) bytes = 0;
    if (tracker_ == nullptr || bytes >= charged_) return;
    tracker_->Release(charged_ - bytes);
    charged_ = bytes;
  }

  void ReleaseAll() {
    if (tracker_ != nullptr && charged_ > 0) tracker_->Release(charged_);
    charged_ = 0;
  }

  /// Moves up to `bytes` of `from`'s charge here without touching the
  /// tracker: a component changed owners, its accounting follows. When
  /// `from` has no tracker or no charge there is nothing to move, and
  /// this reservation keeps its tracker and charge.
  void Adopt(MemoryReservation* from, int64_t bytes) {
    if (bytes > from->charged_) bytes = from->charged_;
    if (from->tracker_ == nullptr || bytes <= 0) return;
    Init(from->tracker_);
    from->charged_ -= bytes;
    charged_ += bytes;
  }

  int64_t charged() const { return charged_; }

 private:
  MemoryTracker* tracker_ = nullptr;
  int64_t charged_ = 0;
};

/// One partition of a breaker's state as GrowOrSpill sees it: its
/// resident bytes, and whether it holds rows a spill would write out.
struct SpillPart {
  int64_t bytes = 0;
  bool spillable = false;
};

/// The out-of-core reservation policy of every pipeline breaker — the
/// ordering is subtle enough that it must not be hand-rolled per site.
/// The breaker's state is `n` partitions: part(i) describes partition i,
/// spill(i) writes it out and frees it (an error when the spill WRITE
/// itself failed: a real device can run out of space, and that failure
/// unwinds like any other IO error).
///   1. Grow the reservation to the footprint, the sum of every
///      partition's bytes.
///   2. On failure with spilling unavailable, surface the
///      kResourceExhausted (the caller's pipeline unwinds).
///   3. The victim rule: when the spillable partitions hold at least
///      kMinSpillBytes, spill them largest first until one pressure
///      event has freed kMinSpillBytes — per-partition state can be
///      small, and one tiny spill per batch degrades into micro-spill
///      churn. Then release the freed charge (shrink BEFORE regrowing,
///      or the retry compares against a stale charge) and retry.
///   4. When less than kMinSpillBytes is spillable (the pressure comes
///      from other operators), force-admit the footprint as minimum
///      working set so the query progresses instead of wedging.
inline Status GrowOrSpill(MemoryReservation* reserv, bool can_spill,
                          size_t n,
                          const std::function<SpillPart(size_t)>& part,
                          const std::function<Status(size_t)>& spill) {
  const auto footprint = [&]() {
    int64_t b = 0;
    for (size_t i = 0; i < n; i++) b += part(i).bytes;
    return b;
  };
  Status rs = reserv->GrowTo(footprint());
  while (!rs.ok()) {
    if (!can_spill) return rs;
    int64_t spillable = 0;
    for (size_t i = 0; i < n; i++) {
      const SpillPart p = part(i);
      if (p.spillable) spillable += p.bytes;
    }
    if (spillable < kMinSpillBytes) {
      reserv->ForceGrowTo(footprint());
      return Status::OK();
    }
    for (int64_t freed = 0; freed < kMinSpillBytes;) {
      size_t victim = n;
      int64_t best = 0;
      for (size_t i = 0; i < n; i++) {
        const SpillPart p = part(i);
        if (p.spillable && (victim == n || p.bytes > best)) {
          victim = i;
          best = p.bytes;
        }
      }
      if (victim == n) break;
      X100_RETURN_IF_ERROR(spill(victim));
      freed += best;
    }
    reserv->ShrinkTo(footprint());
    rs = reserv->GrowTo(footprint());
  }
  return Status::OK();
}

}  // namespace x100

#endif  // X100_COMMON_MEMORY_TRACKER_H_
