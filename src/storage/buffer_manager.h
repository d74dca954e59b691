// BufferManager: a byte-budgeted LRU cache of device blocks with pin
// counting, single-flight reads and asynchronous read-ahead. Concurrent
// scans share blocks only through this cache.
//
// Contract:
//  * Capacity is in BYTES (EngineConfig::buffer_pool_bytes), consistent
//    with spill/memory accounting everywhere else in the engine. Block
//    count was never the scarce resource — bytes are.
//  * Pinned blocks are immune to eviction. PinBlock returns an RAII Pin
//    whose destruction unpins, so the resident set can exceed the budget
//    only by the pinned working set: bytes_cached <= capacity +
//    pinned_bytes, always. Table readers hold no pin across calls: they
//    fetch with GetBlock and keep the block's shared bytes
//    (docs/STORAGE.md, "Reading a chunk").
//  * Eviction is LRU over UNPINNED blocks only. A block enters the LRU
//    when its last pin drops; a newly-faulted block is installed pinned
//    (pin-during-insert), so a zero/tiny-capacity pool serves the caller
//    the block it just paid IO for instead of evicting it mid-hand-over.
//  * Reads are single-flight: concurrent misses on one block coalesce
//    onto one device IO; the rest wait on a condition variable and take
//    the loaded bytes (counted as single_flight_waits, not extra misses).
//    The wait is woken by query cancellation through a token callback —
//    no timed polling.
//  * Cached blocks are shared (shared_ptr) so eviction never invalidates
//    a reader already holding the data. The pool caches the bytes object
//    the device returned: over a RAM device that is the device's own
//    block, so an entry is a second reference rather than a second copy
//    (bytes_cached still counts it against the budget).
//
// Read-ahead (docs/STORAGE.md §"Read-ahead"):
//  * Prefetch(id) schedules the device read as a background task on the
//    shared TaskScheduler and installs the block UNPINNED on completion.
//    A demand PinBlock arriving mid-read adopts the in-flight IO through
//    the ordinary single-flight path instead of duplicating it.
//  * Prefetched-but-unread blocks live in a capped slice of the pool
//    (prefetch_budget_bytes, default a quarter of the capacity). Anything
//    over the slice is evicted immediately (counted as wasted), so
//    read-ahead can never displace the demand working set by more than
//    its budget; under plain capacity pressure the used LRU is
//    victimized first — stale groups leave before the unread next group
//    the prefetch just paid for.
//  * A background IO error never crashes a worker: the Status is parked
//    on the block and surfaced by the FIRST demand read that actually
//    needs it (then cleared, so a retried demand read issues a fresh
//    device IO).
//  * Accounting invariant: prefetch_issued == prefetch_hits +
//    prefetch_wasted + prefetch_inflight, where in-flight covers both
//    pending reads and resident-but-unread blocks.
#ifndef X100_STORAGE_BUFFER_MANAGER_H_
#define X100_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "storage/block_device.h"

namespace x100 {

class TaskScheduler;  // common/task_scheduler.h

class BufferManager {
 public:
  /// RAII pin handle: while alive, the block cannot be evicted. Move-only;
  /// destruction (or Release) unpins. `data()` stays valid for the
  /// handle's lifetime even if the entry is invalidated underneath it.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept { *this = std::move(o); }
    Pin& operator=(Pin&& o) noexcept {
      Release();
      bm_ = o.bm_;
      id_ = o.id_;
      generation_ = o.generation_;
      data_ = std::move(o.data_);
      o.bm_ = nullptr;
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    void Release() {
      if (bm_ != nullptr) bm_->Unpin(id_, generation_);
      bm_ = nullptr;
      data_.reset();
    }

    bool valid() const { return data_ != nullptr; }
    BlockId id() const { return id_; }
    const std::vector<uint8_t>& data() const { return *data_; }

   private:
    friend class BufferManager;
    Pin(BufferManager* bm, BlockId id, uint64_t generation,
        std::shared_ptr<const std::vector<uint8_t>> data)
        : bm_(bm), id_(id), generation_(generation), data_(std::move(data)) {}

    BufferManager* bm_ = nullptr;
    BlockId id_ = 0;
    uint64_t generation_ = 0;
    std::shared_ptr<const std::vector<uint8_t>> data_;
  };

  BufferManager(BlockDevice* device, int64_t capacity_bytes)
      : device_(device),
        capacity_bytes_(capacity_bytes),
        prefetch_budget_bytes_(capacity_bytes / 4) {}

  /// Waits for in-flight prefetch reads: a background task holds a raw
  /// pointer to this manager, so the manager must outlive it. The owning
  /// Database declares the buffer manager after its devices and
  /// scheduler, so both are still alive while the drain runs.
  ~BufferManager() { DrainPrefetches(); }

  /// Faults the block in (single-flight) and returns it pinned. Exactly
  /// one of hits/misses/single_flight_waits is counted per call.
  Result<Pin> PinBlock(BlockId id, CancellationToken* cancel = nullptr);

  /// Read-through without holding a pin: the returned shared_ptr keeps
  /// the bytes alive for this caller, but the entry is immediately
  /// evictable.
  Result<std::shared_ptr<const std::vector<uint8_t>>> GetBlock(
      BlockId id, CancellationToken* cancel = nullptr);

  /// Schedules a background read of `id` on `scheduler` (nullptr =
  /// TaskScheduler::Global()) and installs the block unpinned on
  /// completion. No-op when the block is resident, a read is already in
  /// flight, prefetch is disabled, or the read-ahead budget is full
  /// (refused prefetches are not counted as issued). Never blocks and
  /// never fails: a background IO error is parked for the next demand
  /// read of this block.
  void Prefetch(BlockId id, TaskScheduler* scheduler = nullptr);

  /// Blocks until no background prefetch read is pending (destructor and
  /// tests). Resident-but-unread blocks stay resident.
  void DrainPrefetches();

  bool Contains(BlockId id) const;

  /// Drops a block from the cache if present (checkpoint invalidation).
  /// Outstanding Pins keep their bytes alive and unpin harmlessly — the
  /// entry's generation tag makes a stale Unpin a no-op even if the id is
  /// reloaded afterwards.
  void Invalidate(BlockId id);

  /// Drops every unpinned entry; pinned entries stay (their bytes are in
  /// use).
  void Clear();

  /// Adjusts the byte budget; evicts immediately if shrinking.
  void set_capacity_bytes(int64_t bytes);

  /// Adjusts the read-ahead byte budget: the slice of the pool that
  /// prefetched-but-unread blocks (plus externally-charged read-ahead,
  /// see TryChargePrefetchBytes) may occupy. < 0 = auto (a quarter of
  /// the capacity); 0 disables prefetch. Shrinking evicts unread
  /// prefetched blocks immediately.
  void set_prefetch_budget_bytes(int64_t bytes);
  int64_t prefetch_budget_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return prefetch_budget_bytes_;
  }
  bool prefetch_enabled() const { return prefetch_budget_bytes() > 0; }

  /// Shares the read-ahead budget with prefetchers whose bytes do NOT
  /// live in this pool (the Grace pair streamer reading next-pair spill
  /// chunks ahead): returns true and charges `bytes` if they fit under
  /// the budget alongside the pool's own read-ahead. The caller must
  /// release exactly what it charged.
  bool TryChargePrefetchBytes(int64_t bytes);
  void ReleasePrefetchBytes(int64_t bytes);

  // Atomic: monitors read these while concurrent scans fault blocks in.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Misses that coalesced onto another thread's in-flight read.
  int64_t single_flight_waits() const {
    return single_flight_waits_.load(std::memory_order_relaxed);
  }
  /// Read-ahead accounting. A prefetch is ISSUED when its background read
  /// is scheduled, becomes a HIT when a demand read consumes it (adopting
  /// the in-flight IO or touching the resident unread block), and is
  /// WASTED when it fails or is evicted/invalidated unread. Everything
  /// else — pending reads and resident-but-unread blocks — is IN FLIGHT:
  /// issued == hits + wasted + inflight at all times.
  int64_t prefetch_issued() const {
    return prefetch_issued_.load(std::memory_order_relaxed);
  }
  int64_t prefetch_hits() const {
    return prefetch_hits_.load(std::memory_order_relaxed);
  }
  int64_t prefetch_wasted() const {
    return prefetch_wasted_.load(std::memory_order_relaxed);
  }
  int64_t prefetch_inflight() const {
    return prefetch_issued() - prefetch_hits() - prefetch_wasted();
  }

  int64_t capacity_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_bytes_;
  }
  int64_t bytes_cached() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_cached_;
  }
  int64_t pinned_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pinned_bytes_;
  }
  /// High-water marks; peak_bytes <= capacity + peak_pinned_bytes is the
  /// pool's core invariant (asserted by tests).
  int64_t peak_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_bytes_;
  }
  int64_t peak_pinned_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_pinned_bytes_;
  }
  int size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(cache_.size());
  }
  BlockDevice* device() { return device_; }

 private:
  struct Entry {
    std::shared_ptr<const std::vector<uint8_t>> data;
    int64_t bytes = 0;
    int pin_count = 0;
    uint64_t generation = 0;
    /// Landed via prefetch and not yet demanded: lives in prefetch_lru_
    /// (evicted before anything in lru_) until the first pin clears it.
    bool prefetched = false;
    /// Into lru_ or prefetch_lru_ (see `prefetched`); valid only when
    /// pin_count == 0.
    std::list<BlockId>::iterator lru_pos;
  };

  /// One read in progress; later missers wait on `cv` instead of issuing
  /// their own device IO.
  struct Inflight {
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const std::vector<uint8_t>> data;
    int waiters = 0;
    /// The read was issued by Prefetch (background, no cancellation
    /// token); its completion classifies the prefetch hit/wasted.
    bool prefetch = false;
    /// Read ownership taken (by the background task when it starts, or by
    /// a demand PinBlock that arrives first). A demand read must NEVER
    /// block on a merely-queued background task: the scheduler's workers
    /// may all be stuck in that very wait, and the queued read would then
    /// never run — so the demand thread claims the unstarted read and
    /// performs the IO itself.
    bool claimed = false;
  };

  void Unpin(BlockId id, uint64_t generation);
  void EvictLocked();
  Result<Pin> PinExistingLocked(BlockId id, Entry* e);
  Result<Pin> InstallPinnedLocked(
      BlockId id, std::shared_ptr<const std::vector<uint8_t>> data);
  /// Waiter epilogue after the in-flight read settled (or the wait was
  /// cancelled): returns the pin, the loader's error, or kCancelled.
  Result<Pin> FinishWaitLocked(BlockId id, Inflight* inf,
                               CancellationToken* cancel);
  /// Pending + resident-unread + externally charged read-ahead bytes.
  int64_t PrefetchChargedBytesLocked() const {
    return prefetch_pending_bytes_ + prefetch_unread_bytes_ +
           prefetch_external_bytes_;
  }
  /// Processes one queued prefetch: claim-check, device read, install.
  void RunPrefetch(BlockId id, std::shared_ptr<Inflight> inf);
  /// The single background task draining prefetch_queue_ FIFO. One pump
  /// (not one task per block) keeps the device's serial channel serving
  /// reads in ISSUE order — per-block tasks race for the channel and a
  /// far-ahead block can reserve it before the block the scan demands
  /// next, turning the read-ahead win into a priority inversion.
  void RunPrefetchPump();

  BlockDevice* device_;
  mutable std::mutex mu_;
  int64_t capacity_bytes_;
  int64_t bytes_cached_ = 0;
  int64_t pinned_bytes_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t peak_pinned_bytes_ = 0;
  uint64_t next_generation_ = 1;
  std::unordered_map<BlockId, Entry> cache_;
  std::unordered_map<BlockId, std::shared_ptr<Inflight>> inflight_;
  std::list<BlockId> lru_;  // unpinned entries only, MRU at front
  /// Prefetched-but-unread entries, MRU at front — evicted before lru_.
  std::list<BlockId> prefetch_lru_;
  /// Background read failures awaiting their first demand read.
  std::unordered_map<BlockId, Status> parked_errors_;
  int64_t prefetch_budget_bytes_;
  int64_t prefetch_pending_bytes_ = 0;   // estimated, kDiskBlockBytes each
  int64_t prefetch_unread_bytes_ = 0;    // resident prefetched entries
  int64_t prefetch_external_bytes_ = 0;  // TryChargePrefetchBytes
  int pending_prefetch_tasks_ = 0;
  /// Accepted prefetches awaiting the pump, oldest (= wanted soonest)
  /// first.
  std::deque<std::pair<BlockId, std::shared_ptr<Inflight>>> prefetch_queue_;
  bool prefetch_pump_running_ = false;
  std::condition_variable prefetch_drained_cv_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> single_flight_waits_{0};
  std::atomic<int64_t> prefetch_issued_{0};
  std::atomic<int64_t> prefetch_hits_{0};
  std::atomic<int64_t> prefetch_wasted_{0};
};

}  // namespace x100

#endif  // X100_STORAGE_BUFFER_MANAGER_H_
