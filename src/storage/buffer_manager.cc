#include "storage/buffer_manager.h"

#include "common/config.h"
#include "common/task_scheduler.h"

namespace x100 {

Result<BufferManager::Pin> BufferManager::PinExistingLocked(BlockId id,
                                                            Entry* e) {
  if (e->pin_count == 0) {
    if (e->prefetched) {
      // First demand touch of a read-ahead block: leave the sacrificial
      // LRU, become a normal cached block.
      prefetch_lru_.erase(e->lru_pos);
      prefetch_unread_bytes_ -= e->bytes;
      e->prefetched = false;
      prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      lru_.erase(e->lru_pos);
    }
    pinned_bytes_ += e->bytes;
    if (pinned_bytes_ > peak_pinned_bytes_) peak_pinned_bytes_ = pinned_bytes_;
  }
  e->pin_count++;
  return Pin(this, id, e->generation, e->data);
}

Result<BufferManager::Pin> BufferManager::InstallPinnedLocked(
    BlockId id, std::shared_ptr<const std::vector<uint8_t>> data) {
  // Pin-during-insert: install the entry already pinned so EvictLocked
  // cannot choose the block this caller just paid IO for — the old code
  // could evict its own insert on tiny pools and then dereference the
  // erased entry.
  Entry e;
  e.data = std::move(data);
  e.bytes = static_cast<int64_t>(e.data->size());
  e.pin_count = 1;
  e.generation = next_generation_++;
  bytes_cached_ += e.bytes;
  pinned_bytes_ += e.bytes;
  if (bytes_cached_ > peak_bytes_) peak_bytes_ = bytes_cached_;
  if (pinned_bytes_ > peak_pinned_bytes_) peak_pinned_bytes_ = pinned_bytes_;
  auto [nit, ok] = cache_.emplace(id, std::move(e));
  (void)ok;
  Pin pin(this, id, nit->second.generation, nit->second.data);
  EvictLocked();  // the new entry is pinned, so it cannot be a victim
  return pin;
}

Result<BufferManager::Pin> BufferManager::FinishWaitLocked(
    BlockId id, Inflight* inf, CancellationToken* cancel) {
  inf->waiters--;
  if (!inf->done) {
    // Woken by the cancellation callback, not by the loader.
    const Status s = cancel != nullptr ? cancel->Check() : Status::OK();
    return s.ok() ? Status::Cancelled("query cancelled") : s;
  }
  if (!inf->status.ok()) return inf->status;
  // The loader installed the block, but a tiny pool may already have
  // evicted it between install and this wake-up. Re-check the cache; if
  // gone, install the loader's bytes ourselves — never re-read.
  auto again = cache_.find(id);
  if (again != cache_.end()) return PinExistingLocked(id, &again->second);
  return InstallPinnedLocked(id, inf->data);
}

Result<BufferManager::Pin> BufferManager::PinBlock(BlockId id,
                                                   CancellationToken* cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return PinExistingLocked(id, &it->second);
  }
  // A background prefetch of this block failed earlier: this demand read
  // is the first to actually need it, so it takes the parked Status. The
  // error is consumed — a retry issues a fresh device read below.
  auto parked = parked_errors_.find(id);
  if (parked != parked_errors_.end()) {
    const Status s = parked->second;
    parked_errors_.erase(parked);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  std::shared_ptr<Inflight> inf;
  auto inf_it = inflight_.find(id);
  if (inf_it != inflight_.end()) {
    inf = inf_it->second;
    if (!inf->prefetch || inf->claimed) {
      // Single flight: a read of this block is genuinely in progress on
      // another thread — wait for its IO instead of issuing a duplicate.
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
      inf->waiters++;
      int cb = -1;
      if (cancel != nullptr) {
        // Registered OUTSIDE mu_: the callback takes mu_ (and
        // AddCallback runs it inline when the token is already
        // cancelled).
        lock.unlock();
        cb = cancel->AddCallback([this, inf] {
          std::lock_guard<std::mutex> l(mu_);
          inf->cv.notify_all();
        });
        lock.lock();
      }
      inf->cv.wait(lock, [&] {
        return inf->done || (cancel != nullptr && cancel->IsCancelled());
      });
      Result<Pin> result = FinishWaitLocked(id, inf.get(), cancel);
      lock.unlock();
      // RemoveCallback waits for in-flight callbacks, which take mu_ —
      // must not hold it here.
      if (cb >= 0) cancel->RemoveCallback(cb);
      return result;
    }
    // A QUEUED background read nobody has started: claim it and do the
    // IO on this thread (see Inflight::claimed — blocking on a queued
    // task can deadlock when every pool worker is parked in that very
    // wait). The background task sees the claim and stands down.
    inf->claimed = true;
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Miss with no read in flight: this thread becomes the loader.
    misses_.fetch_add(1, std::memory_order_relaxed);
    inf = std::make_shared<Inflight>();
    inf->claimed = true;
    inflight_.emplace(id, inf);
  }
  lock.unlock();
  // Device IO outside the lock: the (simulated or real) wait must not
  // block cache hits on other blocks.
  auto read = device_->ReadBlock(id, cancel);
  lock.lock();
  auto self = inflight_.find(id);
  if (self != inflight_.end() && self->second == inf) inflight_.erase(self);
  if (!read.ok()) {
    inf->done = true;
    inf->status = read.status();
    inf->cv.notify_all();
    return read.status();
  }
  // The device's own bytes, not a copy (RAM devices share their block).
  std::shared_ptr<const std::vector<uint8_t>> data = std::move(read).value();
  inf->done = true;
  inf->data = data;
  inf->cv.notify_all();
  // While our IO ran, a waiter parked on a PREVIOUS in-flight read of
  // this id may have re-installed the block (its re-install path checks
  // only the cache, not inflight_). Installing over it would double-count
  // bytes_cached_/pinned_bytes_ and return a pin that never incremented
  // the live entry's count — adopt the existing entry instead.
  auto again = cache_.find(id);
  if (again != cache_.end()) return PinExistingLocked(id, &again->second);
  return InstallPinnedLocked(id, std::move(data));
}

Result<std::shared_ptr<const std::vector<uint8_t>>> BufferManager::GetBlock(
    BlockId id, CancellationToken* cancel) {
  Pin pin;
  X100_ASSIGN_OR_RETURN(pin, PinBlock(id, cancel));
  std::shared_ptr<const std::vector<uint8_t>> data(
      pin.data_);  // keeps the bytes alive past the unpin below
  pin.Release();
  return data;
}

void BufferManager::Prefetch(BlockId id, TaskScheduler* scheduler) {
  std::shared_ptr<Inflight> inf;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prefetch_budget_bytes_ <= 0) return;     // disabled
    if (cache_.count(id) != 0) return;           // already resident
    if (inflight_.count(id) != 0) return;        // read already in flight
    if (parked_errors_.count(id) != 0) return;   // awaiting a demand read
    // Budget the read-ahead window up front, estimating one device block
    // per pending read (the exact size is known only after the IO). A
    // refused prefetch is NOT counted as issued — it simply never
    // happened; the demand read will fault the block synchronously.
    if (PrefetchChargedBytesLocked() + kDiskBlockBytes >
        prefetch_budget_bytes_) {
      return;
    }
    prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
    prefetch_pending_bytes_ += kDiskBlockBytes;
    pending_prefetch_tasks_++;
    inf = std::make_shared<Inflight>();
    inf->prefetch = true;
    inflight_.emplace(id, inf);
    prefetch_queue_.emplace_back(id, inf);
    if (prefetch_pump_running_) return;  // the pump will reach it
    prefetch_pump_running_ = true;
  }
  TaskScheduler* sched =
      scheduler != nullptr ? scheduler : TaskScheduler::Global();
  sched->Submit([this] { RunPrefetchPump(); });
}

void BufferManager::RunPrefetchPump() {
  for (;;) {
    BlockId id;
    std::shared_ptr<Inflight> inf;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (prefetch_queue_.empty()) {
        prefetch_pump_running_ = false;
        // DrainPrefetches (and ~BufferManager) wait for the pump itself,
        // not just for zero pending reads — the pump still touches this
        // object after the last read's accounting lands.
        prefetch_drained_cv_.notify_all();
        return;
      }
      id = prefetch_queue_.front().first;
      inf = std::move(prefetch_queue_.front().second);
      prefetch_queue_.pop_front();
    }
    RunPrefetch(id, std::move(inf));
  }
}

void BufferManager::RunPrefetch(BlockId id, std::shared_ptr<Inflight> inf) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inf->claimed) {
      // A demand PinBlock got here first and took the read over (see
      // Inflight::claimed). The prefetch predicted a block that was
      // demanded — count the hit; the demand path does the rest.
      prefetch_pending_bytes_ -= kDiskBlockBytes;
      prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
      pending_prefetch_tasks_--;
      if (pending_prefetch_tasks_ == 0) prefetch_drained_cv_.notify_all();
      return;
    }
    inf->claimed = true;
  }
  // No cancellation token: the read-ahead belongs to no single query, and
  // a parked kCancelled would poison an unrelated query's later demand
  // read of this block.
  auto read = device_->ReadBlock(id, nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto self = inflight_.find(id);
  if (self != inflight_.end() && self->second == inf) inflight_.erase(self);
  prefetch_pending_bytes_ -= kDiskBlockBytes;
  // A demand PinBlock arrived mid-read and is parked on the CV: it adopts
  // this IO's outcome directly, so the prefetch was useful (or its error
  // is surfaced right now rather than parked).
  const bool demanded = inf->waiters > 0;
  if (!read.ok()) {
    inf->done = true;
    inf->status = read.status();
    inf->cv.notify_all();
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    if (!demanded) parked_errors_[id] = read.status();
  } else {
    std::shared_ptr<const std::vector<uint8_t>> data = std::move(read).value();
    const int64_t bytes = static_cast<int64_t>(data->size());
    inf->done = true;
    inf->data = data;
    inf->cv.notify_all();
    if (demanded) {
      // The waiters install (pinned) from inf->data themselves; installing
      // an unpinned entry here could be evicted by a tiny pool before they
      // wake, forcing them down the re-install path anyway.
      prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
    } else if (cache_.find(id) == cache_.end()) {
      Entry e;
      e.data = std::move(data);
      e.bytes = bytes;
      e.generation = next_generation_++;
      e.prefetched = true;
      bytes_cached_ += bytes;
      if (bytes_cached_ > peak_bytes_) peak_bytes_ = bytes_cached_;
      auto [nit, ok] = cache_.emplace(id, std::move(e));
      (void)ok;
      prefetch_lru_.push_front(id);
      nit->second.lru_pos = prefetch_lru_.begin();
      prefetch_unread_bytes_ += bytes;
      EvictLocked();
    } else {
      // A waiter from an older in-flight read re-installed the id while
      // our IO ran; the bytes we read are redundant.
      prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  pending_prefetch_tasks_--;
  if (pending_prefetch_tasks_ == 0) prefetch_drained_cv_.notify_all();
}

void BufferManager::DrainPrefetches() {
  std::unique_lock<std::mutex> lock(mu_);
  prefetch_drained_cv_.wait(lock, [&] {
    return pending_prefetch_tasks_ == 0 && !prefetch_pump_running_;
  });
}

void BufferManager::Unpin(BlockId id, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(id);
  // Generation mismatch: the entry this pin referred to was invalidated
  // (and possibly the id reloaded as a NEW entry) — a stale unpin must
  // not touch the newer entry's pin count.
  if (it == cache_.end() || it->second.generation != generation) return;
  Entry& e = it->second;
  e.pin_count--;
  if (e.pin_count == 0) {
    pinned_bytes_ -= e.bytes;
    lru_.push_front(id);
    e.lru_pos = lru_.begin();
    EvictLocked();  // the pool may have been over budget on pins alone
  }
}

void BufferManager::EvictLocked() {
  const auto evict_prefetched = [this] {
    const BlockId victim = prefetch_lru_.back();
    prefetch_lru_.pop_back();
    auto it = cache_.find(victim);
    bytes_cached_ -= it->second.bytes;
    prefetch_unread_bytes_ -= it->second.bytes;
    cache_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
  };
  // Slice cap first: unread read-ahead beyond its budget is shed
  // immediately (and counts as wasted), so prefetch can never displace
  // the demand working set by more than its configured slice.
  while (!prefetch_lru_.empty() &&
         prefetch_unread_bytes_ > prefetch_budget_bytes_) {
    evict_prefetched();
  }
  // Capacity pressure victimizes the regular LRU before the read-ahead
  // slice: a cold sequential scan keeps its pool full of already-decoded
  // stale groups, and evicting the unread NEXT group ahead of those would
  // throw away exactly the IO the prefetch just paid for. Unread blocks
  // go only when no used unpinned block remains.
  while (bytes_cached_ > capacity_bytes_) {
    if (!lru_.empty()) {
      const BlockId victim = lru_.back();
      lru_.pop_back();
      auto it = cache_.find(victim);
      bytes_cached_ -= it->second.bytes;
      cache_.erase(it);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    } else if (!prefetch_lru_.empty()) {
      evict_prefetched();
    } else {
      break;  // everything resident is pinned
    }
  }
}

bool BufferManager::Contains(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.count(id) != 0;
}

void BufferManager::Invalidate(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  parked_errors_.erase(id);
  auto it = cache_.find(id);
  if (it == cache_.end()) return;
  Entry& e = it->second;
  if (e.pin_count == 0) {
    if (e.prefetched) {
      prefetch_lru_.erase(e.lru_pos);
      prefetch_unread_bytes_ -= e.bytes;
      prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      lru_.erase(e.lru_pos);
    }
  } else {
    // Outstanding pins keep their shared_ptr bytes; their later Unpins
    // miss the generation and no-op, so settle the accounting here.
    pinned_bytes_ -= e.bytes;
  }
  bytes_cached_ -= e.bytes;
  cache_.erase(it);
}

void BufferManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  parked_errors_.clear();
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.pin_count > 0) {
      ++it;
      continue;
    }
    if (it->second.prefetched) {
      prefetch_lru_.erase(it->second.lru_pos);
      prefetch_unread_bytes_ -= it->second.bytes;
      prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      lru_.erase(it->second.lru_pos);
    }
    bytes_cached_ -= it->second.bytes;
    it = cache_.erase(it);
  }
}

void BufferManager::set_capacity_bytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_bytes_ = bytes;
  EvictLocked();
}

void BufferManager::set_prefetch_budget_bytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  prefetch_budget_bytes_ = bytes < 0 ? capacity_bytes_ / 4 : bytes;
  EvictLocked();
}

bool BufferManager::TryChargePrefetchBytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (prefetch_budget_bytes_ <= 0 || bytes < 0) return false;
  if (PrefetchChargedBytesLocked() + bytes > prefetch_budget_bytes_) {
    return false;
  }
  prefetch_external_bytes_ += bytes;
  return true;
}

void BufferManager::ReleasePrefetchBytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  prefetch_external_bytes_ -= bytes;
  if (prefetch_external_bytes_ < 0) prefetch_external_bytes_ = 0;
}

}  // namespace x100
