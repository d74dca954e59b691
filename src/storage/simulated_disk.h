// SimulatedDisk: a block device with a configurable bandwidth model.
//
// Substitution note (see DESIGN.md §2): the paper's storage results
// (Cooperative Scans, compression keeping scans IO-balanced) depend on a
// bandwidth-limited device. This simulated device stores blocks in memory
// and charges `bytes / bandwidth` wall-clock time per read, serialized as
// on a single channel, with cancellation-interruptible waits. IO statistics
// feed the monitoring subsystem and experiments E3/E4/E9.
//
// It doubles as the default SpillDevice: spilled blocks live in RAM, which
// keeps unit tests hermetic but means "disk" is really memory — the
// file-backed device (storage/file_spill_device.h) is the real thing.
#ifndef X100_STORAGE_SIMULATED_DISK_H_
#define X100_STORAGE_SIMULATED_DISK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/block_device.h"
#include "storage/spill_device.h"

namespace x100 {

class SimulatedDisk : public BlockDevice, public SpillDevice {
 public:
  /// bandwidth_bytes_per_sec == 0 means infinite (pure memcpy).
  explicit SimulatedDisk(int64_t bandwidth_bytes_per_sec = 0)
      : bandwidth_(bandwidth_bytes_per_sec) {}

  /// Appends a block (any size up to kDiskBlockBytes); returns its id.
  /// Never fails (RAM-backed), but carries the BlockDevice contract's
  /// Result so callers handle the file-backed device identically.
  Result<BlockId> WriteBlock(std::vector<uint8_t> data) override {
    auto block = std::make_shared<const std::vector<uint8_t>>(std::move(data));
    std::lock_guard<std::mutex> lock(mu_);
    bytes_written_ += block->size();
    blocks_.push_back(std::move(block));
    return BlockId{blocks_.size() - 1};
  }

  /// Releases a block's storage (spill reclamation and checkpoint group
  /// retirement; this device keeps "disk" contents in RAM, so without a
  /// free path every spilling query would grow the process forever). Ids
  /// stay stable — freed slots are never reused — and a read of a freed
  /// block returns empty bytes, which callers reject as truncation. A
  /// reader still holding the block's bytes keeps them alive.
  void FreeBlock(BlockId id) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < blocks_.size() && blocks_[id] != nullptr) {
      bytes_freed_ += blocks_[id]->size();
      blocks_[id].reset();
    }
  }

  /// Reads a block. Charges simulated IO time; the wait is interruptible
  /// via `cancel` (may be nullptr). Returns the stored bytes themselves,
  /// not a copy: blocks are immutable once written.
  Result<std::shared_ptr<const std::vector<uint8_t>>> ReadBlock(
      BlockId id, CancellationToken* cancel = nullptr) override {
    std::shared_ptr<const std::vector<uint8_t>> data;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (id >= blocks_.size()) {
        return Status::IoError("block " + std::to_string(id) +
                               " out of range");
      }
      data = blocks_[id];
    }
    if (data == nullptr) data = std::make_shared<const std::vector<uint8_t>>();
    X100_RETURN_IF_ERROR(ChargeIo(data->size(), cancel));
    blocks_read_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(data->size(), std::memory_order_relaxed);
    return data;
  }

  // SpillDevice: spill traffic rides the same block store and bandwidth
  // channel as table IO, with its own accounting (table blocks are never
  // freed, so spill hygiene must be measurable separately).
  Result<BlockId> WriteSpill(std::vector<uint8_t> data) override {
    const int64_t n = static_cast<int64_t>(data.size());
    BlockId id = 0;
    X100_ASSIGN_OR_RETURN(id, WriteBlock(std::move(data)));
    spill_written_.fetch_add(n, std::memory_order_relaxed);
    spill_in_use_.fetch_add(n, std::memory_order_relaxed);
    return id;
  }
  Result<std::vector<uint8_t>> ReadSpill(BlockId id,
                                         CancellationToken* cancel) override {
    std::shared_ptr<const std::vector<uint8_t>> data;
    X100_ASSIGN_OR_RETURN(data, ReadBlock(id, cancel));
    spill_read_.fetch_add(static_cast<int64_t>(data->size()),
                          std::memory_order_relaxed);
    return std::vector<uint8_t>(*data);
  }
  void FreeSpill(BlockId id) override {
    int64_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (id < blocks_.size() && blocks_[id] != nullptr) {
        n = static_cast<int64_t>(blocks_[id]->size());
      }
    }
    spill_in_use_.fetch_sub(n, std::memory_order_relaxed);
    FreeBlock(id);
  }
  int64_t spill_bytes_written() const override {
    return spill_written_.load(std::memory_order_relaxed);
  }
  int64_t spill_bytes_read() const override {
    return spill_read_.load(std::memory_order_relaxed);
  }
  int64_t spill_bytes_in_use() const override {
    return spill_in_use_.load(std::memory_order_relaxed);
  }

  int64_t blocks_read() const override { return blocks_read_.load(); }
  int64_t bytes_read() const override { return bytes_read_.load(); }
  int64_t bytes_written() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_written_;
  }
  int64_t bytes_freed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_freed_;
  }
  int64_t num_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(blocks_.size());
  }

  void ResetStats() {
    blocks_read_.store(0);
    bytes_read_.store(0);
  }

  void set_bandwidth(int64_t bytes_per_sec) { bandwidth_ = bytes_per_sec; }
  int64_t bandwidth() const { return bandwidth_; }

 private:
  /// Single-channel bandwidth model: each read occupies the channel for
  /// size/bandwidth; concurrent readers queue behind `busy_until_`.
  Status ChargeIo(size_t bytes, CancellationToken* cancel) {
    const int64_t bw = bandwidth_;
    if (bw <= 0) return Status::OK();
    using Clock = std::chrono::steady_clock;
    const auto cost = std::chrono::nanoseconds(
        static_cast<int64_t>(1e9 * static_cast<double>(bytes) / bw));
    Clock::time_point wait_until;
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      const auto now = Clock::now();
      if (busy_until_ < now) busy_until_ = now;
      busy_until_ += cost;
      wait_until = busy_until_;
    }
    const auto now = Clock::now();
    if (wait_until <= now) return Status::OK();
    const auto wait = wait_until - now;
    if (cancel != nullptr) return cancel->WaitFor(wait);
    std::this_thread::sleep_for(wait);
    return Status::OK();
  }

  mutable std::mutex mu_;
  // Stored blocks, shared with readers; null once freed.
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> blocks_;
  int64_t bytes_written_ = 0;
  int64_t bytes_freed_ = 0;
  std::atomic<int64_t> spill_written_{0};
  std::atomic<int64_t> spill_read_{0};
  std::atomic<int64_t> spill_in_use_{0};

  std::mutex io_mu_;
  std::chrono::steady_clock::time_point busy_until_{};
  std::atomic<int64_t> blocks_read_{0};
  std::atomic<int64_t> bytes_read_{0};
  int64_t bandwidth_;
};

}  // namespace x100

#endif  // X100_STORAGE_SIMULATED_DISK_H_
