// SimulatedDisk: the RAM medium behind BlockDevice.
//
// Substitution note (see DESIGN.md §2): the paper's storage results
// (Cooperative Scans, compression keeping scans IO-balanced) depend on a
// bandwidth-limited device. This simulated device stores blocks in memory
// and charges `bytes / bandwidth` wall-clock time per read on the shared
// single-channel model (BandwidthChannel, storage/block_device.h), with
// cancellation-interruptible waits. IO statistics feed the monitoring
// subsystem and experiments E3/E4/E9.
//
// It is the default home of base tables and, through a SpillDevice view,
// of spilled state: that keeps unit tests hermetic, but "disk" is really
// memory — the file-backed device (storage/file_block_device.h) is the
// real thing.
#ifndef X100_STORAGE_SIMULATED_DISK_H_
#define X100_STORAGE_SIMULATED_DISK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/block_device.h"

namespace x100 {

class SimulatedDisk : public BlockDevice {
 public:
  /// bandwidth_bytes_per_sec == 0 means infinite (pure memcpy).
  explicit SimulatedDisk(int64_t bandwidth_bytes_per_sec = 0)
      : channel_(bandwidth_bytes_per_sec) {}

  /// Appends a block (any size up to kDiskBlockBytes); returns its id.
  /// Never fails for space (RAM-backed), but carries the BlockDevice
  /// contract's Result so callers handle the file-backed device
  /// identically.
  Result<BlockId> WriteBlock(std::vector<uint8_t> data) override {
    X100_RETURN_IF_ERROR(CheckBlockSize(data.size()));
    auto block = std::make_shared<const std::vector<uint8_t>>(std::move(data));
    std::lock_guard<std::mutex> lock(mu_);
    bytes_written_ += block->size();
    blocks_.push_back(std::move(block));
    return BlockId{blocks_.size() - 1};
  }

  /// Releases a block's storage (spill reclamation and checkpoint group
  /// retirement; this device keeps "disk" contents in RAM, so without a
  /// free path every spilling query would grow the process forever). Ids
  /// stay stable — this device never reuses them — and a read of a freed
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
    X100_RETURN_IF_ERROR(channel_.Charge(data->size(), cancel));
    blocks_read_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(data->size(), std::memory_order_relaxed);
    return data;
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

  void ResetStats() {
    blocks_read_.store(0);
    bytes_read_.store(0);
  }

  void set_bandwidth(int64_t bytes_per_sec) {
    channel_.set_bandwidth(bytes_per_sec);
  }

 private:
  mutable std::mutex mu_;
  // Stored blocks, shared with readers; null once freed.
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> blocks_;
  int64_t bytes_written_ = 0;
  int64_t bytes_freed_ = 0;

  BandwidthChannel channel_;
  std::atomic<int64_t> blocks_read_{0};
  std::atomic<int64_t> bytes_read_{0};
};

}  // namespace x100

#endif  // X100_STORAGE_SIMULATED_DISK_H_
