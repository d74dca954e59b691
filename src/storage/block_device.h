// BlockDevice: the one block-store contract, and the bandwidth model its
// devices share.
//
// Everything the engine keeps "on disk" goes through this interface:
// table chunks (compressed column data, storage/table.h), placed as runs
// of blocks no larger than kDiskBlockBytes and read back through the
// BufferManager, and the out-of-core executor's spilled state, which
// SpillFile writes through a SpillDevice view (storage/spill_device.h).
// Two media implement it:
//  * SimulatedDisk (storage/simulated_disk.h) keeps blocks in RAM — the
//    default, hermetic for tests;
//  * FileBlockDevice (storage/file_block_device.h) keeps them in one
//    fixed-slot file with a durable lifetime (the base-table store under
//    data_path) or a temp one (a spill file under spill_path).
//
// Contract:
//  * Write may FAIL (a real disk runs out of space); callers must treat a
//    failed block write like any other IO error and unwind, never crash.
//    A block larger than kDiskBlockBytes is kInvalidArgument on every
//    device, so a caller that forgets to split fails in RAM too.
//  * Read returns exactly the bytes written for that id, or kIoError — a
//    freed, truncated, corrupted or vanished block must surface as a
//    clean error, not as wrong bytes (devices are expected to verify).
//    The bytes are shared and immutable: the buffer pool caches the very
//    object the device returned, so a RAM-backed device can hand out its
//    stored block and the pool holds a second reference, not a copy.
//  * Free releases the block's storage for recycling; a later write may
//    hand the id out again. The caller guarantees that no reader still
//    resolves a freed id: checkpoints retire table blocks only when
//    quiesced (pdt/transaction.h), and a SpillFile frees only the blocks
//    it owns.
//  * All three are thread-safe: concurrent scans fault blocks in while a
//    builder appends a new table, and drain workers spill while merge
//    tasks reload other partitions.
#ifndef X100_STORAGE_BLOCK_DEVICE_H_
#define X100_STORAGE_BLOCK_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/result.h"
#include "common/status.h"

namespace x100 {

using BlockId = uint64_t;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Stores `data` (size <= kDiskBlockBytes) and returns its id, or an IO
  /// error (ENOSPC and friends) when the device cannot take it.
  virtual Result<BlockId> WriteBlock(std::vector<uint8_t> data) = 0;

  /// Returns the block's bytes (never null). The wait (simulated
  /// bandwidth or real disk) is interruptible via `cancel` (may be
  /// nullptr).
  virtual Result<std::shared_ptr<const std::vector<uint8_t>>> ReadBlock(
      BlockId id, CancellationToken* cancel = nullptr) = 0;

  /// Releases the block's storage (idempotent per id). See the contract
  /// above for who may free.
  virtual void FreeBlock(BlockId id) = 0;

  // Accounting of payload bytes, used by tests/benches and the
  // monitoring counters.
  virtual int64_t blocks_read() const = 0;
  virtual int64_t bytes_read() const = 0;
  virtual int64_t bytes_written() const = 0;
};

/// The block-size check every device applies on write.
inline Status CheckBlockSize(size_t bytes) {
  if (bytes <= static_cast<size_t>(kDiskBlockBytes)) return Status::OK();
  return Status::InvalidArgument("block larger than kDiskBlockBytes: " +
                                 std::to_string(bytes));
}

/// Single-channel bandwidth model (EngineConfig::disk_bandwidth): each
/// read occupies the channel for bytes/bandwidth and concurrent readers
/// queue behind `busy_until_`, so benchmarks see a bandwidth-limited
/// medium whatever the page cache holds. Both devices own one.
class BandwidthChannel {
 public:
  /// bytes_per_sec <= 0 means unthrottled.
  explicit BandwidthChannel(int64_t bytes_per_sec)
      : bandwidth_(bytes_per_sec) {}

  /// Waits out `bytes` of channel time, interruptibly via `cancel` (may be
  /// nullptr). Unthrottled, it returns before taking the lock.
  Status Charge(size_t bytes, CancellationToken* cancel) {
    const int64_t bw = bandwidth_;
    if (bw <= 0) return Status::OK();
    using Clock = std::chrono::steady_clock;
    const auto cost = std::chrono::nanoseconds(
        static_cast<int64_t>(1e9 * static_cast<double>(bytes) / bw));
    Clock::time_point wait_until;
    {
      std::lock_guard<std::mutex> lock(mu_);
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

  void set_bandwidth(int64_t bytes_per_sec) { bandwidth_ = bytes_per_sec; }

 private:
  int64_t bandwidth_;
  std::mutex mu_;
  std::chrono::steady_clock::time_point busy_until_{};
};

}  // namespace x100

#endif  // X100_STORAGE_BLOCK_DEVICE_H_
