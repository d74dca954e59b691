// BlockDevice: the block-store contract behind base-table storage.
//
// Table chunks (compressed column data, storage/table.h) are placed as
// runs of blocks no larger than kDiskBlockBytes and read back through the
// BufferManager. PRs 1-8 hardwired that traffic into the in-RAM
// SimulatedDisk, so "the column store" was really a decode cache over
// process memory. This interface lets the engine plug in a durable
// file-backed device (storage/file_block_device.h) while SimulatedDisk
// stays the default for hermetic tests.
//
// Contract (mirrors SpillDevice, storage/spill_device.h):
//  * Write may FAIL (a real disk runs out of space); callers must treat a
//    failed block write like any other IO error and unwind, never crash.
//  * Read returns exactly the bytes written for that id, or kIoError — a
//    freed, truncated, corrupted or vanished block must surface as a
//    clean error, not as wrong bytes (devices are expected to verify).
//    The bytes are shared and immutable: the buffer pool caches the very
//    object the device returned, so a RAM-backed device can hand out its
//    stored block and the pool holds a second reference, not a copy.
//  * Free releases the block's storage for recycling. Unlike spill
//    blocks, table blocks are only freed by checkpoints retiring a
//    rewritten group — the caller must guarantee no reader still resolves
//    the id (quiesced checkpoint contract, pdt/transaction.h).
//  * All three are thread-safe: concurrent scans fault blocks in while a
//    builder appends a new table.
#ifndef X100_STORAGE_BLOCK_DEVICE_H_
#define X100_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "storage/spill_device.h"  // BlockId

namespace x100 {

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

  /// Releases the block's storage (idempotent per id); reading a freed id
  /// is an error. Checkpoint-only — see the class comment.
  virtual void FreeBlock(BlockId id) = 0;

  // Accounting, used by tests/benches and the monitoring counters.
  virtual int64_t blocks_read() const = 0;
  virtual int64_t bytes_read() const = 0;
  virtual int64_t bytes_written() const = 0;
};

}  // namespace x100

#endif  // X100_STORAGE_BLOCK_DEVICE_H_
