// SpillDevice: the spill accounting view SpillFile writes through.
//
// The out-of-core executor spills serialized radix partitions, sorted-run
// chunks and Grace probe-side partitions as runs of blocks on a
// BlockDevice (storage/block_device.h): the Database's in-RAM
// SimulatedDisk by default, or a temp FileBlockDevice under
// EngineConfig::spill_path, so that memory_limit bounds the process's
// real footprint. The device contract (fallible writes, verified reads,
// recycling frees) is the device's own; this view adds only what spill
// hygiene needs on top of it: the spill bytes written, read and still in
// use, counted apart from any table IO the same device carries.
//
// Spill ids are the device's block ids, so a freed id may be handed out
// again by a later write. SpillFile is the only holder of spill ids and
// forgets them on Free, so no reader can observe the reuse.
#ifndef X100_STORAGE_SPILL_DEVICE_H_
#define X100_STORAGE_SPILL_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/block_device.h"

namespace x100 {

class SpillDevice {
 public:
  explicit SpillDevice(BlockDevice* device) : device_(device) {}
  /// A view that owns its device (the Database's temp spill files).
  explicit SpillDevice(std::unique_ptr<BlockDevice> device)
      : owned_(std::move(device)), device_(owned_.get()) {}

  Result<BlockId> Write(std::vector<uint8_t> data) {
    const auto n = static_cast<int64_t>(data.size());
    BlockId id = 0;
    X100_ASSIGN_OR_RETURN(id, device_->WriteBlock(std::move(data)));
    written_.fetch_add(n, std::memory_order_relaxed);
    in_use_.fetch_add(n, std::memory_order_relaxed);
    return id;
  }

  Result<std::shared_ptr<const std::vector<uint8_t>>> Read(
      BlockId id, CancellationToken* cancel) {
    std::shared_ptr<const std::vector<uint8_t>> data;
    X100_ASSIGN_OR_RETURN(data, device_->ReadBlock(id, cancel));
    read_.fetch_add(static_cast<int64_t>(data->size()),
                    std::memory_order_relaxed);
    return data;
  }

  /// Frees a block Write stored `bytes` bytes under.
  void Free(BlockId id, int64_t bytes) {
    device_->FreeBlock(id);
    in_use_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  BlockDevice* device() const { return device_; }
  int64_t spill_bytes_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  int64_t spill_bytes_read() const {
    return read_.load(std::memory_order_relaxed);
  }
  /// Bytes of live (written, not yet freed) spill blocks. Returns to zero
  /// once every SpillFile of a query has been destroyed.
  int64_t spill_bytes_in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<BlockDevice> owned_;
  BlockDevice* device_;
  std::atomic<int64_t> written_{0};
  std::atomic<int64_t> read_{0};
  std::atomic<int64_t> in_use_{0};
};

}  // namespace x100

#endif  // X100_STORAGE_SPILL_DEVICE_H_
