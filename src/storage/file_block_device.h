// FileBlockDevice: the one fixed-slot file behind every on-disk block.
//
// The paper's recurring warning is that researchers skip the unglamorous
// systems work — IO paths, error handling, resource hygiene — that turns
// a prototype into a product. This class is the engine's one
// implementation of that work, with two lifetimes:
//
//  * durable (Open): `<dir>/x100-data.blocks`, the base-table store. It
//    survives restarts and reopens with nothing but the catalog's list of
//    live block ids; reads are throttled by EngineConfig::disk_bandwidth.
//  * temp (CreateTemp): `<dir>/x100-spill-<pid>-<seq>.tmp`, the spill file
//    of one Database, created O_EXCL, unlinked on destruction and never
//    throttled.
//
// Layout: fixed-size slots. Slot i starts at byte i * kSlotStride where
// kSlotStride = kDiskBlockBytes + kSlotHeaderBytes. Each slot begins with
// a 16-byte header:
//
//     [u32 magic][u32 length][u64 checksum]   then `length` payload bytes
//
// BlockId == slot index, so the catalog's block maps address slots
// directly. A write stores header and payload with one pwritev; a read
// preads the header, then exactly `length` payload bytes, and verifies
// magic, length and checksum before a payload byte is trusted. A torn
// write, a bit flip, a freed slot or a file unlinked behind the open
// descriptor surfaces as kIoError, never as wrong query results.
//
// An in-memory live flag per slot backs the allocator: a freed slot reads
// as kIoError and goes on a free list, so the file is bounded by the peak
// live footprint, not by total bytes ever written. Open treats every
// existing slot as live until RestoreAllocated says otherwise. A fault
// hook lets tests inject ENOSPC and torn or corrupt reads
// deterministically.
#ifndef X100_STORAGE_FILE_BLOCK_DEVICE_H_
#define X100_STORAGE_FILE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/block_device.h"

namespace x100 {

class FileBlockDevice : public BlockDevice {
 public:
  enum class Op { kWrite, kRead };

  /// Called on every block IO. On kWrite, `data` is the payload about to
  /// be written; returning non-OK injects a write failure (the slot is
  /// returned to the free list). On kRead, `data` is the payload just
  /// read, BEFORE the length and checksum checks — a hook may truncate or
  /// corrupt it to prove verification catches it, or return a status
  /// directly.
  using FaultHook = std::function<Status(Op op, BlockId id,
                                         std::vector<uint8_t>* data)>;

  /// Opens (or creates) the durable `<dir>/x100-data.blocks`. The
  /// directory must exist — a missing or unwritable data_path is a loud
  /// configuration error, not a silent fallback to RAM. An existing
  /// file's size must be a whole number of slots; anything else is a
  /// torn/foreign file and fails the open. `bandwidth_bytes_per_sec` > 0
  /// throttles reads (BandwidthChannel), so benchmarks see a cold medium
  /// regardless of the OS page cache; 0 = unthrottled.
  static Result<std::unique_ptr<FileBlockDevice>> Open(
      const std::string& dir, int64_t bandwidth_bytes_per_sec = 0);

  /// Creates a temp `<dir>/x100-spill-<pid>-<seq>.tmp`, removed when the
  /// device is destroyed. The directory must exist, as for Open.
  static Result<std::unique_ptr<FileBlockDevice>> CreateTemp(
      const std::string& dir);

  ~FileBlockDevice() override;

  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  Result<BlockId> WriteBlock(std::vector<uint8_t> data) override;
  Result<std::shared_ptr<const std::vector<uint8_t>>> ReadBlock(
      BlockId id, CancellationToken* cancel) override;
  void FreeBlock(BlockId id) override;

  /// After a catalog load: the slots in `live` stay live and every other
  /// slot becomes recyclable. A live id past the end of the file (a
  /// truncated data file) is kIoError naming the first missing block, and
  /// changes nothing. Call once, right after Open, before any writes.
  Status RestoreAllocated(const std::vector<BlockId>& live);

  /// Flushes file contents to stable storage (fdatasync). Called by
  /// checkpoints before the catalog commits to the new block map.
  Status Sync();

  int64_t blocks_read() const override {
    return blocks_read_.load(std::memory_order_relaxed);
  }
  int64_t bytes_read() const override {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  int64_t bytes_written() const override {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }
  /// Current size of the backing file — bounded by the peak number of
  /// concurrently-live slots (freed slots are recycled in place).
  int64_t file_bytes() const;
  /// How many writes reused a freed slot instead of growing the file.
  int64_t slots_recycled() const {
    return slots_recycled_.load(std::memory_order_relaxed);
  }
  /// Slots holding a block that has not been freed.
  int64_t live_slots() const;

  void set_fault_hook(FaultHook hook);

  /// On-disk slot geometry (exposed for tests that corrupt slots).
  static constexpr uint32_t kSlotMagic = 0x58424C4Bu;  // "XBLK"
  static constexpr int64_t kSlotHeaderBytes = 16;

 private:
  FileBlockDevice(int fd, std::string path, int64_t slots, int64_t bandwidth,
                  bool temp)
      : fd_(fd),
        path_(std::move(path)),
        temp_(temp),
        live_(static_cast<size_t>(slots), true),
        channel_(bandwidth) {}

  const int fd_;
  const std::string path_;
  const bool temp_;  // unlinked on destruction

  mutable std::mutex mu_;  // allocation and live flags; IO runs outside
  std::vector<bool> live_;  // one flag per slot the file spans
  std::vector<int64_t> free_slots_;
  FaultHook fault_hook_;
  BandwidthChannel channel_;

  std::atomic<int64_t> blocks_read_{0};
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> slots_recycled_{0};
};

}  // namespace x100

#endif  // X100_STORAGE_FILE_BLOCK_DEVICE_H_
