// FileBlockDevice: the durable, file-backed home of base-table blocks.
//
// Where FileSpillDevice holds transient per-query state in an anonymous
// temp file (unlinked on destruction), this device is the opposite: it
// owns ONE named data file per Database (`<dir>/x100-data.blocks`) that
// must survive process restarts and be re-openable with nothing but the
// catalog's list of live block ids.
//
// Layout: fixed-size slots. Slot i starts at byte i * kSlotStride where
// kSlotStride = kDiskBlockBytes + kSlotHeaderBytes. Each slot begins with
// a 16-byte on-disk header:
//
//     [u32 magic][u32 length][u64 checksum]   then `length` payload bytes
//
// BlockId == slot index, so the catalog's block maps address slots
// directly and reopening needs no in-file index scan: next_slot_ derives
// from file size, and RestoreAllocated() rebuilds the free list as
// "every slot below next_slot_ the catalog does not claim". Persisting
// length + checksum IN the slot (the spill device keeps them in memory)
// is what makes cold reads verifiable: a torn write, a bit flip, or a
// stale slot served after misdirected IO all surface as kIoError, never
// as wrong query results.
//
// Slots freed by checkpoints (group rewrites retiring old blocks) are
// recycled, so the file is bounded by the table's live footprint, not by
// total bytes ever written. The same fault hook shape as FileSpillDevice
// lets tests inject ENOSPC and torn/corrupt reads deterministically.
#ifndef X100_STORAGE_FILE_BLOCK_DEVICE_H_
#define X100_STORAGE_FILE_BLOCK_DEVICE_H_

#include <atomic>
#include <chrono>
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
  /// returned to the free list). On kRead, `data` is the raw slot bytes
  /// (header + payload) just read, BEFORE verification — a hook may
  /// truncate or corrupt them to prove verification catches it.
  using FaultHook = std::function<Status(Op op, BlockId id,
                                         std::vector<uint8_t>* data)>;

  /// Opens (or creates) `<dir>/x100-data.blocks`. The directory must
  /// exist — a missing or unwritable data_path is a loud configuration
  /// error, not a silent fallback to RAM. An existing file's size must be
  /// a whole number of slots; anything else is a torn/foreign file and
  /// fails the open. `bandwidth_bytes_per_sec` > 0 throttles reads to
  /// that rate over a single shared channel (EngineConfig::disk_bandwidth
  /// — same model as SimulatedDisk), so benchmarks see a cold medium
  /// regardless of the OS page cache; 0 = unthrottled.
  static Result<std::unique_ptr<FileBlockDevice>> Open(
      const std::string& dir, int64_t bandwidth_bytes_per_sec = 0);

  ~FileBlockDevice() override;  // closes the fd; does NOT unlink

  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  Result<BlockId> WriteBlock(std::vector<uint8_t> data) override;
  Result<std::shared_ptr<const std::vector<uint8_t>>> ReadBlock(
      BlockId id, CancellationToken* cancel) override;
  void FreeBlock(BlockId id) override;

  /// Rebuilds the free list after a catalog load: every slot below the
  /// file's end that `live` does not contain becomes recyclable. Call
  /// once, right after Open, before any writes.
  void RestoreAllocated(const std::vector<BlockId>& live);

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
  FileBlockDevice(int fd, std::string path, int64_t next_slot,
                  int64_t bandwidth)
      : fd_(fd),
        path_(std::move(path)),
        next_slot_(next_slot),
        bandwidth_(bandwidth) {}

  /// Serializes throttled IO on one simulated channel (cf. SimulatedDisk):
  /// each transfer extends busy_until_ by bytes/bandwidth and waits its
  /// turn (interruptibly when a cancel token is supplied).
  Status ChargeIo(size_t bytes, CancellationToken* cancel);

  int fd_;
  std::string path_;

  mutable std::mutex mu_;  // slot allocation only; pread/pwrite run outside
  std::vector<int64_t> free_slots_;
  int64_t next_slot_;
  const int64_t bandwidth_;  // bytes/sec; 0 = unthrottled
  std::mutex io_mu_;
  std::chrono::steady_clock::time_point busy_until_{};
  FaultHook fault_hook_;

  std::atomic<int64_t> blocks_read_{0};
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> slots_recycled_{0};
};

}  // namespace x100

#endif  // X100_STORAGE_FILE_BLOCK_DEVICE_H_
