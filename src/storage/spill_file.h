// SpillFile: a spilled byte blob on a SpillDevice.
//
// The spill unit of the out-of-core executor is one serialized radix
// partition (join build rows + hashes, an aggregation GroupTable, a Grace
// probe-side partition chunk) or one sorted-run chunk. A SpillFile owns
// the device blocks of one such blob: Write splits the serialization into
// kDiskBlockBytes-sized blocks (the device's block-size contract), ReadAll
// reassembles it from the shared bytes the device returns — charging the
// device's IO cost, interruptible by the query's cancellation token like
// every other read in the engine. Writes can FAIL on a real device
// (ENOSPC); a failed Write frees whatever blocks it had already placed.
#ifndef X100_STORAGE_SPILL_FILE_H_
#define X100_STORAGE_SPILL_FILE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/result.h"
#include "storage/spill_device.h"

namespace x100 {

class SpillFile {
 public:
  SpillFile() = default;
  /// Owns its device blocks: destruction frees them (the spilled state of
  /// a query dies with the query's operator tree, so a long-lived
  /// Database running memory-limited queries does not accumulate spilled
  /// bytes on the device forever).
  ~SpillFile() { Free(); }

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  SpillFile(SpillFile&& other) noexcept
      : device_(other.device_),
        blocks_(std::move(other.blocks_)),
        bytes_(other.bytes_) {
    other.device_ = nullptr;
    other.blocks_.clear();
    other.bytes_ = 0;
  }
  SpillFile& operator=(SpillFile&& other) noexcept {
    if (this != &other) {
      Free();
      device_ = other.device_;
      blocks_ = std::move(other.blocks_);
      bytes_ = other.bytes_;
      other.device_ = nullptr;
      other.blocks_.clear();
      other.bytes_ = 0;
    }
    return *this;
  }

  /// Writes `size` bytes as a run of device blocks. A failed block write
  /// (a real disk filling up) releases the blocks already written and
  /// surfaces the device's error — the caller unwinds like any other IO
  /// failure.
  static Result<SpillFile> Write(SpillDevice* device, const uint8_t* data,
                                 size_t size) {
    SpillFile f;
    f.device_ = device;
    f.bytes_ = static_cast<int64_t>(size);
    for (size_t off = 0; off < size; off += kDiskBlockBytes) {
      const size_t n = std::min<size_t>(size - off, kDiskBlockBytes);
      BlockId id;
      X100_ASSIGN_OR_RETURN(
          id, device->Write(std::vector<uint8_t>(data + off, data + off + n)));
      f.blocks_.push_back(id);
    }
    return f;
  }

  static Result<SpillFile> Write(SpillDevice* device,
                                 const std::vector<uint8_t>& data) {
    return Write(device, data.data(), data.size());
  }

  /// Reassembles the blob. The per-block reads charge the device's IO
  /// cost and abort promptly when `cancel` fires.
  Result<std::vector<uint8_t>> ReadAll(
      CancellationToken* cancel = nullptr) const {
    std::vector<uint8_t> out;
    out.reserve(static_cast<size_t>(bytes_));
    for (const BlockId id : blocks_) {
      std::shared_ptr<const std::vector<uint8_t>> block;
      X100_ASSIGN_OR_RETURN(block, device_->Read(id, cancel));
      out.insert(out.end(), block->begin(), block->end());
    }
    if (out.size() != static_cast<size_t>(bytes_)) {
      return Status::IoError("spill file truncated: expected " +
                             std::to_string(bytes_) + " bytes, read " +
                             std::to_string(out.size()));
    }
    return out;
  }

  bool empty() const { return blocks_.empty(); }
  int64_t bytes() const { return bytes_; }
  size_t num_blocks() const { return blocks_.size(); }

  /// Releases the underlying blocks early (idempotent; the destructor
  /// calls it). Reads after Free fail cleanly. Block i holds
  /// kDiskBlockBytes except the blob's last, which holds the rest; a
  /// failed Write placed only full blocks.
  void Free() {
    if (device_ != nullptr) {
      for (size_t i = 0; i < blocks_.size(); i++) {
        const int64_t placed = static_cast<int64_t>(i) * kDiskBlockBytes;
        device_->Free(blocks_[i], std::min(kDiskBlockBytes, bytes_ - placed));
      }
    }
    blocks_.clear();
    bytes_ = 0;
    device_ = nullptr;
  }

 private:
  SpillDevice* device_ = nullptr;
  std::vector<BlockId> blocks_;
  int64_t bytes_ = 0;
};

}  // namespace x100

#endif  // X100_STORAGE_SPILL_FILE_H_
