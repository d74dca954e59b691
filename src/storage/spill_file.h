// SpillFile and SpillRun: spilled state on a SpillDevice.
//
// A SpillFile owns the device blocks of one byte blob: Write splits it
// into kDiskBlockBytes-sized blocks (the device's block-size contract),
// ReadAll reassembles it from the shared bytes the device returns —
// charging the device's IO cost, interruptible by the query's
// cancellation token like every other read in the engine. Writes can
// FAIL on a real device (ENOSPC); a failed Write frees whatever blocks it
// had already placed.
//
// A SpillRun is the spill unit of every pipeline breaker: one spilled
// radix partition (join build rows + hashes, aggregation groups, Grace
// probe rows) or one sorted run. It is a list of chunks, one SpillFile
// each, holding at most kSpillChunkRows rows (groups, for an
// aggregation): a write at the moment the memory budget ran out
// serializes one bounded chunk at a time, and a reload holds one bounded
// chunk resident. The run counts the rows, bytes and chunks written to
// it — what a breaker's spill profile entry reports.
#ifndef X100_STORAGE_SPILL_FILE_H_
#define X100_STORAGE_SPILL_FILE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
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

/// Rows per spill chunk: large enough to amortize the per-chunk blocks,
/// small enough that a write's transient serialization and a reload's
/// resident chunk stay a small slice of the memory budget.
inline constexpr int64_t kSpillChunkRows = 4096;

class SpillRun {
 public:
  /// Appends the serialization of rows [begin, end) of the state being
  /// spilled to `out`.
  using Serializer = std::function<void(int64_t begin, int64_t end,
                                        std::vector<uint8_t>* out)>;

  /// Writes rows [0, n) through `serialize` as chunks of at most
  /// kSpillChunkRows rows. A failed chunk write frees the whole run and
  /// surfaces the device's error: the query unwinds, and none of its
  /// spilled bytes outlive the failure.
  Status Append(SpillDevice* device, int64_t n, const Serializer& serialize) {
    std::vector<uint8_t> blob;
    for (int64_t begin = 0; begin < n; begin += kSpillChunkRows) {
      const int64_t end = std::min(n, begin + kSpillChunkRows);
      blob.clear();
      serialize(begin, end, &blob);
      Result<SpillFile> file = SpillFile::Write(device, blob);
      if (!file.ok()) {
        Free();
        return file.status();
      }
      bytes_ += file->bytes();
      chunks_.push_back(std::move(file).value());
    }
    rows_ += n;
    return Status::OK();
  }

  /// Moves `other`'s chunks (and counts) to the end of this run.
  void Splice(SpillRun&& other) {
    for (SpillFile& f : other.chunks_) chunks_.push_back(std::move(f));
    rows_ += other.rows_;
    bytes_ += other.bytes_;
    other.chunks_.clear();
    other.rows_ = other.bytes_ = 0;
  }

  /// Reads chunk `i` back; aborts promptly when `cancel` fires.
  Result<std::vector<uint8_t>> Read(size_t i,
                                    CancellationToken* cancel) const {
    return chunks_[i].ReadAll(cancel);
  }
  /// Reads chunk `i` and frees its blocks: a reader that consumes the
  /// run front to back returns the device space as it goes.
  Result<std::vector<uint8_t>> Take(size_t i, CancellationToken* cancel) {
    Result<std::vector<uint8_t>> blob = chunks_[i].ReadAll(cancel);
    chunks_[i].Free();
    return blob;
  }

  size_t chunks() const { return chunks_.size(); }
  bool empty() const { return chunks_.empty(); }
  int64_t chunk_bytes(size_t i) const { return chunks_[i].bytes(); }
  /// Rows and serialized bytes written (Take does not lower them).
  int64_t rows() const { return rows_; }
  int64_t bytes() const { return bytes_; }

  /// Frees every chunk and forgets the counts (the destructor frees too).
  void Free() {
    chunks_.clear();
    rows_ = bytes_ = 0;
  }

 private:
  std::vector<SpillFile> chunks_;
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
};

}  // namespace x100

#endif  // X100_STORAGE_SPILL_FILE_H_
