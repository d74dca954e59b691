#include "storage/file_block_device.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/config.h"
#include "common/hash.h"
#include "common/pod_serde.h"

namespace x100 {

namespace {

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

constexpr int64_t kSlotStride =
    kDiskBlockBytes + FileBlockDevice::kSlotHeaderBytes;

}  // namespace

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(
    const std::string& dir, int64_t bandwidth_bytes_per_sec) {
  const std::string path = dir + "/x100-data.blocks";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0600);
  if (fd < 0) {
    return Status::IoError(
        ErrnoMessage("cannot open data file " + path) +
        " (is the data_path directory present and writable?)");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IoError(ErrnoMessage("fstat " + path));
    ::close(fd);
    return s;
  }
  if (st.st_size % kSlotStride != 0) {
    ::close(fd);
    return Status::IoError(
        "data file " + path + " has size " + std::to_string(st.st_size) +
        ", not a whole number of " + std::to_string(kSlotStride) +
        "-byte slots — torn write or foreign file; refusing to open");
  }
  const int64_t next_slot = st.st_size / kSlotStride;
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, path, next_slot, bandwidth_bytes_per_sec));
}

Status FileBlockDevice::ChargeIo(size_t bytes, CancellationToken* cancel) {
  if (bandwidth_ <= 0) return Status::OK();
  using Clock = std::chrono::steady_clock;
  const auto cost = std::chrono::nanoseconds(static_cast<int64_t>(
      1e9 * static_cast<double>(bytes) / static_cast<double>(bandwidth_)));
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

FileBlockDevice::~FileBlockDevice() {
  // Durable data: close but never unlink — the whole point is that the
  // next Open on this directory finds the blocks again.
  if (fd_ >= 0) ::close(fd_);
}

void FileBlockDevice::set_fault_hook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

int64_t FileBlockDevice::file_bytes() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

int64_t FileBlockDevice::live_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_slot_ - static_cast<int64_t>(free_slots_.size());
}

void FileBlockDevice::RestoreAllocated(const std::vector<BlockId>& live) {
  std::vector<bool> used(static_cast<size_t>(next_slot_), false);
  for (BlockId id : live) {
    if (static_cast<int64_t>(id) < next_slot_) used[id] = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  free_slots_.clear();
  // Push high slots first so recycling hands out low slots first, keeping
  // the file compact under append-after-reopen workloads.
  for (int64_t s = next_slot_ - 1; s >= 0; --s) {
    if (!used[static_cast<size_t>(s)]) free_slots_.push_back(s);
  }
}

Status FileBlockDevice::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(ErrnoMessage("fdatasync " + path_));
  }
  return Status::OK();
}

Result<BlockId> FileBlockDevice::WriteBlock(std::vector<uint8_t> data) {
  if (data.size() > static_cast<size_t>(kDiskBlockBytes)) {
    return Status::InvalidArgument(
        "data block larger than kDiskBlockBytes: " +
        std::to_string(data.size()));
  }
  int64_t slot;
  bool recycled;
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = fault_hook_;
    recycled = !free_slots_.empty();
    if (recycled) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = next_slot_++;
    }
  }
  const BlockId id = static_cast<BlockId>(slot);
  // Return the slot to the free list on any failure so an aborted write
  // never leaks file space.
  auto fail = [this, slot](Status s) -> Result<BlockId> {
    std::lock_guard<std::mutex> lock(mu_);
    free_slots_.push_back(slot);
    return s;
  };
  if (hook) {
    const Status s = hook(Op::kWrite, id, &data);
    if (!s.ok()) return fail(s);
  }
  // Slot image: persisted header + payload, written in one pwrite so a
  // crash mid-write leaves either the old slot or a checksum-detectable
  // torn one — never a header that vouches for stale payload bytes.
  std::vector<uint8_t> slot_bytes;
  slot_bytes.reserve(kSlotHeaderBytes + data.size());
  serde::AppendPod(&slot_bytes, kSlotMagic);
  serde::AppendPod(&slot_bytes, static_cast<uint32_t>(data.size()));
  serde::AppendPod(&slot_bytes, HashBytes(data.data(), data.size()));
  slot_bytes.insert(slot_bytes.end(), data.begin(), data.end());
  const off_t off = static_cast<off_t>(slot) * kSlotStride;
  size_t done = 0;
  while (done < slot_bytes.size()) {
    const ssize_t n =
        ::pwrite(fd_, slot_bytes.data() + done, slot_bytes.size() - done,
                 off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(Status::IoError(ErrnoMessage("data block write failed")));
    }
    done += static_cast<size_t>(n);
  }
  // Keep the file a whole number of slots: a short payload in the highest
  // slot would otherwise leave a mid-slot EOF that the next Open rejects
  // as torn. next_slot_ is monotone and no pwrite lands past
  // next_slot_ * kSlotStride, so this never shrinks live data.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (::ftruncate(fd_, next_slot_ * kSlotStride) != 0) {
      return fail(Status::IoError(ErrnoMessage("data file extend failed")));
    }
  }
  bytes_written_.fetch_add(static_cast<int64_t>(data.size()),
                           std::memory_order_relaxed);
  if (recycled) slots_recycled_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Result<std::shared_ptr<const std::vector<uint8_t>>> FileBlockDevice::ReadBlock(
    BlockId id, CancellationToken* cancel) {
  if (cancel != nullptr) {
    X100_RETURN_IF_ERROR(cancel->Check());
  }
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int64_t>(id) >= next_slot_) {
      return Status::IoError("data block " + std::to_string(id) +
                             " beyond end of file " + path_);
    }
    hook = fault_hook_;
  }
  std::vector<uint8_t> slot_bytes(static_cast<size_t>(kSlotStride));
  const off_t off = static_cast<off_t>(id) * kSlotStride;
  size_t done = 0;
  while (done < slot_bytes.size()) {
    const ssize_t n =
        ::pread(fd_, slot_bytes.data() + done, slot_bytes.size() - done,
                off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("data block read failed"));
    }
    if (n == 0) break;  // EOF: a short final slot fails header checks below
    done += static_cast<size_t>(n);
  }
  slot_bytes.resize(done);
  if (hook) {
    X100_RETURN_IF_ERROR(hook(Op::kRead, id, &slot_bytes));
  }
  // Verify the persisted header before trusting a single payload byte.
  serde::Reader r{slot_bytes.data(), slot_bytes.size()};
  uint32_t magic = 0, length = 0;
  uint64_t checksum = 0;
  if (!r.TakePod(&magic) || !r.TakePod(&length) || !r.TakePod(&checksum)) {
    return Status::IoError("torn data block " + std::to_string(id) +
                           ": slot shorter than its header");
  }
  if (magic != kSlotMagic) {
    return Status::IoError("data block " + std::to_string(id) +
                           ": bad slot magic (freed, never written, or "
                           "foreign bytes)");
  }
  if (static_cast<int64_t>(length) > kDiskBlockBytes ||
      kSlotHeaderBytes + static_cast<size_t>(length) > slot_bytes.size()) {
    return Status::IoError("torn data block " + std::to_string(id) +
                           ": recorded length " + std::to_string(length) +
                           " exceeds slot bytes on disk");
  }
  std::vector<uint8_t> data(
      slot_bytes.begin() + kSlotHeaderBytes,
      slot_bytes.begin() + kSlotHeaderBytes + static_cast<int64_t>(length));
  if (HashBytes(data.data(), data.size()) != checksum) {
    return Status::IoError("corrupt data block " + std::to_string(id) +
                           ": checksum mismatch on read");
  }
  // Throttle AFTER the verified transfer so the charged bytes are the
  // payload actually delivered; the page cache makes the pread itself
  // near-instant, the channel wait is the modeled device time.
  X100_RETURN_IF_ERROR(ChargeIo(data.size(), cancel));
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(static_cast<int64_t>(data.size()),
                        std::memory_order_relaxed);
  return std::make_shared<const std::vector<uint8_t>>(std::move(data));
}

void FileBlockDevice::FreeBlock(BlockId id) {
  const int64_t slot = static_cast<int64_t>(id);
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= next_slot_) return;
  if (std::find(free_slots_.begin(), free_slots_.end(), slot) !=
      free_slots_.end()) {
    return;  // idempotent: double-free must not hand the slot out twice
  }
  free_slots_.push_back(slot);
  // Poison the magic so a read of a freed-but-not-yet-recycled slot fails
  // verification instead of serving the retired group's bytes.
  const uint32_t dead = 0;
  size_t done = 0;
  const off_t off = static_cast<off_t>(slot) * kSlotStride;
  const auto* p = reinterpret_cast<const uint8_t*>(&dead);
  while (done < sizeof(dead)) {
    const ssize_t n =
        ::pwrite(fd_, p + done, sizeof(dead) - done,
                 off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // best-effort: the catalog no longer references this slot
    }
    done += static_cast<size_t>(n);
  }
}

}  // namespace x100
