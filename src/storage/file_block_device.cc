#include "storage/file_block_device.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/hash.h"

namespace x100 {

namespace {

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

constexpr int64_t kSlotStride =
    kDiskBlockBytes + FileBlockDevice::kSlotHeaderBytes;

/// The durable header at the start of every slot.
struct SlotHeader {
  uint32_t magic;
  uint32_t length;
  uint64_t checksum;
};
static_assert(sizeof(SlotHeader) == FileBlockDevice::kSlotHeaderBytes,
              "slot header layout");

off_t SlotOffset(int64_t slot) {
  return static_cast<off_t>(slot) * kSlotStride;
}

/// Reads up to `n` bytes at `off`; fewer only at end of file.
Result<size_t> PreadFully(int fd, void* buf, size_t n, off_t off) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, static_cast<uint8_t*>(buf) + done,
                              n - done, off + static_cast<off_t>(done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("block read failed"));
    }
    if (r == 0) break;
    done += static_cast<size_t>(r);
  }
  return done;
}

/// Writes every byte of `iov[0..cnt)` at `off`, resuming short writes.
Status PwritevFully(int fd, struct iovec* iov, int cnt, off_t off) {
  while (cnt > 0) {
    const ssize_t r = ::pwritev(fd, iov, cnt, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("block write failed"));
    }
    if (r == 0) return Status::IoError("block write made no progress");
    off += r;
    auto left = static_cast<size_t>(r);
    for (; cnt > 0 && left >= iov->iov_len; ++iov, --cnt) left -= iov->iov_len;
    if (cnt > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

/// Per-process sequence so several Databases sharing one spill dir never
/// collide (O_EXCL would reject, but distinct names avoid the retry).
std::atomic<uint64_t> g_temp_seq{0};

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
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, path, st.st_size / kSlotStride,
                          bandwidth_bytes_per_sec, /*temp=*/false));
}

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::CreateTemp(
    const std::string& dir) {
  const std::string path =
      dir + "/x100-spill-" + std::to_string(::getpid()) + "-" +
      std::to_string(g_temp_seq.fetch_add(1)) + ".tmp";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0) {
    return Status::IoError(
        ErrnoMessage("cannot create spill file " + path) +
        " (is the spill_path directory present and writable?)");
  }
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, path, 0, 0, /*temp=*/true));
}

FileBlockDevice::~FileBlockDevice() {
  ::close(fd_);
  // Durable data stays for the next Open; a temp file dies with its
  // device (harmless ENOENT if it was already unlinked).
  if (temp_) ::unlink(path_.c_str());
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
  return static_cast<int64_t>(live_.size() - free_slots_.size());
}

Status FileBlockDevice::RestoreAllocated(const std::vector<BlockId>& live) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t slots = live_.size();
  BlockId missing = std::numeric_limits<BlockId>::max();
  for (BlockId id : live) {
    if (id >= slots) missing = std::min(missing, id);
  }
  if (missing != std::numeric_limits<BlockId>::max()) {
    return Status::IoError(
        "catalog names data block " + std::to_string(missing) +
        " beyond the end of data file " + path_ + " (" +
        std::to_string(slots) + " slots) — truncated or foreign file");
  }
  live_.assign(slots, false);
  for (BlockId id : live) live_[id] = true;
  // Push high slots first so recycling hands out low slots first, keeping
  // the file compact under append-after-reopen workloads.
  free_slots_.clear();
  for (size_t s = slots; s-- > 0;) {
    if (!live_[s]) free_slots_.push_back(static_cast<int64_t>(s));
  }
  return Status::OK();
}

Status FileBlockDevice::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(ErrnoMessage("fdatasync " + path_));
  }
  return Status::OK();
}

Result<BlockId> FileBlockDevice::WriteBlock(std::vector<uint8_t> data) {
  X100_RETURN_IF_ERROR(CheckBlockSize(data.size()));
  int64_t slot = 0;
  bool recycled = false;
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = fault_hook_;
    recycled = !free_slots_.empty();
    if (recycled) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      // Grow the file by one whole slot before using it, so it always
      // spans a whole number of slots and Open never meets a mid-slot EOF.
      slot = static_cast<int64_t>(live_.size());
      if (::ftruncate(fd_, SlotOffset(slot + 1)) != 0) {
        return Status::IoError(ErrnoMessage("block file extend failed"));
      }
      live_.push_back(false);
    }
  }
  // Return the slot to the free list on any failure so an aborted write
  // never leaks file space.
  auto fail = [this, slot](Status s) -> Result<BlockId> {
    std::lock_guard<std::mutex> lock(mu_);
    free_slots_.push_back(slot);
    return s;
  };
  const BlockId id = static_cast<BlockId>(slot);
  if (hook) {
    const Status s = hook(Op::kWrite, id, &data);
    if (!s.ok()) return fail(s);
  }
  // Header and payload in one pwritev: a crash mid-write leaves either
  // the old slot or a checksum-detectable torn one — never a header that
  // vouches for stale payload bytes.
  SlotHeader header{kSlotMagic, static_cast<uint32_t>(data.size()),
                    HashBytes(data.data(), data.size())};
  struct iovec iov[2] = {{&header, sizeof(header)},
                         {data.data(), data.size()}};
  const Status written = PwritevFully(fd_, iov, 2, SlotOffset(slot));
  if (!written.ok()) return fail(written);
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_[id] = true;
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
  auto fail = [&](const std::string& why) {
    return Status::IoError("block " + std::to_string(id) + " of " + path_ +
                           ": " + why);
  };
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= live_.size()) return fail("beyond end of file");
    if (!live_[id]) return fail("freed or never written");
    hook = fault_hook_;
  }
  // Unlink-behind-open: the fd would happily keep serving the orphaned
  // inode, but spilled state an operator believes deleted (a "cleaned"
  // temp dir) must not be silently depended on. A durable file whose
  // directory vanished keeps serving the running process's tables; that
  // failure surfaces at the next catalog save instead.
  struct stat st = {};
  if (temp_ && (::fstat(fd_, &st) != 0 || st.st_nlink == 0)) {
    return fail("file was unlinked behind the open descriptor");
  }
  SlotHeader header{};
  size_t got = 0;
  X100_ASSIGN_OR_RETURN(
      got, PreadFully(fd_, &header, sizeof(header), SlotOffset(id)));
  if (got < sizeof(header)) return fail("torn slot shorter than its header");
  if (header.magic != kSlotMagic) {
    return fail("bad slot magic (freed, never written, or foreign bytes)");
  }
  if (header.length > static_cast<uint32_t>(kDiskBlockBytes)) {
    return fail("torn slot: recorded length " +
                std::to_string(header.length) + " exceeds a slot");
  }
  std::vector<uint8_t> data(header.length);
  X100_ASSIGN_OR_RETURN(got, PreadFully(fd_, data.data(), data.size(),
                                        SlotOffset(id) + kSlotHeaderBytes));
  data.resize(got);
  if (hook) {
    X100_RETURN_IF_ERROR(hook(Op::kRead, id, &data));
  }
  if (data.size() != header.length) {
    return fail("short read: expected " + std::to_string(header.length) +
                " bytes, got " + std::to_string(data.size()));
  }
  if (HashBytes(data.data(), data.size()) != header.checksum) {
    return fail("checksum mismatch on read (corrupt block)");
  }
  // Throttle AFTER the verified transfer so the charged bytes are the
  // payload actually delivered; the page cache makes the pread itself
  // near-instant, the channel wait is the modeled device time.
  X100_RETURN_IF_ERROR(channel_.Charge(data.size(), cancel));
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(static_cast<int64_t>(data.size()),
                        std::memory_order_relaxed);
  return std::make_shared<const std::vector<uint8_t>>(std::move(data));
}

void FileBlockDevice::FreeBlock(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Idempotent: a double free must not hand the slot out twice.
  if (id >= live_.size() || !live_[id]) return;
  live_[id] = false;
  if (!temp_) {
    // The live flag already fails reads; a durable slot also loses its
    // magic (best effort), so its bytes cannot vouch for a retired group
    // to anything that reads the file later. A temp file dies with this
    // device, so there the flag is the whole guard and a freed spill
    // block costs no syscall.
    uint32_t dead = 0;
    struct iovec iov = {&dead, sizeof(dead)};
    (void)PwritevFully(fd_, &iov, 1, SlotOffset(static_cast<int64_t>(id)));
  }
  free_slots_.push_back(static_cast<int64_t>(id));
}

}  // namespace x100
