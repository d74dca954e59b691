#include "compression/codec.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <unordered_map>

#include "common/bitutil.h"
#include "compression/bitpack.h"

namespace x100 {

const char* CodecName(CodecId c) {
  switch (c) {
    case CodecId::kPlain: return "plain";
    case CodecId::kPfor: return "pfor";
    case CodecId::kPforDelta: return "pfor-delta";
    case CodecId::kPdict: return "pdict";
    case CodecId::kRle: return "rle";
  }
  return "?";
}

namespace {

void AppendBytes(std::vector<uint8_t>* out, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  out->insert(out->end(), b, b + n);
}

template <typename T>
void AppendValue(std::vector<uint8_t>* out, T v) {
  AppendBytes(out, &v, sizeof(v));
}

void WriteHeader(std::vector<uint8_t>* out, CodecId codec, uint8_t width,
                 uint32_t n) {
  CodecHeader h{codec, width, 0, n};
  AppendBytes(out, &h, sizeof(h));
}

// ---------------------------------------------------------------------------
// Shared PFOR core over u64 residuals.
//
// Chooses the bit width minimizing  n*width/8 + exceptions*(4+8)  bytes,
// packs in-range residuals, and patches out-of-range ones ("exceptions")
// from a (position, value) side list — the PFOR design of [8].
// ---------------------------------------------------------------------------

struct PforPlan {
  int width;
  uint32_t n_exceptions;
};

PforPlan PlanPfor(const uint64_t* vals, int n) {
  // Histogram of required bit counts, then suffix sums give the exception
  // count for every candidate width in one pass.
  int64_t hist[65] = {0};
  for (int i = 0; i < n; i++) hist[BitsNeeded(vals[i])]++;
  int64_t exceptions_above[66];
  exceptions_above[65] = 0;
  for (int w = 64; w >= 0; w--) {
    exceptions_above[w] = exceptions_above[w + 1] + hist[w];
  }
  // exceptions for width w = count of values needing > w bits.
  int best_w = 64;
  int64_t best_cost = -1;
  for (int w = 0; w <= 64; w++) {
    const int64_t exc = exceptions_above[w + 1];
    const int64_t cost =
        (static_cast<int64_t>(n) * w + 7) / 8 + exc * (4 + 8);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return PforPlan{best_w, static_cast<uint32_t>(exceptions_above[best_w + 1])};
}

// Payload: [u64 base][u32 n_exc][slots][exc_pos u32…][exc_val u64…]
void EncodePforU64(const uint64_t* vals, int n, uint64_t base,
                   CodecId codec, std::vector<uint8_t>* out) {
  const PforPlan plan = PlanPfor(vals, n);
  WriteHeader(out, codec, static_cast<uint8_t>(plan.width),
              static_cast<uint32_t>(n));
  AppendValue<uint64_t>(out, base);
  AppendValue<uint32_t>(out, plan.n_exceptions);

  const uint64_t mask =
      plan.width == 64 ? ~0ull
                       : (plan.width == 0 ? 0 : (1ull << plan.width) - 1);
  std::vector<uint64_t> slots(n);
  std::vector<uint32_t> exc_pos;
  std::vector<uint64_t> exc_val;
  exc_pos.reserve(plan.n_exceptions);
  exc_val.reserve(plan.n_exceptions);
  for (int i = 0; i < n; i++) {
    if (BitsNeeded(vals[i]) > plan.width) {
      slots[i] = 0;
      exc_pos.push_back(static_cast<uint32_t>(i));
      exc_val.push_back(vals[i]);
    } else {
      slots[i] = vals[i] & mask;
    }
  }
  const size_t packed = PackedBytes(n, plan.width);
  const size_t slot_off = out->size();
  out->resize(slot_off + packed);
  BitPack(slots.data(), n, plan.width, out->data() + slot_off);
  AppendBytes(out, exc_pos.data(), exc_pos.size() * sizeof(uint32_t));
  AppendBytes(out, exc_val.data(), exc_val.size() * sizeof(uint64_t));
}

template <typename T>
uint64_t AsU64(T v) {
  if constexpr (std::is_same_v<T, double>) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  } else {
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  }
}

template <typename T>
T FromU64(uint64_t v) {
  if constexpr (std::is_same_v<T, double>) {
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
  } else {
    return static_cast<T>(v);
  }
}

// ---------------------------------------------------------------------------
// RLE: [u32 nruns][(T value, u32 count)…]
// ---------------------------------------------------------------------------

template <typename T>
void EncodeRle(const T* in, int n, std::vector<uint8_t>* out) {
  std::vector<std::pair<T, uint32_t>> runs;
  for (int i = 0; i < n;) {
    int j = i + 1;
    while (j < n && in[j] == in[i]) j++;
    runs.emplace_back(in[i], static_cast<uint32_t>(j - i));
    i = j;
  }
  WriteHeader(out, CodecId::kRle, 0, static_cast<uint32_t>(n));
  AppendValue<uint32_t>(out, static_cast<uint32_t>(runs.size()));
  for (const auto& [v, c] : runs) {
    AppendValue<T>(out, v);
    AppendValue<uint32_t>(out, c);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public typed entry points
// ---------------------------------------------------------------------------

template <typename T>
Status CompressColumn(CodecId codec, const T* in, int n,
                      std::vector<uint8_t>* out) {
  switch (codec) {
    case CodecId::kPlain:
      WriteHeader(out, CodecId::kPlain, 0, static_cast<uint32_t>(n));
      AppendBytes(out, in, static_cast<size_t>(n) * sizeof(T));
      return Status::OK();
    case CodecId::kRle:
      EncodeRle(in, n, out);
      return Status::OK();
    case CodecId::kPfor: {
      if constexpr (std::is_same_v<T, double>) {
        return Status::InvalidArgument("pfor requires integer data");
      } else {
        if (n == 0) {
          WriteHeader(out, CodecId::kPlain, 0, 0);
          return Status::OK();
        }
        T base = in[0];
        for (int i = 1; i < n; i++) base = std::min(base, in[i]);
        std::vector<uint64_t> resid(n);
        for (int i = 0; i < n; i++) {
          resid[i] = AsU64(in[i]) - AsU64(base);  // mod-2^64 FOR residual
        }
        EncodePforU64(resid.data(), n, AsU64(base), CodecId::kPfor, out);
        return Status::OK();
      }
    }
    case CodecId::kPforDelta: {
      if constexpr (std::is_same_v<T, double>) {
        return Status::InvalidArgument("pfor-delta requires integer data");
      } else {
        if (n == 0) {
          WriteHeader(out, CodecId::kPlain, 0, 0);
          return Status::OK();
        }
        // Residual 0 is the first value's placeholder; residual i>0 is the
        // zigzag of the consecutive delta.
        std::vector<uint64_t> resid(n);
        resid[0] = 0;
        for (int i = 1; i < n; i++) {
          const int64_t d = static_cast<int64_t>(AsU64(in[i]) -
                                                 AsU64(in[i - 1]));
          resid[i] = ZigZagEncode(d);
        }
        EncodePforU64(resid.data(), n, AsU64(in[0]), CodecId::kPforDelta,
                      out);
        return Status::OK();
      }
    }
    case CodecId::kPdict:
      return Status::InvalidArgument("pdict is a string codec");
  }
  return Status::InvalidArgument("unknown codec");
}

Result<CodecHeader> PeekHeader(const uint8_t* data, size_t len) {
  if (len < sizeof(CodecHeader)) {
    return Status::IoError("chunk smaller than codec header");
  }
  CodecHeader h;
  std::memcpy(&h, data, sizeof(h));
  return h;
}

template <typename T>
CodecId ChooseCodec(const T* in, int n) {
  if (n == 0) return CodecId::kPlain;
  // Run statistics (one pass): run count and sortedness.
  int64_t nruns = 1;
  bool sorted = true;
  for (int i = 1; i < n; i++) {
    nruns += in[i] != in[i - 1];
    sorted &= !(in[i] < in[i - 1]);
  }
  const int64_t plain_bytes = static_cast<int64_t>(n) * sizeof(T);
  const int64_t rle_bytes = nruns * (sizeof(T) + 4) + 4;
  if (rle_bytes * 2 < plain_bytes) return CodecId::kRle;
  if constexpr (std::is_same_v<T, double>) {
    return CodecId::kPlain;
  } else {
    // Cost both PFOR variants via their width plans.
    std::vector<uint64_t> resid(n);
    T base = in[0];
    for (int i = 1; i < n; i++) base = std::min(base, in[i]);
    for (int i = 0; i < n; i++) resid[i] = AsU64(in[i]) - AsU64(base);
    const PforPlan p1 = PlanPfor(resid.data(), n);
    const int64_t pfor_bytes =
        (static_cast<int64_t>(n) * p1.width + 7) / 8 +
        static_cast<int64_t>(p1.n_exceptions) * 12 + 12;

    resid[0] = 0;
    for (int i = n - 1; i > 0; i--) {
      resid[i] = ZigZagEncode(
          static_cast<int64_t>(AsU64(in[i]) - AsU64(in[i - 1])));
    }
    const PforPlan p2 = PlanPfor(resid.data(), n);
    const int64_t pford_bytes =
        (static_cast<int64_t>(n) * p2.width + 7) / 8 +
        static_cast<int64_t>(p2.n_exceptions) * 12 + 12;

    const int64_t best = std::min(pfor_bytes, pford_bytes);
    if (best < plain_bytes * 9 / 10) {
      // Prefer PFOR-DELTA on sorted data (same bytes, better locality).
      if (sorted && pford_bytes <= pfor_bytes) return CodecId::kPforDelta;
      return pford_bytes < pfor_bytes ? CodecId::kPforDelta : CodecId::kPfor;
    }
    return CodecId::kPlain;
  }
}

// ---------------------------------------------------------------------------
// String codecs
// ---------------------------------------------------------------------------

Status CompressStrColumn(CodecId codec, const StrRef* in, int n,
                         std::vector<uint8_t>* out) {
  if (codec == CodecId::kPlain) {
    // [u32 len…][bytes…]
    WriteHeader(out, CodecId::kPlain, 0, static_cast<uint32_t>(n));
    for (int i = 0; i < n; i++) AppendValue<uint32_t>(out, in[i].len);
    for (int i = 0; i < n; i++) AppendBytes(out, in[i].data, in[i].len);
    return Status::OK();
  }
  if (codec != CodecId::kPdict) {
    return Status::InvalidArgument("string codec must be plain or pdict");
  }
  // Build dictionary in first-occurrence order.
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<StrRef> entries;
  std::vector<uint64_t> codes(n);
  for (int i = 0; i < n; i++) {
    auto [it, inserted] =
        dict.try_emplace(in[i].view(), static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(in[i]);
    codes[i] = it->second;
  }
  const int width = BitsNeeded(entries.empty() ? 0 : entries.size() - 1);
  WriteHeader(out, CodecId::kPdict, static_cast<uint8_t>(width),
              static_cast<uint32_t>(n));
  AppendValue<uint32_t>(out, static_cast<uint32_t>(entries.size()));
  for (const StrRef& e : entries) {
    AppendValue<uint32_t>(out, e.len);
    AppendBytes(out, e.data, e.len);
  }
  const size_t packed = PackedBytes(n, width);
  const size_t off = out->size();
  out->resize(off + packed);
  BitPack(codes.data(), n, width, out->data() + off);
  return Status::OK();
}

CodecId ChooseStrCodec(const StrRef* in, int n) {
  if (n == 0) return CodecId::kPlain;
  // Sample distinct count; PDICT pays when ndv << n.
  std::unordered_map<std::string_view, int> seen;
  size_t total_bytes = 0;
  for (int i = 0; i < n; i++) {
    seen.try_emplace(in[i].view(), 0);
    total_bytes += in[i].len;
  }
  const size_t ndv = seen.size();
  size_t dict_bytes = 0;
  for (const auto& [sv, _] : seen) dict_bytes += sv.size() + 4;
  const int width = BitsNeeded(ndv ? ndv - 1 : 0);
  const size_t pdict_bytes = dict_bytes + (static_cast<size_t>(n) * width) / 8;
  const size_t plain_bytes = total_bytes + 4ull * n;
  return pdict_bytes * 10 < plain_bytes * 9 ? CodecId::kPdict
                                            : CodecId::kPlain;
}

// ---------------------------------------------------------------------------
// ChunkSource
// ---------------------------------------------------------------------------

void ChunkSource::Reset(const uint8_t* data, uint64_t size) {
  Reset(0, size, 0, nullptr);
  data_ = data;
}

void ChunkSource::Reset(uint64_t base, uint64_t size, uint64_t block_bytes,
                        FetchFn fetch) {
  data_ = nullptr;
  base_ = base;
  size_ = size;
  block_bytes_ = block_bytes;
  fetch_ = std::move(fetch);
  for (Stream& st : streams_) st.bytes.reset();
  fetched_.clear();
}

Status ChunkSource::Acquire(int s, size_t i) {
  Stream& st = streams_[s];
  if (st.bytes != nullptr && st.start == i * block_bytes_) return Status::OK();
  if (i >= fetched_.size()) fetched_.resize(i + 1);
  BlockBytes bytes = fetched_[i].lock();
  if (bytes == nullptr) {
    X100_ASSIGN_OR_RETURN(bytes, fetch_(i));
    fetched_[i] = bytes;
  }
  st.start = i * block_bytes_;
  st.end = st.start + bytes->size();
  st.bytes = std::move(bytes);
  int held = 0;
  for (int a = 0; a < kStreams; a++) {
    const BlockBytes& b = streams_[a].bytes;
    held += b != nullptr && std::none_of(streams_, streams_ + a,
                                         [&](const Stream& o) {
                                           return o.bytes == b;
                                         });
  }
  held_high_water_ = std::max(held_high_water_, held);
  return Status::OK();
}

Status ChunkSource::ReadSlow(int s, uint64_t off, size_t len,
                             const uint8_t** out) {
  static const uint8_t kEmpty = 0;
  *out = &kEmpty;
  if (off > size_ || len > size_ - off) {
    return Status::IoError("read past the end of the chunk");
  }
  if (len == 0 || data_ != nullptr) return Status::OK();  // buffer: Held()
  Stream& st = streams_[s];
  const uint64_t lo = base_ + off, hi = lo + len;
  const bool stitch = lo / block_bytes_ != (hi - 1) / block_bytes_;
  if (stitch && st.scratch.size() < len) st.scratch.resize(len);
  for (uint64_t at = lo; at < hi;) {
    X100_RETURN_IF_ERROR(Acquire(s, at / block_bytes_));
    const uint64_t to = std::min(hi, st.start + block_bytes_);
    if (to > st.end) return Status::IoError("chunk block reads short");
    const uint8_t* p = st.bytes->data() + (at - st.start);
    if (!stitch) {
      *out = p;
      return Status::OK();
    }
    std::memcpy(st.scratch.data() + (at - lo), p, to - at);
    at = to;
  }
  *out = st.scratch.data();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Decoders
// ---------------------------------------------------------------------------

namespace {

/// Values one decode step handles: bounds every decoder's scratch.
constexpr int kDecodeStep = 1024;

/// Streams of a ChunkSource, by what they read.
constexpr int kPayload = 0;
constexpr int kExcPos = 1;    // PFOR exception positions
constexpr int kExcVal = 2;    // PFOR exception values
constexpr int kStrBytes = 1;  // Plain string bytes

constexpr uint64_t kHeaderBytes = sizeof(CodecHeader);

/// Copies the bytes at chunk offset `off` of stream `s` into `v`.
template <typename V>
Status ReadPod(ChunkSource* src, int s, uint64_t off, V* v) {
  const uint8_t* p;
  X100_RETURN_IF_ERROR(src->Read(s, off, sizeof(V), &p));
  std::memcpy(v, p, sizeof(V));
  return Status::OK();
}

/// Unpacks slots [first, first + k) of the bit-packed area that starts at
/// chunk offset `area`.
Status UnpackSlots(ChunkSource* src, uint64_t area, int width, uint32_t first,
                   int k, uint64_t* out) {
  const uint64_t b0 = static_cast<uint64_t>(first) * width / 8;
  const uint64_t b1 = PackedBytes(static_cast<int64_t>(first) + k, width);
  const uint8_t* p;  // width 0 reads just the 8-byte slack
  X100_RETURN_IF_ERROR(src->Read(kPayload, area + b0, b1 - b0, &p));
  BitUnpack(p, k, width, out, first);
  return Status::OK();
}

template <typename T>
class NumDecoder final : public ChunkDecoder {
 public:
  NumDecoder() : ChunkDecoder(sizeof(T)) {}
  Status Open(ChunkSource* src) override;

 private:
  // PFOR payload: [u64 base][u32 n_exc][slots][exc_pos u32…][exc_val u64…]
  static constexpr uint64_t kSlotsOff = kHeaderBytes + 12;
  // RLE payload: [u32 nruns][(T value, u32 count)…]
  static constexpr uint64_t kRunsOff = kHeaderBytes + 4;
  static constexpr uint64_t kRunBytes = sizeof(T) + 4;

  Status Step(int k, uint8_t* bytes) override;
  Status Finish() override;
  Status StepPfor(int k, T* out);
  Status StepRle(int k, T* out);
  /// Patches the exceptions below pos_ + k into `r` (or only checks and
  /// passes them when r is nullptr); positions ascend strictly and lie
  /// below n.
  Status PatchExceptions(int k, uint64_t* r);

  // PFOR / PFOR-DELTA
  uint64_t base_ = 0;
  uint64_t acc_ = 0;  // PFOR-DELTA: the last value produced
  uint32_t n_exc_ = 0;
  uint32_t exc_next_ = 0;  // the first exception not yet passed
  int64_t exc_prev_ = -1;  // the position of the last one passed
  uint64_t exc_pos_off_ = 0;  // the value list follows the positions
  std::vector<uint64_t> resid_;
  // RLE
  uint32_t nruns_ = 0;
  uint32_t run_ = 0;        // runs read so far
  uint32_t run_left_ = 0;   // values left in the current run
  uint32_t run_cover_ = 0;  // values the runs read so far cover
  T run_val_{};
};

template <typename T>
Status NumDecoder<T>::Open(ChunkSource* src) {
  X100_RETURN_IF_ERROR(OpenHeader(src));
  const uint64_t plen = src->size() - kHeaderBytes;
  switch (codec_) {
    case CodecId::kPlain:
      if (plen < static_cast<uint64_t>(n_) * sizeof(T)) {
        return Status::IoError("plain payload truncated");
      }
      return Status::OK();
    case CodecId::kRle:
      X100_RETURN_IF_ERROR(ReadPod(src, kPayload, kHeaderBytes, &nruns_));
      if (plen - 4 < nruns_ * kRunBytes) {
        return Status::IoError("rle payload truncated");
      }
      run_ = run_left_ = run_cover_ = 0;
      return Status::OK();
    case CodecId::kPfor:
    case CodecId::kPforDelta:
      if (std::is_same_v<T, double>) {
        return Status::IoError("pfor chunk for float column");
      }
      if (width_ > 64) return Status::IoError("pfor width out of range");
      X100_RETURN_IF_ERROR(ReadPod(src, kPayload, kHeaderBytes, &base_));
      X100_RETURN_IF_ERROR(ReadPod(src, kPayload, kHeaderBytes + 8, &n_exc_));
      exc_pos_off_ = kSlotsOff + PackedBytes(n_, width_);
      // More exceptions than values cannot ascend below n.
      if (exc_pos_off_ + 12ull * n_exc_ > src->size() || n_exc_ > n_) {
        return Status::IoError("pfor payload truncated");
      }
      exc_next_ = 0;
      exc_prev_ = -1;
      resid_.resize(std::min<uint32_t>(n_, kDecodeStep));
      return Status::OK();
    case CodecId::kPdict:
      return Status::IoError("pdict chunk for numeric column");
  }
  return Status::IoError("unknown codec id");
}

template <typename T>
Status NumDecoder<T>::Step(int k, uint8_t* bytes) {
  T* out = reinterpret_cast<T*>(bytes);
  if (codec_ == CodecId::kRle) return StepRle(k, out);
  if (codec_ != CodecId::kPlain) return StepPfor(k, out);
  if (out == nullptr) return Status::OK();
  const uint8_t* p;
  X100_RETURN_IF_ERROR(src_->Read(kPayload, kHeaderBytes + pos_ * sizeof(T),
                                  k * sizeof(T), &p));
  std::memcpy(out, p, k * sizeof(T));
  return Status::OK();
}

template <typename T>
Status NumDecoder<T>::PatchExceptions(int k, uint64_t* r) {
  const int64_t end = static_cast<int64_t>(pos_) + k;
  while (exc_next_ < n_exc_) {
    // A read of the two lists covers at most 64 exceptions.
    const uint32_t m = std::min(n_exc_ - exc_next_, 64u);
    const uint8_t *pos_p, *val_p;
    X100_RETURN_IF_ERROR(src_->Read(kExcPos, exc_pos_off_ + 4ull * exc_next_,
                                    4ull * m, &pos_p));
    X100_RETURN_IF_ERROR(src_->Read(
        kExcVal, exc_pos_off_ + 4ull * n_exc_ + 8ull * exc_next_, 8ull * m,
        &val_p));
    uint32_t e = 0;
    for (; e < m; e++) {
      uint32_t pos;
      std::memcpy(&pos, pos_p + 4 * e, sizeof(pos));
      if (pos >= n_ || static_cast<int64_t>(pos) <= exc_prev_) {
        return Status::IoError("pfor exception position out of order");
      }
      if (pos >= end) break;
      if (r != nullptr) std::memcpy(&r[pos - pos_], val_p + 8 * e, 8);
      exc_prev_ = pos;
    }
    exc_next_ += e;
    if (e < m) break;
  }
  return Status::OK();
}

template <typename T>
Status NumDecoder<T>::StepPfor(int k, T* out) {
  // A plain-PFOR skip needs no slot, only the exception cursor's advance.
  const bool decode = out != nullptr || codec_ == CodecId::kPforDelta;
  uint64_t* r = decode ? resid_.data() : nullptr;
  if (decode) {
    X100_RETURN_IF_ERROR(UnpackSlots(src_, kSlotsOff, width_, pos_, k, r));
  }
  X100_RETURN_IF_ERROR(PatchExceptions(k, r));
  if (codec_ == CodecId::kPfor) {
    const uint64_t base = base_;
    for (int j = 0; out != nullptr && j < k; j++) {
      out[j] = FromU64<T>(base + r[j]);
    }
    return Status::OK();
  }
  // Slot 0 holds the first value's placeholder (the base is the value);
  // slot i > 0 the zigzag delta to value i - 1.
  uint64_t acc = pos_ == 0 ? base_ - static_cast<uint64_t>(ZigZagDecode(r[0]))
                           : acc_;
  for (int j = 0; j < k; j++) {
    acc += static_cast<uint64_t>(ZigZagDecode(r[j]));
    if (out != nullptr) out[j] = FromU64<T>(acc);
  }
  acc_ = acc;
  return Status::OK();
}

template <typename T>
Status NumDecoder<T>::StepRle(int k, T* out) {
  for (int done = 0; done < k;) {
    if (run_left_ == 0) {
      if (run_ >= nruns_) return Status::IoError("rle short output");
      const uint8_t* p;
      X100_RETURN_IF_ERROR(
          src_->Read(kPayload, kRunsOff + run_ * kRunBytes, kRunBytes, &p));
      std::memcpy(&run_val_, p, sizeof(T));
      std::memcpy(&run_left_, p + sizeof(T), sizeof(run_left_));
      if (uint64_t{run_cover_} + run_left_ > n_) {
        return Status::IoError("rle run overflow");
      }
      run_cover_ += run_left_;
      run_++;
      continue;
    }
    const int take = static_cast<int>(
        std::min<uint32_t>(run_left_, static_cast<uint32_t>(k - done)));
    if (out != nullptr) std::fill(out + done, out + done + take, run_val_);
    done += take;
    run_left_ -= take;
  }
  return Status::OK();
}

template <typename T>
Status NumDecoder<T>::Finish() {
  // Every value is out: a further RLE run may only be empty.
  for (; codec_ == CodecId::kRle && run_ < nruns_; run_++) {
    uint32_t count;
    X100_RETURN_IF_ERROR(ReadPod(
        src_, kPayload, kRunsOff + run_ * kRunBytes + sizeof(T), &count));
    if (count != 0) return Status::IoError("rle run overflow");
  }
  return Status::OK();
}

class StrDecoder final : public ChunkDecoder {
 public:
  StrDecoder(StringHeap* heap, bool in_place)
      : ChunkDecoder(sizeof(StrRef)),
        heap_(heap),
        in_place_(in_place),
        dict_heap_(4096) {}

  Status Open(ChunkSource* src) override;
  void BeginBatch() override { live_.clear(); }

 private:
  Status Step(int k, uint8_t* bytes) override;
  Status StepPlain(int k, StrRef* out);

  StringHeap* heap_;
  bool in_place_;
  // Plain: [u32 len…][bytes…]
  uint64_t bytes_off_ = 0;       // the next string's bytes
  std::vector<StrRef*> live_;  // this batch's strings in the held block
  // PDICT: [u32 dict_size][(u32 len, bytes)…][codes]
  StringHeap dict_heap_;  // the in-place dictionary
  std::vector<StrRef> dict_;
  uint64_t codes_off_ = 0;
  std::vector<uint64_t> codes_;
};

Status StrDecoder::Open(ChunkSource* src) {
  live_.clear();
  X100_RETURN_IF_ERROR(OpenHeader(src));
  const uint64_t size = src->size();
  if (codec_ == CodecId::kPlain) {
    bytes_off_ = kHeaderBytes + 4ull * n_;
    return bytes_off_ > size ? Status::IoError("plain str lengths truncated")
                             : Status::OK();
  }
  if (codec_ != CodecId::kPdict) {
    return Status::IoError("unexpected codec for string column");
  }
  if (width_ > 64) return Status::IoError("pdict width out of range");
  uint32_t dict_size;
  X100_RETURN_IF_ERROR(ReadPod(src, kPayload, kHeaderBytes, &dict_size));
  StringHeap* target = in_place_ ? &dict_heap_ : heap_;
  dict_heap_.Reset();
  dict_.clear();
  uint64_t off = kHeaderBytes + 4;
  for (uint32_t e = 0; e < dict_size; e++) {
    uint32_t len;
    X100_RETURN_IF_ERROR(ReadPod(src, kPayload, off, &len));
    const uint8_t* p;
    X100_RETURN_IF_ERROR(src->Read(kPayload, off + 4, len, &p));
    dict_.push_back(target->Add({reinterpret_cast<const char*>(p), len}));
    off += 4 + len;
  }
  codes_off_ = off;
  if (size - off < PackedBytes(n_, width_)) {
    return Status::IoError("pdict codes truncated");
  }
  codes_.resize(std::min<uint32_t>(n_, kDecodeStep));
  return Status::OK();
}

Status StrDecoder::Step(int k, uint8_t* bytes) {
  StrRef* out = reinterpret_cast<StrRef*>(bytes);
  if (codec_ == CodecId::kPlain) return StepPlain(k, out);
  uint64_t* codes = codes_.data();
  X100_RETURN_IF_ERROR(UnpackSlots(src_, codes_off_, width_, pos_, k, codes));
  for (int j = 0; j < k; j++) {
    if (codes[j] >= dict_.size()) return Status::IoError("pdict code range");
    if (out != nullptr) out[j] = dict_[codes[j]];
  }
  return Status::OK();
}

Status StrDecoder::StepPlain(int k, StrRef* out) {
  const uint8_t* lens;
  X100_RETURN_IF_ERROR(
      src_->Read(kPayload, kHeaderBytes + 4ull * pos_, 4ull * k, &lens));
  const uint64_t size = src_->size();
  for (int j = 0; j < k; j++) {
    uint32_t len;
    std::memcpy(&len, lens + 4 * j, sizeof(len));
    if (size - bytes_off_ < len) {
      return Status::IoError("plain str bytes truncated");
    }
    const uint64_t off = bytes_off_;
    bytes_off_ += len;
    if (out == nullptr) continue;
    const uint8_t* p = src_->Held(kStrBytes, off, len);
    if (p == nullptr) {
      // The position leaves the held block: this batch's strings in it
      // move to the heap first.
      for (StrRef* s : live_) *s = heap_->Add(s->view());
      live_.clear();
      X100_RETURN_IF_ERROR(src_->Read(kStrBytes, off, len, &p));
    }
    const std::string_view str(reinterpret_cast<const char*>(p), len);
    if (in_place_ && src_->Held(kStrBytes, off, len) != nullptr) {
      out[j] = StrRef(str.data(), len);
      live_.push_back(&out[j]);
    } else {
      out[j] = heap_->Add(str);
    }
  }
  return Status::OK();
}

}  // namespace

Status ChunkDecoder::OpenHeader(ChunkSource* src) {
  src_ = src;
  pos_ = 0;
  CodecHeader h;
  X100_RETURN_IF_ERROR(ReadPod(src, kPayload, 0, &h));
  n_ = h.n;
  codec_ = h.codec;
  width_ = h.width;
  return Status::OK();
}

Status ChunkDecoder::Walk(int n, uint8_t* out) {
  if (n < 0 || static_cast<uint32_t>(n) > n_ - pos_) {
    return Status::IoError("read past the end of the chunk");
  }
  for (int k; n > 0; n -= k) {
    k = std::min(n, kDecodeStep);
    X100_RETURN_IF_ERROR(Step(k, out));
    pos_ += k;
    if (out != nullptr) out += k * value_bytes_;
  }
  return pos_ == n_ ? Finish() : Status::OK();
}

std::unique_ptr<ChunkDecoder> MakeDecoder(TypeId type, StringHeap* heap,
                                          bool in_place) {
  switch (type) {
    case TypeId::kBool: return std::make_unique<NumDecoder<uint8_t>>();
    case TypeId::kI8: return std::make_unique<NumDecoder<int8_t>>();
    case TypeId::kI16: return std::make_unique<NumDecoder<int16_t>>();
    case TypeId::kI32:
    case TypeId::kDate: return std::make_unique<NumDecoder<int32_t>>();
    case TypeId::kI64: return std::make_unique<NumDecoder<int64_t>>();
    case TypeId::kF64: return std::make_unique<NumDecoder<double>>();
    case TypeId::kStr: return std::make_unique<StrDecoder>(heap, in_place);
  }
  return nullptr;
}

namespace {

/// Opens `decoder` on a buffer and decodes all its values.
template <typename Decoder, typename Out>
Status DecodeAll(Decoder&& decoder, const uint8_t* data, size_t len,
                 Out* out) {
  ChunkSource src;
  src.Reset(data, len);
  X100_RETURN_IF_ERROR(decoder.Open(&src));
  return decoder.Next(static_cast<int>(decoder.size()), out);
}

}  // namespace

template <typename T>
Status DecompressColumn(const uint8_t* data, size_t len, T* out) {
  return DecodeAll(NumDecoder<T>(), data, len, out);
}

Status DecompressStrColumn(const uint8_t* data, size_t len, StringHeap* heap,
                           StrRef* out) {
  return DecodeAll(StrDecoder(heap, /*in_place=*/false), data, len, out);
}

// Explicit instantiations for the storage-supported numeric types.
template Status CompressColumn<int8_t>(CodecId, const int8_t*, int,
                                       std::vector<uint8_t>*);
template Status CompressColumn<int16_t>(CodecId, const int16_t*, int,
                                        std::vector<uint8_t>*);
template Status CompressColumn<int32_t>(CodecId, const int32_t*, int,
                                        std::vector<uint8_t>*);
template Status CompressColumn<int64_t>(CodecId, const int64_t*, int,
                                        std::vector<uint8_t>*);
template Status CompressColumn<uint8_t>(CodecId, const uint8_t*, int,
                                        std::vector<uint8_t>*);
template Status CompressColumn<double>(CodecId, const double*, int,
                                       std::vector<uint8_t>*);
template Status DecompressColumn<int8_t>(const uint8_t*, size_t, int8_t*);
template Status DecompressColumn<int16_t>(const uint8_t*, size_t, int16_t*);
template Status DecompressColumn<int32_t>(const uint8_t*, size_t, int32_t*);
template Status DecompressColumn<int64_t>(const uint8_t*, size_t, int64_t*);
template Status DecompressColumn<uint8_t>(const uint8_t*, size_t, uint8_t*);
template Status DecompressColumn<double>(const uint8_t*, size_t, double*);
template CodecId ChooseCodec<int8_t>(const int8_t*, int);
template CodecId ChooseCodec<int16_t>(const int16_t*, int);
template CodecId ChooseCodec<int32_t>(const int32_t*, int);
template CodecId ChooseCodec<int64_t>(const int64_t*, int);
template CodecId ChooseCodec<uint8_t>(const uint8_t*, int);
template CodecId ChooseCodec<double>(const double*, int);

}  // namespace x100
