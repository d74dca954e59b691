// Column compression codecs — the paper's storage-side contribution
// ("novel compression schemes (e.g. PFOR [8])", Super-Scalar RAM-CPU Cache
// Compression, ICDE 2006).
//
// Design points carried over from the paper:
//  * Codecs trade compression ratio for *decompression speed*: the goal is
//    to keep a scan CPU-bound ahead of the (simulated) disk, not to
//    minimize bytes.
//  * Decompression happens into the CPU cache, a vector at a time: a
//    ChunkDecoder reads a chunk's bytes where they lie (one buffer, or the
//    pool's blocks through a ChunkSource) and writes the next n values
//    straight into the caller's vector. No decoder allocates anything the
//    size of a chunk.
//  * PFOR handles outliers by *patching*: values that do not fit the chosen
//    bit width become exceptions stored verbatim, so one skewed value does
//    not blow up the width of the whole block.
//  * PFOR-DELTA applies PFOR to zigzag deltas (sorted / clustered data).
//  * PDICT dictionary-encodes strings with bit-packed codes.
//  * RLE covers long runs (e.g. sorted low-cardinality keys).
//
// Block wire format (self-describing, consumed by storage/):
//   [u8 codec][u8 width][u16 reserved][u32 n][payload…]
#ifndef X100_COMPRESSION_CODEC_H_
#define X100_COMPRESSION_CODEC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "vector/string_heap.h"

namespace x100 {

enum class CodecId : uint8_t {
  kPlain = 0,
  kPfor = 1,
  kPforDelta = 2,
  kPdict = 3,
  kRle = 4,
};

const char* CodecName(CodecId c);

/// Header prepended to every compressed column chunk.
struct CodecHeader {
  CodecId codec;
  uint8_t width;     // bit width (PFOR/PDICT); 0 otherwise
  uint16_t reserved;
  uint32_t n;        // value count
};
static_assert(sizeof(CodecHeader) == 8);

// ---------------------------------------------------------------------------
// Typed codec entry points. T in {int8_t,int16_t,int32_t,int64_t,double}.
// Strings go through the StrCodec functions below.
// ---------------------------------------------------------------------------

/// Compresses `in[0..n)` with the given codec, appending to `out`.
/// Fails with kInvalidArgument if the codec cannot represent the data
/// (callers normally use ChooseCodec first).
template <typename T>
Status CompressColumn(CodecId codec, const T* in, int n,
                      std::vector<uint8_t>* out);

/// Decompresses a chunk produced by CompressColumn: a decoder over `data`
/// and one Next over all values. `out` must hold the chunk's value count
/// (readable via PeekHeader).
template <typename T>
Status DecompressColumn(const uint8_t* data, size_t len, T* out);

/// Reads the header of a compressed chunk.
Result<CodecHeader> PeekHeader(const uint8_t* data, size_t len);

/// Picks a codec for numeric data: RLE for long runs, PFOR-DELTA for
/// sorted/clustered, PFOR when outlier patching wins, else Plain.
template <typename T>
CodecId ChooseCodec(const T* in, int n);

// ---------------------------------------------------------------------------
// String codec (Plain or PDICT).
// ---------------------------------------------------------------------------

/// Compresses n strings. `codec` must be kPlain or kPdict.
Status CompressStrColumn(CodecId codec, const StrRef* in, int n,
                         std::vector<uint8_t>* out);

/// Decompresses strings; the bytes are copied into `heap` and `out[i]`
/// points at them.
Status DecompressStrColumn(const uint8_t* data, size_t len, StringHeap* heap,
                           StrRef* out);

/// PDICT when the dictionary pays for itself, else Plain.
CodecId ChooseStrCodec(const StrRef* in, int n);

// ---------------------------------------------------------------------------
// Decoding a vector at a time.
// ---------------------------------------------------------------------------

/// Immutable block bytes, shared with the buffer pool that cached them.
using BlockBytes = std::shared_ptr<const std::vector<uint8_t>>;

/// The bytes of one compressed chunk, as a decoder reads them: a buffer
/// the caller keeps alive, or bytes [base, base + size) of a region of
/// equally sized blocks fetched on first use.
///
/// A decoder reads through up to kStreams read positions ("streams"): the
/// payload, and PFOR's exception positions and values, or Plain strings'
/// bytes. Each stream holds the one block under its position and drops it
/// when it moves on. A block is fetched once per chunk: a stream that
/// reaches a block another stream fetched takes the same bytes while
/// anyone (that stream, or the pool) still holds them. A read that
/// crosses a block boundary is stitched into the stream's scratch, which
/// is never larger than one read.
class ChunkSource {
 public:
  static constexpr int kStreams = 3;
  /// Returns block `i` of the region, checked by the caller; kIoError when
  /// it cannot be read.
  using FetchFn = std::function<Result<BlockBytes>(size_t i)>;

  /// Reads `size` bytes at `data`.
  void Reset(const uint8_t* data, uint64_t size);
  /// Reads bytes [base, base + size) of the region. Drops every block held
  /// for the previous chunk.
  void Reset(uint64_t base, uint64_t size, uint64_t block_bytes,
             FetchFn fetch);

  uint64_t size() const { return size_; }

  /// Bytes [off, off + len) of the chunk when they lie in the block stream
  /// `s` holds (any in-range bytes of a buffer), else nullptr. The pointer
  /// stays valid until stream `s` moves to another block.
  const uint8_t* Held(int s, uint64_t off, size_t len) const {
    if (off > size_ || len > size_ - off) return nullptr;
    if (data_ != nullptr) return data_ + off;
    const Stream& st = streams_[s];
    const uint64_t lo = base_ + off;
    if (st.bytes == nullptr || lo < st.start || lo + len > st.end) {
      return nullptr;
    }
    return st.bytes->data() + (lo - st.start);
  }

  /// Bytes [off, off + len) of the chunk through stream `s`: in place when
  /// they lie in one block, else stitched into the stream's scratch. Valid
  /// until the next Read on stream `s`; kIoError past the chunk's end or
  /// when a block cannot be fetched or reads short.
  Status Read(int s, uint64_t off, size_t len, const uint8_t** out) {
    *out = Held(s, off, len);
    return *out != nullptr ? Status::OK() : ReadSlow(s, off, len, out);
  }

  /// Most distinct blocks the streams held at once since construction.
  int held_blocks_high_water() const { return held_high_water_; }

 private:
  struct Stream {
    BlockBytes bytes;
    uint64_t start = 0, end = 0;  // region bytes the block covers
    std::vector<uint8_t> scratch;
  };
  Status ReadSlow(int s, uint64_t off, size_t len, const uint8_t** out);
  /// Makes stream `s` hold block `i`.
  Status Acquire(int s, size_t i);

  const uint8_t* data_ = nullptr;  // buffer mode
  uint64_t base_ = 0;
  uint64_t size_ = 0;
  uint64_t block_bytes_ = 0;
  FetchFn fetch_;
  Stream streams_[kStreams];
  /// The blocks fetched for this chunk, by index; not held.
  std::vector<std::weak_ptr<const std::vector<uint8_t>>> fetched_;
  int held_high_water_ = 0;
};

/// Decodes one chunk a batch at a time. Open reads the header and checks
/// every bound that does not need the values; Next and Skip check the rest
/// (exception positions, RLE runs, dictionary codes, string lengths) as
/// they reach them. A chunk that fails a check is kIoError.
class ChunkDecoder {
 public:
  virtual ~ChunkDecoder() = default;
  /// `src` must outlive the decoder's reads of this chunk.
  virtual Status Open(ChunkSource* src) = 0;
  /// Writes the next n values to `out`: T for a numeric decoder, StrRef
  /// for a string decoder.
  Status Next(int n, void* out) {
    return Walk(n, static_cast<uint8_t*>(out));
  }
  /// Advances n values without writing them.
  Status Skip(int n) { return Walk(n, nullptr); }
  /// Starts an output batch: the in-place strings of the previous batch
  /// are no longer referenced.
  virtual void BeginBatch() {}

  /// Values in the chunk.
  uint32_t size() const { return n_; }

 protected:
  explicit ChunkDecoder(size_t value_bytes) : value_bytes_(value_bytes) {}
  Status OpenHeader(ChunkSource* src);
  /// Decodes values [pos_, pos_ + k) of at most one step to `out`, or
  /// skips them when `out` is nullptr.
  virtual Status Step(int k, uint8_t* out) = 0;
  /// Checks the chunk's tail once every value is out.
  virtual Status Finish() { return Status::OK(); }

  ChunkSource* src_ = nullptr;
  CodecId codec_ = CodecId::kPlain;
  int width_ = 0;
  uint32_t n_ = 0;
  uint32_t pos_ = 0;

 private:
  Status Walk(int n, uint8_t* out);

  const size_t value_bytes_;
};

/// A decoder for chunks of a column of `type`. For strings (kStr): in
/// place, a string that lies in one block points into it, and PDICT
/// entries point into the decoder's copy of the dictionary; such strings
/// stay valid until the next BeginBatch (or Open). When the position
/// leaves a block mid-batch, the batch's strings in it are copied into
/// `heap` first. Otherwise every string is copied into `heap`.
std::unique_ptr<ChunkDecoder> MakeDecoder(TypeId type,
                                          StringHeap* heap = nullptr,
                                          bool in_place = false);

}  // namespace x100

#endif  // X100_COMPRESSION_CODEC_H_
