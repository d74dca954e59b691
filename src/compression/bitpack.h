// Bit packing: store n unsigned values of `width` bits contiguously.
// The inner loops of PFOR compression/decompression.
#ifndef X100_COMPRESSION_BITPACK_H_
#define X100_COMPRESSION_BITPACK_H_

#include <cstdint>
#include <cstring>

namespace x100 {

/// Bytes needed to pack n values of `width` bits, including an 8-byte slack
/// so pack/unpack can read and write whole 64-bit words.
inline size_t PackedBytes(int64_t n, int width) {
  return (static_cast<size_t>(n) * width + 7) / 8 + 8;
}

/// Packs in[0..n) into out. Values must already be masked to `width` bits.
/// `out` must have PackedBytes(n, width) writable bytes and be zeroed by
/// this function. Returns payload bytes (excluding slack). width in [0,64].
inline size_t BitPack(const uint64_t* in, int n, int width, uint8_t* out) {
  if (width == 0) return 0;
  std::memset(out, 0, PackedBytes(n, width));
  size_t bitpos = 0;
  for (int i = 0; i < n; i++) {
    const size_t byte = bitpos >> 3;
    const int shift = static_cast<int>(bitpos & 7);
    uint64_t cur;
    std::memcpy(&cur, out + byte, sizeof(cur));
    cur |= in[i] << shift;
    std::memcpy(out + byte, &cur, sizeof(cur));
    if (shift + width > 64) {
      out[byte + 8] |= static_cast<uint8_t>(in[i] >> (64 - shift));
    }
    bitpos += width;
  }
  return (bitpos + 7) / 8;
}

/// Unpacks slots [first, first + n) of `width` bits into out. `in` points
/// at byte (first * width) / 8 of the packed data, and the bytes up to the
/// end of slot first + n - 1 plus the 8-byte slack of PackedBytes must be
/// readable from there. width in [0,64].
inline void BitUnpack(const uint8_t* in, int n, int width, uint64_t* out,
                      int64_t first = 0) {
  if (n <= 0) return;  // out may be null for an empty run (UB otherwise)
  if (width == 0) {
    std::memset(out, 0, sizeof(uint64_t) * n);
    return;
  }
  const uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
  size_t bitpos = static_cast<size_t>((first * width) & 7);
  for (int i = 0; i < n; i++) {
    const size_t byte = bitpos >> 3;
    const int shift = static_cast<int>(bitpos & 7);
    uint64_t lo;
    std::memcpy(&lo, in + byte, sizeof(lo));
    uint64_t v = lo >> shift;
    if (shift + width > 64) {
      const uint64_t hi = in[byte + 8];
      v |= hi << (64 - shift);
    }
    out[i] = v & mask;
    bitpos += width;
  }
}

}  // namespace x100

#endif  // X100_COMPRESSION_BITPACK_H_
