// Compression codec tests: bitpack round-trips, PFOR/PFOR-DELTA/PDICT/RLE
// round-trips, codec choice heuristics, corruption handling, property-style
// sweeps across data distributions (TEST_P), and the vector-at-a-time
// decoders read in random steps from a buffer and from small blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.h"
#include "compression/bitpack.h"
#include "compression/codec.h"

namespace x100 {
namespace {

TEST(BitPackTest, RoundTripAllWidths) {
  Rng rng(1);
  for (int width = 0; width <= 64; width++) {
    const int n = 200;
    std::vector<uint64_t> in(n), out(n);
    const uint64_t mask =
        width == 64 ? ~0ull : (width == 0 ? 0 : (1ull << width) - 1);
    for (int i = 0; i < n; i++) in[i] = rng.Next() & mask;
    std::vector<uint8_t> buf(PackedBytes(n, width));
    BitPack(in.data(), n, width, buf.data());
    BitUnpack(buf.data(), n, width, out.data());
    EXPECT_EQ(in, out) << "width=" << width;
  }
}

TEST(BitPackTest, PackedSizeIsTight) {
  // 1000 values of 7 bits = 875 bytes payload.
  std::vector<uint64_t> in(1000, 0x55);
  std::vector<uint8_t> buf(PackedBytes(1000, 7));
  size_t bytes = BitPack(in.data(), 1000, 7, buf.data());
  EXPECT_EQ(bytes, 875u);
}

// ---- typed round-trip helpers ----------------------------------------------

template <typename T>
void ExpectRoundTrip(CodecId codec, const std::vector<T>& in) {
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressColumn<T>(codec, in.data(),
                                static_cast<int>(in.size()), &buf)
                  .ok())
      << CodecName(codec);
  auto h = PeekHeader(buf.data(), buf.size());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->n, in.size());
  std::vector<T> out(in.size());
  ASSERT_TRUE(DecompressColumn<T>(buf.data(), buf.size(), out.data()).ok());
  EXPECT_EQ(in, out) << CodecName(codec);
}

TEST(CodecTest, PlainRoundTripI64) {
  ExpectRoundTrip<int64_t>(CodecId::kPlain, {1, -2, 3, 1ll << 60, -5});
}

TEST(CodecTest, PforRoundTripSmallRange) {
  std::vector<int32_t> in;
  Rng rng(2);
  for (int i = 0; i < 5000; i++) {
    in.push_back(static_cast<int32_t>(rng.Uniform(100, 227)));
  }
  ExpectRoundTrip<int32_t>(CodecId::kPfor, in);
  // 7-bit range: compressed must be ~1 byte/value, far below 4.
  std::vector<uint8_t> buf;
  ASSERT_TRUE(
      CompressColumn<int32_t>(CodecId::kPfor, in.data(), 5000, &buf).ok());
  EXPECT_LT(buf.size(), 5000u * 2);
}

TEST(CodecTest, PforPatchesOutliers) {
  // 1% outliers must not blow up the bit width (the PFOR design point).
  std::vector<int64_t> in;
  Rng rng(3);
  for (int i = 0; i < 10000; i++) {
    in.push_back(rng.Bernoulli(0.01)
                     ? rng.Uniform(1ll << 40, 1ll << 41)
                     : rng.Uniform(0, 255));
  }
  ExpectRoundTrip<int64_t>(CodecId::kPfor, in);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(
      CompressColumn<int64_t>(CodecId::kPfor, in.data(), 10000, &buf).ok());
  // ~8 bits/value + ~100 exceptions*12B << plain 80000B.
  EXPECT_LT(buf.size(), 16000u);
}

TEST(CodecTest, PforExtremeRange) {
  ExpectRoundTrip<int64_t>(CodecId::kPfor,
                           {std::numeric_limits<int64_t>::min(), 0,
                            std::numeric_limits<int64_t>::max(), -1, 1});
}

TEST(CodecTest, PforDeltaRoundTripSorted) {
  std::vector<int64_t> in;
  Rng rng(4);
  int64_t v = 0;
  for (int i = 0; i < 8000; i++) {
    v += rng.Uniform(0, 3);
    in.push_back(v);
  }
  ExpectRoundTrip<int64_t>(CodecId::kPforDelta, in);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(
      CompressColumn<int64_t>(CodecId::kPforDelta, in.data(), 8000, &buf)
          .ok());
  EXPECT_LT(buf.size(), 8000u * 2);  // ~3 bits/value
}

TEST(CodecTest, PforDeltaHandlesDescendingAndNegatives) {
  std::vector<int32_t> in;
  for (int i = 0; i < 1000; i++) in.push_back(1000 - i * 3);
  ExpectRoundTrip<int32_t>(CodecId::kPforDelta, in);
}

TEST(CodecTest, RleRoundTrip) {
  std::vector<int32_t> in;
  for (int r = 0; r < 50; r++) {
    for (int i = 0; i < 100; i++) in.push_back(r % 7);
  }
  ExpectRoundTrip<int32_t>(CodecId::kRle, in);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressColumn<int32_t>(CodecId::kRle, in.data(),
                                      static_cast<int>(in.size()), &buf)
                  .ok());
  EXPECT_LT(buf.size(), 600u);  // 50 runs * 8B + headers
}

TEST(CodecTest, RleRoundTripDouble) {
  std::vector<double> in(500, 0.05);
  for (int i = 250; i < 500; i++) in[i] = 0.07;
  ExpectRoundTrip<double>(CodecId::kRle, in);
}

TEST(CodecTest, EmptyColumn) {
  ExpectRoundTrip<int32_t>(CodecId::kPlain, {});
  ExpectRoundTrip<int32_t>(CodecId::kRle, {});
}

TEST(CodecTest, SingleValue) {
  ExpectRoundTrip<int64_t>(CodecId::kPfor, {42});
  ExpectRoundTrip<int64_t>(CodecId::kPforDelta, {-42});
}

TEST(CodecTest, PforRejectsDoubles) {
  std::vector<double> in = {1.0};
  std::vector<uint8_t> buf;
  EXPECT_EQ(CompressColumn<double>(CodecId::kPfor, in.data(), 1, &buf).code(),
            StatusCode::kInvalidArgument);
}

TEST(CodecTest, DecompressRejectsTruncation) {
  std::vector<int32_t> in(100, 5);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(
      CompressColumn<int32_t>(CodecId::kPlain, in.data(), 100, &buf).ok());
  std::vector<int32_t> out(100);
  EXPECT_FALSE(
      DecompressColumn<int32_t>(buf.data(), buf.size() - 50, out.data()).ok());
  EXPECT_FALSE(DecompressColumn<int32_t>(buf.data(), 3, out.data()).ok());
}

// ---- codec choice -----------------------------------------------------------

TEST(ChooseCodecTest, PicksRleForRuns) {
  std::vector<int32_t> in(10000, 7);
  EXPECT_EQ(ChooseCodec<int32_t>(in.data(), 10000), CodecId::kRle);
}

TEST(ChooseCodecTest, PicksPforDeltaForSorted) {
  std::vector<int64_t> in;
  for (int i = 0; i < 10000; i++) in.push_back(1000000ll + i * 2);
  EXPECT_EQ(ChooseCodec<int64_t>(in.data(), 10000), CodecId::kPforDelta);
}

TEST(ChooseCodecTest, PicksPforForSmallRangeUnsorted) {
  Rng rng(5);
  std::vector<int64_t> in;
  for (int i = 0; i < 10000; i++) {
    in.push_back(rng.Uniform(1ll << 40, (1ll << 40) + 1000));
  }
  EXPECT_EQ(ChooseCodec<int64_t>(in.data(), 10000), CodecId::kPfor);
}

TEST(ChooseCodecTest, PlainForIncompressibleDoubles) {
  Rng rng(6);
  std::vector<double> in;
  for (int i = 0; i < 1000; i++) in.push_back(rng.NextDouble());
  EXPECT_EQ(ChooseCodec<double>(in.data(), 1000), CodecId::kPlain);
}

// ---- strings ----------------------------------------------------------------

class StrCodecTest : public ::testing::Test {
 protected:
  StringHeap src_heap_;
  std::vector<StrRef> Make(const std::vector<std::string>& v) {
    std::vector<StrRef> out;
    for (const auto& s : v) out.push_back(src_heap_.Add(s));
    return out;
  }
  void ExpectStrRoundTrip(CodecId codec, const std::vector<StrRef>& in) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(CompressStrColumn(codec, in.data(),
                                  static_cast<int>(in.size()), &buf)
                    .ok());
    StringHeap heap;
    std::vector<StrRef> out(in.size());
    ASSERT_TRUE(
        DecompressStrColumn(buf.data(), buf.size(), &heap, out.data()).ok());
    for (size_t i = 0; i < in.size(); i++) {
      EXPECT_EQ(in[i].view(), out[i].view()) << i;
    }
  }
};

TEST_F(StrCodecTest, PlainRoundTrip) {
  ExpectStrRoundTrip(CodecId::kPlain,
                     Make({"alpha", "", "beta", "gamma-very-long-string",
                           "delta", ""}));
}

TEST_F(StrCodecTest, PdictRoundTrip) {
  std::vector<std::string> base = {"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"};
  std::vector<std::string> data;
  Rng rng(7);
  for (int i = 0; i < 3000; i++) {
    data.push_back(base[rng.Uniform(0, 4)]);
  }
  ExpectStrRoundTrip(CodecId::kPdict, Make(data));
}

TEST_F(StrCodecTest, PdictCompressesLowCardinality) {
  std::vector<std::string> data(5000, "RETURNED");
  for (int i = 0; i < 5000; i += 3) data[i] = "PENDING";
  auto refs = Make(data);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(
      CompressStrColumn(CodecId::kPdict, refs.data(), 5000, &buf).ok());
  // 1 bit/value + tiny dict vs ~8 bytes/value plain.
  EXPECT_LT(buf.size(), 1000u);
  EXPECT_EQ(ChooseStrCodec(refs.data(), 5000), CodecId::kPdict);
}

TEST_F(StrCodecTest, ChoosesPlainForUniqueStrings) {
  std::vector<std::string> data;
  for (int i = 0; i < 500; i++) data.push_back("unique-" + std::to_string(i));
  auto refs = Make(data);
  EXPECT_EQ(ChooseStrCodec(refs.data(), 500), CodecId::kPlain);
}

TEST_F(StrCodecTest, EmptyColumn) {
  ExpectStrRoundTrip(CodecId::kPlain, {});
  ExpectStrRoundTrip(CodecId::kPdict, {});
}

TEST_F(StrCodecTest, CorruptPdictCodeDetected) {
  auto refs = Make({"a", "b"});
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressStrColumn(CodecId::kPdict, refs.data(), 2, &buf).ok());
  StringHeap heap;
  std::vector<StrRef> out(2);
  EXPECT_FALSE(
      DecompressStrColumn(buf.data(), buf.size() / 2, &heap, out.data()).ok());
}

// ---- property sweep: every codec round-trips every distribution -------------

struct DistCase {
  const char* name;
  int n;
  uint64_t seed;
  int64_t lo, hi;
  double outlier_p;
  bool sorted;
};

class CodecPropertyTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(CodecPropertyTest, AllIntCodecsRoundTrip) {
  const DistCase& c = GetParam();
  Rng rng(c.seed);
  std::vector<int64_t> in;
  in.reserve(c.n);
  for (int i = 0; i < c.n; i++) {
    int64_t v = rng.Uniform(c.lo, c.hi);
    if (c.outlier_p > 0 && rng.Bernoulli(c.outlier_p)) {
      v = rng.Uniform(std::numeric_limits<int64_t>::min() / 2,
                      std::numeric_limits<int64_t>::max() / 2);
    }
    in.push_back(v);
  }
  if (c.sorted) std::sort(in.begin(), in.end());
  for (CodecId codec : {CodecId::kPlain, CodecId::kPfor, CodecId::kPforDelta,
                        CodecId::kRle}) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(CompressColumn<int64_t>(codec, in.data(), c.n, &buf).ok())
        << CodecName(codec);
    std::vector<int64_t> out(c.n);
    ASSERT_TRUE(
        DecompressColumn<int64_t>(buf.data(), buf.size(), out.data()).ok())
        << CodecName(codec);
    ASSERT_EQ(in, out) << c.name << " via " << CodecName(codec);
  }
  // The chosen codec must also round-trip.
  const CodecId chosen = ChooseCodec<int64_t>(in.data(), c.n);
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressColumn<int64_t>(chosen, in.data(), c.n, &buf).ok());
  std::vector<int64_t> out(c.n);
  ASSERT_TRUE(
      DecompressColumn<int64_t>(buf.data(), buf.size(), out.data()).ok());
  ASSERT_EQ(in, out) << "chosen codec " << CodecName(chosen);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, CodecPropertyTest,
    ::testing::Values(
        DistCase{"tiny_range", 4096, 11, 0, 15, 0, false},
        DistCase{"byte_range", 4096, 12, -128, 127, 0, false},
        DistCase{"outliers_1pct", 4096, 13, 0, 255, 0.01, false},
        DistCase{"outliers_10pct", 4096, 14, 0, 255, 0.10, false},
        DistCase{"full_random", 2048, 15, std::numeric_limits<int64_t>::min(),
                 std::numeric_limits<int64_t>::max(), 0, false},
        DistCase{"sorted_clustered", 4096, 16, 0, 1000000, 0, true},
        DistCase{"sorted_outliers", 4096, 17, 0, 1000, 0.02, true},
        DistCase{"constant", 4096, 18, 7, 7, 0, false},
        DistCase{"two_values", 4096, 19, 0, 1, 0, false},
        DistCase{"negative_range", 4096, 20, -1000000, -999000, 0, false}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return info.param.name;
    });

// ---- decode cursors ---------------------------------------------------------

/// Points `src` at `buf` cut into blocks of `block` bytes, so reads cross
/// block boundaries the way they do over the buffer pool.
void OpenBlocks(const std::vector<uint8_t>& buf, uint64_t block,
                ChunkSource* src) {
  src->Reset(0, buf.size(), block,
             [&buf, block](size_t i) -> Result<BlockBytes> {
               const size_t lo = i * block;
               const size_t hi = std::min<size_t>(buf.size(), lo + block);
               return std::make_shared<const std::vector<uint8_t>>(
                   buf.begin() + lo, buf.begin() + hi);
             });
}

constexpr int kCursorSizes[] = {0, 1, 1023, 1024, 1025, 65536};

/// Values of T for `codec`: runs for RLE, a small range with outliers on
/// vector edges for the PFOR codecs, anything for Plain.
template <typename T>
std::vector<T> CursorInput(CodecId codec, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> in(n);
  const T big = std::is_same_v<T, double> ? T(1e300)
                                          : std::numeric_limits<T>::max();
  for (int i = 0; i < n;) {
    if (codec == CodecId::kRle) {
      const int run = static_cast<int>(rng.Uniform(1, 3000));
      const T v = static_cast<T>(rng.Uniform(-100, 100));
      for (int j = 0; j < run && i < n; j++) in[i++] = v;
      continue;
    }
    in[i] = codec == CodecId::kPlain ? static_cast<T>(rng.Uniform(-1000, 1000))
                                     : static_cast<T>(rng.Uniform(0, 15));
    if (codec == CodecId::kPforDelta) in[i] = static_cast<T>(i / 16 + in[i]);
    i++;
  }
  // Exceptions (or outliers) on vector edges and at both chunk ends.
  for (int pos : {0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 4096, n - 1}) {
    if (pos >= 0 && pos < n && codec != CodecId::kRle) in[pos] = big;
  }
  if constexpr (std::is_same_v<T, double>) {
    for (int i = 0; i < n; i += 7) in[i] = in[i] / 8.0 + 0.125;
  }
  return in;
}

template <typename T>
constexpr TypeId kTypeOf = std::is_same_v<T, double>    ? TypeId::kF64
                           : std::is_same_v<T, int64_t> ? TypeId::kI64
                           : std::is_same_v<T, int32_t> ? TypeId::kI32
                           : std::is_same_v<T, int16_t> ? TypeId::kI16
                                                        : TypeId::kI8;

/// Decodes `buf` in random steps of 1..4096 values, a quarter of them
/// skipped, and compares every value written with `want`.
template <typename T>
void ExpectRandomSteps(ChunkSource* src, const std::vector<T>& want,
                       uint64_t seed) {
  std::unique_ptr<ChunkDecoder> d = MakeDecoder(kTypeOf<T>);
  ASSERT_TRUE(d->Open(src).ok());
  ASSERT_EQ(d->size(), want.size());
  ASSERT_TRUE(d->Next(0, nullptr).ok());
  Rng rng(seed);
  std::vector<T> out(4096);
  for (int pos = 0; pos < static_cast<int>(want.size());) {
    const int k = static_cast<int>(std::min<int64_t>(
        rng.Uniform(1, 4096), static_cast<int64_t>(want.size()) - pos));
    if (rng.Bernoulli(0.25)) {
      ASSERT_TRUE(d->Skip(k).ok()) << pos;
    } else {
      ASSERT_TRUE(d->Next(k, out.data()).ok()) << pos;
      for (int j = 0; j < k; j++) ASSERT_EQ(out[j], want[pos + j]) << pos + j;
    }
    pos += k;
  }
  EXPECT_EQ(d->Next(1, out.data()).code(), StatusCode::kIoError);
}

template <typename T>
void ExpectCursorRoundTrips() {
  std::vector<CodecId> codecs = {CodecId::kPlain, CodecId::kRle};
  if (!std::is_same_v<T, double>) {
    codecs.push_back(CodecId::kPfor);
    codecs.push_back(CodecId::kPforDelta);
  }
  for (CodecId codec : codecs) {
    for (int n : kCursorSizes) {
      SCOPED_TRACE(std::string(CodecName(codec)) + " n=" + std::to_string(n));
      const std::vector<T> in = CursorInput<T>(codec, n, n + 7);
      std::vector<uint8_t> buf;
      ASSERT_TRUE(CompressColumn<T>(codec, in.data(), n, &buf).ok());
      ChunkSource whole;
      whole.Reset(buf.data(), buf.size());
      ExpectRandomSteps<T>(&whole, in, n + 1);
      ChunkSource blocks;
      OpenBlocks(buf, 1000, &blocks);
      ExpectRandomSteps<T>(&blocks, in, n + 2);
      EXPECT_LE(blocks.held_blocks_high_water(), 3);
      std::vector<T> out(n);
      ASSERT_TRUE(DecompressColumn<T>(buf.data(), buf.size(), out.data()).ok());
      EXPECT_EQ(out, in);
    }
  }
}

TEST(CursorTest, NumericCodecsDecodeInRandomSteps) {
  ExpectCursorRoundTrips<int8_t>();
  ExpectCursorRoundTrips<int16_t>();
  ExpectCursorRoundTrips<int32_t>();
  ExpectCursorRoundTrips<int64_t>();
  ExpectCursorRoundTrips<double>();
}

TEST(CursorTest, StringCodecsDecodeInRandomSteps) {
  for (CodecId codec : {CodecId::kPlain, CodecId::kPdict}) {
    for (int n : kCursorSizes) {
      SCOPED_TRACE(std::string(CodecName(codec)) + " n=" + std::to_string(n));
      Rng rng(n + 3);
      std::vector<std::string> strs(n);
      for (int i = 0; i < n; i++) {
        const int id = static_cast<int>(
            codec == CodecId::kPdict ? rng.Uniform(0, 50) : i);
        strs[i] = std::string(static_cast<size_t>(id % 41), 'a' + id % 26) +
                  std::to_string(id);
      }
      std::vector<StrRef> in;
      for (const std::string& s : strs) {
        in.emplace_back(s.data(), static_cast<uint32_t>(s.size()));
      }
      std::vector<uint8_t> buf;
      ASSERT_TRUE(CompressStrColumn(codec, in.data(), n, &buf).ok());
      for (bool in_place : {false, true}) {
        ChunkSource src;
        OpenBlocks(buf, 1000, &src);
        StringHeap heap;
        std::unique_ptr<ChunkDecoder> d =
            MakeDecoder(TypeId::kStr, &heap, in_place);
        ASSERT_TRUE(d->Open(&src).ok());
        std::vector<StrRef> out(4096);
        for (int pos = 0; pos < n;) {
          const int k = static_cast<int>(
              std::min<int64_t>(rng.Uniform(1, 4096), n - pos));
          d->BeginBatch();
          if (rng.Bernoulli(0.25)) {
            ASSERT_TRUE(d->Skip(k).ok());
          } else {
            ASSERT_TRUE(d->Next(k, out.data()).ok());
            for (int j = 0; j < k; j++) {
              ASSERT_EQ(out[j].view(), strs[pos + j]) << pos + j;
            }
          }
          pos += k;
        }
        EXPECT_LE(src.held_blocks_high_water(), 2);
      }
    }
  }
}

// ---- corrupt chunks the decoders must reject ------------------------------

/// The first `len` bytes of `buf` in a buffer of exactly that size, so a
/// read past the cut is a heap overflow under ASan.
std::vector<uint8_t> Cut(const std::vector<uint8_t>& buf, size_t len) {
  return std::vector<uint8_t>(buf.begin(), buf.begin() + len);
}

TEST(CorruptChunkTest, PforCutByItsSlackIsIoError) {
  std::vector<int32_t> in(1000);
  for (int i = 0; i < 1000; i++) in[i] = i % 7;
  in[999] = 1 << 30;  // one exception, its value the last 8 bytes
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressColumn<int32_t>(CodecId::kPfor, in.data(), 1000, &buf)
                  .ok());
  const std::vector<uint8_t> cut = Cut(buf, buf.size() - 8);
  std::vector<int32_t> out(1000);
  EXPECT_EQ(DecompressColumn<int32_t>(cut.data(), cut.size(), out.data())
                .code(),
            StatusCode::kIoError);
}

TEST(CorruptChunkTest, PdictCodesCutInHalfIsIoError) {
  std::vector<std::string> strs;
  for (int i = 0; i < 5000; i++) strs.push_back("v" + std::to_string(i % 9));
  std::vector<StrRef> in;
  for (const std::string& s : strs) {
    in.emplace_back(s.data(), static_cast<uint32_t>(s.size()));
  }
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressStrColumn(CodecId::kPdict, in.data(), 5000, &buf).ok());
  const std::vector<uint8_t> cut = Cut(buf, buf.size() / 2);
  StringHeap heap;
  std::vector<StrRef> out(5000);
  EXPECT_EQ(DecompressStrColumn(cut.data(), cut.size(), &heap, out.data())
                .code(),
            StatusCode::kIoError);
}

TEST(CorruptChunkTest, WidthAbove64IsIoError) {
  std::vector<StrRef> strs = {StrRef("a", 1), StrRef("b", 1)};
  std::vector<uint8_t> pdict;
  ASSERT_TRUE(CompressStrColumn(CodecId::kPdict, strs.data(), 2, &pdict).ok());
  pdict[1] = 70;
  StringHeap heap;
  std::vector<StrRef> sout(2);
  EXPECT_EQ(DecompressStrColumn(pdict.data(), pdict.size(), &heap, sout.data())
                .code(),
            StatusCode::kIoError);

  std::vector<int64_t> in(100, 3);
  in[7] = 1000;
  std::vector<uint8_t> pfor;
  ASSERT_TRUE(CompressColumn<int64_t>(CodecId::kPfor, in.data(), 100, &pfor)
                  .ok());
  pfor[1] = 70;
  std::vector<int64_t> out(100);
  EXPECT_EQ(DecompressColumn<int64_t>(pfor.data(), pfor.size(), out.data())
                .code(),
            StatusCode::kIoError);
}

TEST(CorruptChunkTest, ExceptionPositionsMustAscend) {
  std::vector<int64_t> in(3000, 1);
  in[5] = in[1030] = in[2000] = int64_t{1} << 40;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(CompressColumn<int64_t>(CodecId::kPfor, in.data(), 3000, &buf)
                  .ok());
  uint32_t n_exc;
  std::memcpy(&n_exc, buf.data() + 16, sizeof(n_exc));
  ASSERT_EQ(n_exc, 3u);
  const size_t pos_off = 20 + PackedBytes(3000, buf[1]);
  std::vector<int64_t> out(3000);
  ASSERT_TRUE(
      DecompressColumn<int64_t>(buf.data(), buf.size(), out.data()).ok());
  ASSERT_EQ(out, in);
  // Swapped: 1030 before 5.
  std::vector<uint8_t> swapped = buf;
  std::memcpy(swapped.data() + pos_off, buf.data() + pos_off + 4, 4);
  std::memcpy(swapped.data() + pos_off + 4, buf.data() + pos_off, 4);
  EXPECT_EQ(DecompressColumn<int64_t>(swapped.data(), swapped.size(),
                                      out.data())
                .code(),
            StatusCode::kIoError);
  // Repeated: 5 twice.
  std::vector<uint8_t> repeated = buf;
  std::memcpy(repeated.data() + pos_off + 4, buf.data() + pos_off, 4);
  EXPECT_EQ(DecompressColumn<int64_t>(repeated.data(), repeated.size(),
                                      out.data())
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace x100
