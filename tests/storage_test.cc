// Storage tests: block device conformance (the RAM medium and the slot
// file in both lifetimes), buffer manager, PAX/DSM table round-trips,
// MinMax pushdown, NULL chunks, column cursors over chunks that cross
// blocks, and the load path (the stored image does not depend on how rows
// arrive).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "compression/bitpack.h"
#include "engine/database.h"
#include "exec/scan.h"
#include "pdt/transaction.h"
#include "pdt/view.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/file_block_device.h"
#include "storage/simulated_disk.h"
#include "storage/table.h"
#include "tpch/tpch.h"

namespace x100 {
namespace {

TEST(BufferManagerTest, CachesAndCountsHits) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 4);
  BlockId id = *disk.WriteBlock({7, 7, 7});
  ASSERT_TRUE(bm.GetBlock(id).ok());
  ASSERT_TRUE(bm.GetBlock(id).ok());
  EXPECT_EQ(bm.misses(), 1);
  EXPECT_EQ(bm.hits(), 1);
  EXPECT_EQ(disk.blocks_read(), 1);
}

TEST(BufferManagerTest, EvictsLruBeyondCapacity) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 2);
  BlockId a = *disk.WriteBlock({1});
  BlockId b = *disk.WriteBlock({2});
  BlockId c = *disk.WriteBlock({3});
  ASSERT_TRUE(bm.GetBlock(a).ok());
  ASSERT_TRUE(bm.GetBlock(b).ok());
  ASSERT_TRUE(bm.GetBlock(c).ok());  // evicts a
  EXPECT_EQ(bm.size(), 2);
  EXPECT_FALSE(bm.Contains(a));
  EXPECT_TRUE(bm.Contains(b));
  EXPECT_TRUE(bm.Contains(c));
}

TEST(BufferManagerTest, SharedPtrSurvivesEviction) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1024);  // smaller than one block
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(4096, 42));
  auto blk = bm.GetBlock(a);
  ASSERT_TRUE(blk.ok());
  BlockId b = *disk.WriteBlock(std::vector<uint8_t>(4096, 43));
  ASSERT_TRUE(bm.GetBlock(b).ok());  // evicts a
  EXPECT_FALSE(bm.Contains(a));
  disk.FreeBlock(a);  // the reader now holds the only reference
  EXPECT_EQ(**blk, std::vector<uint8_t>(4096, 42));  // still readable
}

TEST(BufferManagerTest, TinyPoolConcurrentHammerKeepsAccountingExact) {
  // Capacity 0: every block is evicted the moment its last pin drops, so
  // loaders, single-flight waiters and their re-install paths constantly
  // collide on the same id. A loader that installs over an entry a waiter
  // re-installed while its IO ran would double-count bytes and underflow
  // the other side's pin count — the end state below would be nonzero.
  SimulatedDisk disk;
  BufferManager bm(&disk, 0);
  BlockId id = *disk.WriteBlock({1, 2, 3, 4});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; i++) {
        auto pin = bm.PinBlock(id);
        if (!pin.ok()) {
          EXPECT_TRUE(pin.ok()) << pin.status().ToString();
          return;
        }
        EXPECT_EQ(pin->data()[0], 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bm.pinned_bytes(), 0);
  EXPECT_EQ(bm.bytes_cached(), 0);
  EXPECT_EQ(bm.size(), 0);
  // Every PinBlock call is counted exactly once: a call is a hit, a miss,
  // or a single-flight wait — never zero of them, never two.
  EXPECT_EQ(bm.hits() + bm.misses() + bm.single_flight_waits(), 8 * 500);
}

TEST(BufferManagerTest, InvalidateDropsBlock) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 4);
  BlockId a = *disk.WriteBlock({1});
  ASSERT_TRUE(bm.GetBlock(a).ok());
  bm.Invalidate(a);
  EXPECT_FALSE(bm.Contains(a));
  ASSERT_TRUE(bm.GetBlock(a).ok());
  EXPECT_EQ(bm.misses(), 2);
}

// ---------------------------------------------------------------------------
// One copy: over the RAM device the pool holds the device's own bytes
// ---------------------------------------------------------------------------

TEST(BandwidthChannelTest, RateChangesWhileFourThreadsCharge) {
  // A test may turn the throttle off while read-ahead tasks still charge
  // the channel: set_bandwidth and Charge must not race (TSan), and the
  // unthrottled charge stays lock-free.
  BandwidthChannel channel(0);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> charges{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&channel, &stop, &charges]() {
      while (!stop.load()) {
        EXPECT_TRUE(channel.Charge(64, nullptr).ok());
        charges.fetch_add(1);
      }
    });
  }
  // 1 GiB/s: a 64-byte charge waits well under a microsecond.
  for (int i = 0; i < 1000 || charges.load() < 1000; i++) {
    channel.set_bandwidth(i % 2 == 0 ? int64_t{1} << 30 : 0);
    std::this_thread::yield();
  }
  channel.set_bandwidth(0);
  stop = true;
  for (std::thread& t : threads) t.join();
  EXPECT_GE(charges.load(), 1000);
}

TEST(SharedBlockBytesTest, DemandPinHandsOutTheDevicesBytes) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  BlockId id = *disk.WriteBlock(std::vector<uint8_t>(4096, 3));
  auto pin = bm.PinBlock(id);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(bm.misses(), 1);
  EXPECT_EQ(pin->data().data(), (*disk.ReadBlock(id))->data());
}

TEST(SharedBlockBytesTest, PrefetchedThenPinnedBlockIsTheDevicesBytes) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  BlockId id = *disk.WriteBlock(std::vector<uint8_t>(4096, 4));
  bm.Prefetch(id);
  bm.DrainPrefetches();
  ASSERT_TRUE(bm.Contains(id));  // installed by the read-ahead
  auto pin = bm.PinBlock(id);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(bm.prefetch_hits(), 1);
  EXPECT_EQ(pin->data().data(), (*disk.ReadBlock(id))->data());
}

TEST(SharedBlockBytesTest, FreeBlockLeavesAHeldPinIntact) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  BlockId id = *disk.WriteBlock(std::vector<uint8_t>(4096, 5));
  auto pin = bm.PinBlock(id);
  ASSERT_TRUE(pin.ok());
  disk.FreeBlock(id);
  EXPECT_EQ(disk.bytes_freed(), 4096);
  EXPECT_TRUE((*disk.ReadBlock(id))->empty());  // the device let go
  EXPECT_EQ(pin->data(), std::vector<uint8_t>(4096, 5));
}

// ---------------------------------------------------------------------------
// Table round-trips
// ---------------------------------------------------------------------------

Schema MixedSchema() {
  return Schema({Field("id", TypeId::kI64),
                 Field("qty", TypeId::kI32),
                 Field("price", TypeId::kF64),
                 Field("flag", TypeId::kStr),
                 Field("ship", TypeId::kDate),
                 Field("note", TypeId::kStr, /*nullable=*/true)});
}

std::unique_ptr<Table> BuildMixedTable(SimulatedDisk* disk, Layout layout,
                                       int rows, int group_rows) {
  TableBuilder b("t", MixedSchema(), layout, disk, group_rows);
  Rng rng(99);
  for (int i = 0; i < rows; i++) {
    std::vector<Value> row;
    row.push_back(Value::I64(i));
    row.push_back(Value::I32(static_cast<int32_t>(rng.Uniform(1, 50))));
    row.push_back(Value::F64(static_cast<double>(i % 1000) / 10.0));
    row.push_back(Value::Str(i % 3 == 0 ? "A" : (i % 3 == 1 ? "N" : "R")));
    row.push_back(Value::Date(MakeDate(1994, 1, 1) + i % 2000));
    row.push_back(i % 5 == 0 ? Value::Null(TypeId::kStr)
                             : Value::Str("note-" + std::to_string(i % 7)));
    EXPECT_TRUE(b.AppendRow(row).ok());
  }
  auto t = b.Finish();
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

class TableLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(TableLayoutTest, RoundTripAllColumns) {
  SimulatedDisk disk;
  auto table = BuildMixedTable(&disk, GetParam(), 2500, 1000);
  EXPECT_EQ(table->num_rows(), 2500);
  EXPECT_EQ(table->num_groups(), 3);  // 1000 + 1000 + 500
  EXPECT_EQ(table->group(2).rows, 500u);
  EXPECT_EQ(table->group(1).first_sid, 1000);

  BufferManager bm(&disk, 64 << 20);
  TableReader reader(table.get(), &bm);
  int64_t row = 0;
  for (int g = 0; g < table->num_groups(); g++) {
    const int n = static_cast<int>(table->group(g).rows);
    std::vector<int64_t> ids(n);
    std::vector<int32_t> qty(n);
    std::vector<double> price(n);
    std::vector<StrRef> flag(n), note(n);
    std::vector<int32_t> ship(n);
    std::vector<uint8_t> note_nulls(n);
    StringHeap heap;
    ASSERT_TRUE(reader.ReadColumn(g, 0, ids.data(), nullptr, nullptr).ok());
    ASSERT_TRUE(reader.ReadColumn(g, 1, qty.data(), nullptr, nullptr).ok());
    ASSERT_TRUE(reader.ReadColumn(g, 2, price.data(), nullptr, nullptr).ok());
    ASSERT_TRUE(reader.ReadColumn(g, 3, flag.data(), nullptr, &heap).ok());
    ASSERT_TRUE(reader.ReadColumn(g, 4, ship.data(), nullptr, nullptr).ok());
    ASSERT_TRUE(
        reader.ReadColumn(g, 5, note.data(), note_nulls.data(), &heap).ok());
    for (int i = 0; i < n; i++, row++) {
      ASSERT_EQ(ids[i], row);
      EXPECT_EQ(price[i], static_cast<double>(row % 1000) / 10.0);
      const char* expect_flag =
          row % 3 == 0 ? "A" : (row % 3 == 1 ? "N" : "R");
      EXPECT_EQ(flag[i].view(), expect_flag);
      EXPECT_EQ(ship[i], MakeDate(1994, 1, 1) + row % 2000);
      if (row % 5 == 0) {
        EXPECT_EQ(note_nulls[i], 1);
      } else {
        EXPECT_EQ(note_nulls[i], 0);
        EXPECT_EQ(note[i].view(), "note-" + std::to_string(row % 7));
      }
    }
  }
}

TEST_P(TableLayoutTest, CompressionShrinksData) {
  SimulatedDisk disk;
  auto table = BuildMixedTable(&disk, GetParam(), 10000, 4096);
  // Raw width: 8+4+8+16+4+16 (+null byte) ≈ 57 B/row; expect real savings
  // from PFOR ids (delta), PDICT flags, RLE nulls.
  EXPECT_LT(table->compressed_bytes(), 10000 * 40);
  EXPECT_GT(table->compressed_bytes(), 0);
}

TEST_P(TableLayoutTest, MinMaxPruning) {
  SimulatedDisk disk;
  auto table = BuildMixedTable(&disk, GetParam(), 2000, 1000);
  // ids column: group 0 covers [0,999], group 1 [1000,1999].
  EXPECT_TRUE(table->GroupMayMatch(0, 0, RangeOp::kEq, Value::I64(500)));
  EXPECT_FALSE(table->GroupMayMatch(0, 0, RangeOp::kEq, Value::I64(1500)));
  EXPECT_TRUE(table->GroupMayMatch(1, 0, RangeOp::kEq, Value::I64(1500)));
  EXPECT_FALSE(table->GroupMayMatch(0, 0, RangeOp::kGt, Value::I64(1200)));
  EXPECT_TRUE(table->GroupMayMatch(1, 0, RangeOp::kGt, Value::I64(1200)));
  EXPECT_FALSE(table->GroupMayMatch(1, 0, RangeOp::kLt, Value::I64(800)));
  EXPECT_TRUE(table->GroupMayMatch(0, 0, RangeOp::kLe, Value::I64(0)));
  // Strings: always conservative.
  EXPECT_TRUE(table->GroupMayMatch(0, 3, RangeOp::kEq, Value::Str("A")));
}

// A chunk whose blocks read back short (a freed block of the RAM device
// reads as empty) fails with kIoError; padding it would decode zeros as
// data (DSM), and slicing past it would never advance (PAX).
TEST_P(TableLayoutTest, ShortChunkIsIoError) {
  SimulatedDisk disk;
  TableBuilder b("t", Schema({Field("x", TypeId::kF64)}), GetParam(), &disk);
  for (int i = 0; i < 70000; i++) {
    ASSERT_TRUE(b.AppendRow({Value::F64(i * 0.25 + 1)}).ok());
  }
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  const GroupMeta& gm = (*t)->group(0);
  const std::vector<BlockId>& blocks =
      GetParam() == Layout::kDsm ? gm.cols[0].loc.blocks : gm.pax_blocks;
  ASSERT_EQ(blocks.size(), 3u);
  std::vector<double> out(gm.rows);
  {
    BufferManager bm(&disk, 64 << 20);
    TableReader reader(t->get(), &bm);
    ASSERT_TRUE(reader.ReadColumn(0, 0, out.data(), nullptr, nullptr).ok());
    EXPECT_EQ(out[65535], 16384.75);
  }
  disk.FreeBlock(blocks.back());
  BufferManager bm(&disk, 64 << 20);
  TableReader reader(t->get(), &bm);
  EXPECT_EQ(reader.ReadColumn(0, 0, out.data(), nullptr, nullptr).code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Column cursors over chunks that cross blocks
// ---------------------------------------------------------------------------

constexpr int kCrossRows = 65536;

std::string PlainCell(int i) {
  std::string s = "row-" + std::to_string(i) + "-";
  s.resize(60 + i % 9, static_cast<char>('a' + i % 26));
  return s;
}

std::string DictCell(int i) {
  std::string s = "entry-" + std::to_string(i % 4000) + "-";
  s.resize(100, 'x');
  return s;
}

double F64Cell(int i) { return i * 1.5 + (i % 7) * 1e9; }

int64_t WideCell(int i) {
  // 32-bit residuals with 1% outliers: PFOR with a 32-bit width, whose
  // slots fill the first block so the exception list starts in the next.
  const uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
  return i % 100 == 7 ? (int64_t{1} << 50) + i
                      : static_cast<int64_t>(h >> 32);
}

/// One group whose every chunk crosses blocks: a Plain f64 (three blocks),
/// a wide PFOR whose exception list lies in the next block, ~64-byte
/// Plain strings and a PDICT whose dictionary crosses a block.
std::unique_ptr<Table> BuildCrossingTable(SimulatedDisk* disk, Layout layout) {
  TableBuilder b("x",
                 Schema({Field("f", TypeId::kF64), Field("w", TypeId::kI64),
                         Field("s", TypeId::kStr), Field("d", TypeId::kStr)}),
                 layout, disk);
  for (int i = 0; i < kCrossRows; i++) {
    EXPECT_TRUE(b.AppendRow({Value::F64(F64Cell(i)), Value::I64(WideCell(i)),
                             Value::Str(PlainCell(i)),
                             Value::Str(DictCell(i))})
                    .ok());
  }
  auto t = b.Finish();
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

class CrossingChunkTest : public ::testing::TestWithParam<Layout> {
 protected:
  void SetUp() override { table_ = BuildCrossingTable(&disk_, GetParam()); }

  /// Checks row `i` of the four columns.
  static void ExpectRow(int i, double f, int64_t w, StrRef s, StrRef d) {
    ASSERT_EQ(f, F64Cell(i)) << i;
    ASSERT_EQ(w, WideCell(i)) << i;
    ASSERT_EQ(s.view(), PlainCell(i)) << i;
    ASSERT_EQ(d.view(), DictCell(i)) << i;
  }

  SimulatedDisk disk_;
  std::unique_ptr<Table> table_;
};

TEST_P(CrossingChunkTest, ChunksHaveTheShapesUnderTest) {
  ASSERT_EQ(table_->num_groups(), 1);
  const GroupMeta& gm = table_->group(0);
  const bool dsm = GetParam() == Layout::kDsm;
  // Region offset of a chunk's first byte, its bytes, and the block a
  // chunk offset lies in.
  auto base = [&](int c) { return dsm ? 0 : gm.cols[c].loc.offset; };
  auto chunk = [&](int c) {
    const ChunkLoc& loc = gm.cols[c].loc;
    const std::vector<BlockId>& blocks = dsm ? loc.blocks : gm.pax_blocks;
    std::vector<uint8_t> bytes(loc.length);
    for (uint64_t i = 0; i < loc.length; i++) {
      const uint64_t at = base(c) + i;
      bytes[i] =
          (**disk_.ReadBlock(blocks[at / kDiskBlockBytes]))[at %
                                                            kDiskBlockBytes];
    }
    return bytes;
  };
  auto block = [&](int c, uint64_t off) {
    return (base(c) + off) / kDiskBlockBytes;
  };
  EXPECT_GE(block(0, gm.cols[0].loc.length - 1) - block(0, 0), 2u);
  const std::vector<uint8_t> wide = chunk(1);
  ASSERT_EQ(static_cast<CodecId>(wide[0]), CodecId::kPfor);
  // The exception list starts in a later block than the slots.
  EXPECT_GT(block(1, 20 + PackedBytes(kCrossRows, wide[1])), block(1, 20));
  EXPECT_EQ(static_cast<CodecId>(chunk(2)[0]), CodecId::kPlain);
  const std::vector<uint8_t> dict = chunk(3);
  ASSERT_EQ(static_cast<CodecId>(dict[0]), CodecId::kPdict);
  uint32_t dict_size, len;
  std::memcpy(&dict_size, dict.data() + 8, 4);
  uint64_t end = 12;
  for (uint32_t e = 0; e < dict_size; e++) {
    std::memcpy(&len, dict.data() + end, 4);
    end += 4 + len;
  }
  EXPECT_GT(block(3, end - 1), block(3, 12));  // the dictionary crosses
}

TEST_P(CrossingChunkTest, ScansAtEveryVectorSizeEqualReadColumn) {
  BufferManager bm(&disk_, 64 << 20);
  // ReadColumn yields the stored values; every scan below must too.
  TableReader reader(table_.get(), &bm);
  std::vector<double> f(kCrossRows);
  std::vector<int64_t> w(kCrossRows);
  std::vector<StrRef> str(kCrossRows), dict(kCrossRows);
  StringHeap heap;
  ASSERT_TRUE(reader.ReadColumn(0, 0, f.data(), nullptr, nullptr).ok());
  ASSERT_TRUE(reader.ReadColumn(0, 1, w.data(), nullptr, nullptr).ok());
  ASSERT_TRUE(reader.ReadColumn(0, 2, str.data(), nullptr, &heap).ok());
  ASSERT_TRUE(reader.ReadColumn(0, 3, dict.data(), nullptr, &heap).ok());
  for (int i = 0; i < kCrossRows; i++) {
    ExpectRow(i, f[i], w[i], str[i], dict[i]);
  }
  for (int vs : {1, 7, 1024, 4096}) {
    SCOPED_TRACE("vector size " + std::to_string(vs));
    ExecContext ctx;
    ctx.vector_size = vs;
    ScanOptions opts;
    opts.columns = {0, 1, 2, 3};
    ScanOp scan(TableView{table_.get(), {}}, {}, &bm, std::move(opts));
    ASSERT_TRUE(scan.Open(&ctx).ok());
    int row = 0;
    for (;;) {
      auto b = scan.Next();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      if (*b == nullptr) break;
      const Batch& batch = **b;
      for (int i = 0; i < batch.rows(); i++, row++) {
        ExpectRow(row, batch.column(0)->Data<double>()[i],
                  batch.column(1)->Data<int64_t>()[i],
                  batch.column(2)->Data<StrRef>()[i],
                  batch.column(3)->Data<StrRef>()[i]);
      }
    }
    scan.Close();
    EXPECT_EQ(row, kCrossRows);
  }
}

TEST_P(CrossingChunkTest, CursorsHoldAtMostTwoBlocksAndFetchEachOnce) {
  const GroupMeta& gm = table_->group(0);
  for (int vs : {1, 7, 1024, 4096}) {
    for (int c = 0; c < 4; c++) {
      SCOPED_TRACE("vector size " + std::to_string(vs) + " column " +
                   std::to_string(c));
      BufferManager bm(&disk_, 64 << 20);
      const TypeId type = table_->schema().field(c).type;
      StringHeap heap;
      ColumnCursor cursor(type, &heap, /*in_place=*/true);
      ASSERT_TRUE(cursor.Open(table_.get(), &bm, 0, c).ok());
      std::vector<uint8_t> out(static_cast<size_t>(vs) * 16);
      for (int row = 0; row < kCrossRows; row += vs) {
        const int k = std::min(vs, kCrossRows - row);
        heap.Reset();
        cursor.BeginBatch();
        ASSERT_TRUE(cursor.Next(k, out.data(), nullptr).ok());
        for (int i = 0; i < k; i++) {
          const int r = row + i;
          switch (c) {
            case 0:
              ASSERT_EQ(reinterpret_cast<double*>(out.data())[i], F64Cell(r));
              break;
            case 1:
              ASSERT_EQ(reinterpret_cast<int64_t*>(out.data())[i],
                        WideCell(r));
              break;
            default:
              ASSERT_EQ(reinterpret_cast<StrRef*>(out.data())[i].view(),
                        c == 2 ? PlainCell(r) : DictCell(r));
          }
        }
      }
      EXPECT_LE(cursor.held_blocks_high_water(), 2);
      if (GetParam() == Layout::kDsm) {
        EXPECT_EQ(bm.hits() + bm.misses(),
                  static_cast<int64_t>(gm.cols[c].loc.blocks.size()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, CrossingChunkTest,
                         ::testing::Values(Layout::kDsm, Layout::kPax),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return info.param == Layout::kDsm ? "DSM" : "PAX";
                         });

INSTANTIATE_TEST_SUITE_P(Layouts, TableLayoutTest,
                         ::testing::Values(Layout::kDsm, Layout::kPax),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return info.param == Layout::kDsm ? "DSM" : "PAX";
                         });

TEST(TableLayoutIoTest, NarrowScanReadsLessOnDsm) {
  // DSM: reading 1 of 6 columns touches only that column's blocks.
  // PAX: the whole group region is the IO unit.
  SimulatedDisk dsm_disk, pax_disk;
  auto dsm = BuildMixedTable(&dsm_disk, Layout::kDsm, 20000, 8192);
  auto pax = BuildMixedTable(&pax_disk, Layout::kPax, 20000, 8192);
  BufferManager dsm_bm(&dsm_disk, 64 << 20), pax_bm(&pax_disk, 64 << 20);
  TableReader dsm_r(dsm.get(), &dsm_bm), pax_r(pax.get(), &pax_bm);
  dsm_disk.ResetStats();
  pax_disk.ResetStats();
  std::vector<int32_t> qty(8192);
  for (int g = 0; g < dsm->num_groups(); g++) {
    ASSERT_TRUE(dsm_r.ReadColumn(g, 1, qty.data(), nullptr, nullptr).ok());
    ASSERT_TRUE(pax_r.ReadColumn(g, 1, qty.data(), nullptr, nullptr).ok());
  }
  EXPECT_LT(dsm_disk.bytes_read(), pax_disk.bytes_read());
}

TEST(TableLayoutIoTest, WideScanAmortizesOnPax) {
  // Reading *all* columns of a group: PAX pays one region, further columns
  // are cache hits.
  SimulatedDisk disk;
  auto pax = BuildMixedTable(&disk, Layout::kPax, 8192, 8192);
  BufferManager bm(&disk, 64 << 20);
  TableReader r(pax.get(), &bm);
  disk.ResetStats();
  std::vector<int64_t> ids(8192);
  std::vector<int32_t> qty(8192);
  std::vector<double> price(8192);
  ASSERT_TRUE(r.ReadColumn(0, 0, ids.data(), nullptr, nullptr).ok());
  const int64_t after_first = disk.blocks_read();
  ASSERT_TRUE(r.ReadColumn(0, 1, qty.data(), nullptr, nullptr).ok());
  ASSERT_TRUE(r.ReadColumn(0, 2, price.data(), nullptr, nullptr).ok());
  EXPECT_EQ(disk.blocks_read(), after_first);  // all hits
}

TEST(TableBuilderTest, RejectsArityMismatch) {
  SimulatedDisk disk;
  TableBuilder b("t", Schema({Field("a", TypeId::kI32)}), Layout::kDsm,
                 &disk);
  EXPECT_EQ(b.AppendRow({Value::I32(1), Value::I32(2)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableBuilderTest, RejectsNullInNonNullable) {
  SimulatedDisk disk;
  TableBuilder b("t", Schema({Field("a", TypeId::kI32)}), Layout::kDsm,
                 &disk);
  EXPECT_EQ(b.AppendRow({Value::Null(TypeId::kI32)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableBuilderTest, EmptyTable) {
  SimulatedDisk disk;
  TableBuilder b("t", Schema({Field("a", TypeId::kI32)}), Layout::kDsm,
                 &disk);
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 0);
  EXPECT_EQ((*t)->num_groups(), 0);
}

// ---------------------------------------------------------------------------
// Buffer pool contract: byte budget, pins, single-flight
// ---------------------------------------------------------------------------

TEST(BufferPoolContractTest, CapacityIsAccountedInBytes) {
  SimulatedDisk disk;
  // 100-byte budget: two 40-byte blocks fit, a third forces an eviction
  // even though the old block-count capacity (256) never would have.
  BufferManager bm(&disk, 100);
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(40, 1));
  BlockId b = *disk.WriteBlock(std::vector<uint8_t>(40, 2));
  BlockId c = *disk.WriteBlock(std::vector<uint8_t>(40, 3));
  ASSERT_TRUE(bm.GetBlock(a).ok());
  ASSERT_TRUE(bm.GetBlock(b).ok());
  EXPECT_EQ(bm.bytes_cached(), 80);
  EXPECT_EQ(bm.evictions(), 0);
  ASSERT_TRUE(bm.GetBlock(c).ok());  // 120 > 100: evicts LRU (a)
  EXPECT_EQ(bm.evictions(), 1);
  EXPECT_FALSE(bm.Contains(a));
  EXPECT_TRUE(bm.Contains(b));
  EXPECT_TRUE(bm.Contains(c));
  EXPECT_LE(bm.bytes_cached(), 100);
}

TEST(BufferPoolContractTest, PinnedBlocksAreImmuneToEviction) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 10);
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(8, 1));
  auto pin = bm.PinBlock(a);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(bm.pinned_bytes(), 8);
  // Flood the pool: every new block overflows the budget, but the pinned
  // block must survive every eviction pass.
  for (int i = 0; i < 16; i++) {
    BlockId x = *disk.WriteBlock(std::vector<uint8_t>(8, uint8_t(i)));
    ASSERT_TRUE(bm.GetBlock(x).ok());
    ASSERT_TRUE(bm.Contains(a));
    // The documented invariant: resident bytes never exceed the budget
    // plus the pinned working set.
    EXPECT_LE(bm.bytes_cached(), bm.capacity_bytes() + bm.pinned_bytes());
  }
  EXPECT_EQ((*pin).data()[0], 1);  // pinned bytes still intact
  pin->Release();
  EXPECT_EQ(bm.pinned_bytes(), 0);
  // Unpinned now: the next overflow may evict it.
  BlockId y = *disk.WriteBlock(std::vector<uint8_t>(8, 99));
  ASSERT_TRUE(bm.GetBlock(y).ok());
  EXPECT_FALSE(bm.Contains(a));
}

TEST(BufferPoolContractTest, ZeroCapacityPoolStillServesReads) {
  // Regression: the old EvictIfNeeded could evict the entry it had just
  // inserted and then dereference the erased iterator. A zero-byte pool
  // makes every insert immediately evictable; pin-during-insert must keep
  // the bytes alive until the caller has them.
  SimulatedDisk disk;
  BufferManager bm(&disk, 0);
  BlockId a = *disk.WriteBlock({11, 22, 33});
  auto blk = bm.GetBlock(a);
  ASSERT_TRUE(blk.ok());
  EXPECT_EQ((**blk)[2], 33);
  EXPECT_FALSE(bm.Contains(a));  // evicted the moment the pin dropped
  // Every read is a miss, but always a correct one.
  auto again = bm.GetBlock(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((**again)[0], 11);
  EXPECT_EQ(bm.misses(), 2);
  EXPECT_EQ(bm.bytes_cached(), 0);
}

TEST(BufferPoolContractTest, TinyCapacityPinOverflowsBudgetSafely) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1);  // smaller than any block
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(64, 5));
  auto pin = bm.PinBlock(a);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->data().size(), 64u);
  EXPECT_EQ(bm.bytes_cached(), 64);  // over budget, but pinned
  pin->Release();
  EXPECT_EQ(bm.bytes_cached(), 0);  // evicted once unpinned
}

TEST(BufferPoolContractTest, StaleUnpinAfterInvalidateIsHarmless) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  BlockId a = *disk.WriteBlock({1, 2, 3});
  auto pin = bm.PinBlock(a);
  ASSERT_TRUE(pin.ok());
  bm.Invalidate(a);  // drops the entry even though it is pinned
  // Reload installs a new generation under the same id.
  ASSERT_TRUE(bm.GetBlock(a).ok());
  const int64_t cached = bm.bytes_cached();
  pin->Release();  // stale generation: must not unpin the new entry
  EXPECT_EQ(bm.bytes_cached(), cached);
  EXPECT_EQ(bm.pinned_bytes(), 0);
}

TEST(BufferPoolContractTest, SingleFlightCoalescesConcurrentMisses) {
  // 16 threads hammer one uncached block through a slow device. The fix
  // under test: exactly ONE device read happens; 15 threads wait on the
  // in-flight load instead of issuing their own.
  SimulatedDisk disk(1 << 20);  // 1 MiB/s -> the 64 KiB read takes ~60 ms
  BufferManager bm(&disk, 1 << 20);
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(64 * 1024, 7));
  constexpr int kThreads = 16;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; i++) {
    threads.emplace_back([&] {
      auto blk = bm.GetBlock(a);
      if (blk.ok() && (**blk)[0] == 7) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_EQ(disk.blocks_read(), 1);  // the thundering herd made ONE read
  EXPECT_EQ(bm.misses(), 1);
  EXPECT_EQ(bm.hits() + bm.single_flight_waits(), kThreads - 1);
  // Exact accounting: all 16 calls counted, each exactly once.
  EXPECT_EQ(bm.hits() + bm.misses() + bm.single_flight_waits(), kThreads);
}

TEST(BufferPoolContractTest, ScanPeakStaysWithinBudgetPlusPins) {
  // Dataset >> pool: a full-table read through a pool sized at a fraction
  // of the data must (a) return correct bytes and (b) never hold more
  // than budget + one pinned working set resident.
  SimulatedDisk disk;
  auto table = BuildMixedTable(&disk, Layout::kPax, 20000, 1024);
  int64_t data_bytes = 0;
  for (int g = 0; g < table->num_groups(); g++) {
    std::vector<BlockId> ids;
    Table::AppendGroupBlockIds(table->group(g), &ids);
    for (BlockId b : ids) {
      data_bytes += static_cast<int64_t>((*disk.ReadBlock(b))->size());
    }
  }
  const int64_t pool = data_bytes / 4;
  ASSERT_GT(pool, 0);
  BufferManager bm(&disk, pool);
  TableReader reader(table.get(), &bm);
  StringHeap heap;
  for (int g = 0; g < table->num_groups(); g++) {
    const int n = static_cast<int>(table->group(g).rows);
    std::vector<int64_t> ids(n);
    std::vector<StrRef> note(n);
    std::vector<uint8_t> nulls(n);
    ASSERT_TRUE(reader.ReadColumn(g, 0, ids.data(), nullptr, nullptr).ok());
    ASSERT_TRUE(
        reader.ReadColumn(g, 5, note.data(), nulls.data(), &heap).ok());
    EXPECT_EQ(ids[0], table->group(g).first_sid);
  }
  EXPECT_GT(bm.evictions(), 0);  // the pool actually cycled
  EXPECT_LE(bm.peak_bytes(), pool + bm.peak_pinned_bytes());
}

// ---------------------------------------------------------------------------
// Read-ahead: background prefetch through the pool
// ---------------------------------------------------------------------------

TEST(PrefetchTest, PrefetchInstallsUnpinnedAndDemandCountsHit) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(64 * 1024, 9));
  bm.Prefetch(a);
  bm.DrainPrefetches();
  EXPECT_EQ(bm.prefetch_issued(), 1);
  EXPECT_TRUE(bm.Contains(a));
  EXPECT_EQ(bm.pinned_bytes(), 0);  // installed unpinned
  EXPECT_EQ(bm.prefetch_inflight(), 1);  // resident but not yet demanded
  // A second Prefetch of a resident block is a no-op, not a new issue.
  bm.Prefetch(a);
  bm.DrainPrefetches();
  EXPECT_EQ(bm.prefetch_issued(), 1);
  // The demand read is a pool hit — no second device read.
  auto pin = bm.PinBlock(a);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->data()[0], 9);
  EXPECT_EQ(disk.blocks_read(), 1);
  EXPECT_EQ(bm.hits(), 1);
  EXPECT_EQ(bm.prefetch_hits(), 1);
  EXPECT_EQ(bm.prefetch_inflight(), 0);
}

TEST(PrefetchTest, ZeroBudgetDisablesPrefetch) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  bm.set_prefetch_budget_bytes(0);
  EXPECT_FALSE(bm.prefetch_enabled());
  BlockId a = *disk.WriteBlock({1});
  bm.Prefetch(a);
  bm.DrainPrefetches();
  EXPECT_EQ(bm.prefetch_issued(), 0);
  EXPECT_EQ(disk.blocks_read(), 0);
  EXPECT_FALSE(bm.Contains(a));
}

TEST(PrefetchTest, DemandDuringInflightPrefetchMakesOneRead) {
  // Slow device: the demand lands while the prefetch read is (at most)
  // in flight. Whether the demand adopts the running read, claims a
  // not-yet-started one, or finds the block already resident, exactly
  // one device read happens and the prefetch counts as a hit.
  SimulatedDisk disk(1 << 20);  // 1 MiB/s -> the 64 KiB read takes ~60 ms
  BufferManager bm(&disk, 1 << 20);
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(64 * 1024, 5));
  bm.Prefetch(a);
  auto pin = bm.PinBlock(a);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->data()[0], 5);
  bm.DrainPrefetches();
  EXPECT_EQ(disk.blocks_read(), 1);
  EXPECT_EQ(bm.prefetch_issued(), 1);
  EXPECT_EQ(bm.prefetch_hits(), 1);
  EXPECT_EQ(bm.prefetch_wasted(), 0);
  // The one PinBlock call was counted exactly once, whichever path it took.
  EXPECT_EQ(bm.hits() + bm.misses() + bm.single_flight_waits(), 1);
}

TEST(PrefetchTest, BudgetCapsUnreadSliceAndRefusesOverflow) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 2 * 64 * 1024);  // room for two 64 KiB blocks
  bm.set_prefetch_budget_bytes(kDiskBlockBytes);
  BlockId a = *disk.WriteBlock(std::vector<uint8_t>(64 * 1024, 1));
  BlockId b = *disk.WriteBlock(std::vector<uint8_t>(64 * 1024, 2));
  BlockId c = *disk.WriteBlock(std::vector<uint8_t>(64 * 1024, 3));
  bm.Prefetch(a);
  bm.DrainPrefetches();
  ASSERT_TRUE(bm.Contains(a));
  // With a's unread bytes charged, another block's worth does not fit:
  // the prefetch is refused, and refusals are not counted as issued.
  bm.Prefetch(b);
  bm.DrainPrefetches();
  EXPECT_EQ(bm.prefetch_issued(), 1);
  EXPECT_FALSE(bm.Contains(b));
  // Demand reads overflow the pool: capacity pressure victimizes the
  // used LRU (b), never the unread next block the prefetch just paid
  // for — a stays resident.
  ASSERT_TRUE(bm.GetBlock(b).ok());
  ASSERT_TRUE(bm.GetBlock(c).ok());
  EXPECT_TRUE(bm.Contains(a));
  EXPECT_FALSE(bm.Contains(b));
  EXPECT_TRUE(bm.Contains(c));
  EXPECT_EQ(bm.prefetch_wasted(), 0);
  // Shrinking the budget sheds the unread slice immediately; the evicted
  // unread block counts as wasted.
  bm.set_prefetch_budget_bytes(0);
  EXPECT_FALSE(bm.Contains(a));
  EXPECT_EQ(bm.prefetch_wasted(), 1);
  EXPECT_EQ(bm.prefetch_inflight(), 0);  // issued == hits + wasted
}

TEST(PrefetchTest, ExternalBudgetSharing) {
  SimulatedDisk disk;
  BufferManager bm(&disk, 1 << 20);
  bm.set_prefetch_budget_bytes(1 << 20);
  // An external prefetcher (the Grace pair streamer) charges the same
  // budget even though its bytes never enter the pool.
  EXPECT_TRUE(bm.TryChargePrefetchBytes(1 << 20));
  EXPECT_FALSE(bm.TryChargePrefetchBytes(1));
  BlockId a = *disk.WriteBlock({1});
  bm.Prefetch(a);  // refused: budget fully charged externally
  bm.DrainPrefetches();
  EXPECT_EQ(bm.prefetch_issued(), 0);
  bm.ReleasePrefetchBytes(1 << 20);
  bm.Prefetch(a);
  bm.DrainPrefetches();
  EXPECT_EQ(bm.prefetch_issued(), 1);
  EXPECT_TRUE(bm.Contains(a));
}

// ---------------------------------------------------------------------------
// FileBlockDevice: durable slots, recycling, fault injection
// ---------------------------------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/x100-storage-test-XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveTree(const std::string& dir) {
  (void)::unlink((dir + "/x100-data.blocks").c_str());
  (void)::unlink((dir + "/x100-catalog.bin").c_str());
  (void)::rmdir(dir.c_str());
}

TEST(FileBlockDeviceTest, RoundTripSurvivesReopen) {
  const std::string dir = MakeTempDir();
  std::vector<uint8_t> small = {9, 8, 7};
  std::vector<uint8_t> big(kDiskBlockBytes, 0x5A);
  BlockId a = 0, b = 0;
  {
    auto dev = FileBlockDevice::Open(dir);
    ASSERT_TRUE(dev.ok());
    a = *(*dev)->WriteBlock(small);
    b = *(*dev)->WriteBlock(big);
    ASSERT_TRUE((*dev)->Sync().ok());
  }  // fd closed, object gone — only the file remains
  {
    auto dev = FileBlockDevice::Open(dir);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE((*dev)->RestoreAllocated({a, b}).ok());
    auto ra = (*dev)->ReadBlock(a, nullptr);
    auto rb = (*dev)->ReadBlock(b, nullptr);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(**ra, small);  // length header restores the exact size
    EXPECT_EQ(**rb, big);
    EXPECT_EQ((*dev)->file_bytes() % (kDiskBlockBytes + 16), 0);
  }
  RemoveTree(dir);
}

TEST(FileBlockDeviceTest, FreedSlotsAreRecycledAndUnreadable) {
  const std::string dir = MakeTempDir();
  auto dev = FileBlockDevice::Open(dir);
  ASSERT_TRUE(dev.ok());
  BlockId a = *(*dev)->WriteBlock({1});
  BlockId b = *(*dev)->WriteBlock({2});
  (*dev)->FreeBlock(a);
  // Freed slot: magic is poisoned, reads fail loudly.
  EXPECT_EQ((*dev)->ReadBlock(a, nullptr).status().code(),
            StatusCode::kIoError);
  // The next write recycles the slot instead of growing the file.
  BlockId c = *(*dev)->WriteBlock({3});
  EXPECT_EQ(c, a);
  EXPECT_EQ((*dev)->slots_recycled(), 1);
  EXPECT_EQ((*(*dev)->ReadBlock(c, nullptr))->front(), 3);
  EXPECT_EQ((*(*dev)->ReadBlock(b, nullptr))->front(), 2);
  RemoveTree(dir);
}

TEST(FileBlockDeviceTest, RestoreAllocatedRecyclesDeadSlots) {
  const std::string dir = MakeTempDir();
  BlockId a = 0, b = 0, c = 0;
  {
    auto dev = FileBlockDevice::Open(dir);
    ASSERT_TRUE(dev.ok());
    a = *(*dev)->WriteBlock({1});
    b = *(*dev)->WriteBlock({2});
    c = *(*dev)->WriteBlock({3});
  }
  auto dev = FileBlockDevice::Open(dir);
  ASSERT_TRUE(dev.ok());
  // Only b survived in the catalog: a and c are recyclable.
  ASSERT_TRUE((*dev)->RestoreAllocated({b}).ok());
  BlockId x = *(*dev)->WriteBlock({4});
  BlockId y = *(*dev)->WriteBlock({5});
  EXPECT_EQ(x, a);  // low slots first
  EXPECT_EQ(y, c);
  EXPECT_EQ((*(*dev)->ReadBlock(b, nullptr))->front(), 2);
  RemoveTree(dir);
}

TEST(FileBlockDeviceTest, TornAndCorruptReadsSurfaceIoError) {
  const std::string dir = MakeTempDir();
  auto dev = FileBlockDevice::Open(dir);
  ASSERT_TRUE(dev.ok());
  BlockId a = *(*dev)->WriteBlock(std::vector<uint8_t>(1000, 0xAB));
  // Torn read: the slot comes back short.
  (*dev)->set_fault_hook([](FileBlockDevice::Op op, BlockId,
                            std::vector<uint8_t>* data) {
    if (op == FileBlockDevice::Op::kRead) data->resize(10);
    return Status::OK();
  });
  EXPECT_EQ((*dev)->ReadBlock(a, nullptr).status().code(),
            StatusCode::kIoError);
  // Bit rot in the payload: checksum verification must catch it.
  (*dev)->set_fault_hook([](FileBlockDevice::Op op, BlockId,
                            std::vector<uint8_t>* data) {
    if (op == FileBlockDevice::Op::kRead) (*data)[16 + 500] ^= 0x01;
    return Status::OK();
  });
  EXPECT_EQ((*dev)->ReadBlock(a, nullptr).status().code(),
            StatusCode::kIoError);
  // Injected device failure on write propagates as-is.
  (*dev)->set_fault_hook([](FileBlockDevice::Op op, BlockId,
                            std::vector<uint8_t>*) {
    return op == FileBlockDevice::Op::kWrite
               ? Status::IoError("injected write failure")
               : Status::OK();
  });
  EXPECT_EQ((*dev)->WriteBlock({1}).status().code(), StatusCode::kIoError);
  // Clearing the hook restores healthy reads: the file itself was never
  // damaged (faults were injected into the read-back copy).
  (*dev)->set_fault_hook(nullptr);
  auto r = (*dev)->ReadBlock(a, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 1000u);
  RemoveTree(dir);
}

TEST(FileBlockDeviceTest, RejectsTornFile) {
  const std::string dir = MakeTempDir();
  {
    auto dev = FileBlockDevice::Open(dir);
    ASSERT_TRUE(dev.ok());
    (void)*(*dev)->WriteBlock({1});
  }
  // Truncate mid-slot: the file is no longer a whole number of slots.
  ASSERT_EQ(::truncate((dir + "/x100-data.blocks").c_str(), 100), 0);
  EXPECT_EQ(FileBlockDevice::Open(dir).status().code(),
            StatusCode::kIoError);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Device conformance: every BlockDevice honours one contract — the RAM
// medium, and the slot file in both its durable and temp lifetimes.
// ---------------------------------------------------------------------------

enum class DeviceKind { kRam, kDurable, kTemp };

std::string DeviceKindName(const ::testing::TestParamInfo<DeviceKind>& info) {
  static const char* const kNames[] = {"Ram", "Durable", "Temp"};
  return kNames[static_cast<int>(info.param)];
}

class DeviceConformanceTest : public ::testing::TestWithParam<DeviceKind> {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    device_.reset();  // a temp file goes with its device
    RemoveTree(dir_);
  }

  /// Creates the parameter's device; `bandwidth` throttles the two kinds
  /// that take one. nullptr (with a recorded failure) if it cannot.
  BlockDevice* Make(int64_t bandwidth = 0) {
    if (GetParam() == DeviceKind::kRam) {
      device_ = std::make_unique<SimulatedDisk>(bandwidth);
      return device_.get();
    }
    auto file = GetParam() == DeviceKind::kDurable
                    ? FileBlockDevice::Open(dir_, bandwidth)
                    : FileBlockDevice::CreateTemp(dir_);
    if (!file.ok()) {
      ADD_FAILURE() << file.status().ToString();
      return nullptr;
    }
    device_ = std::move(file).value();
    return device_.get();
  }

  std::string dir_;
  std::unique_ptr<BlockDevice> device_;
};

TEST_P(DeviceConformanceTest, PayloadsReadBackExactly) {
  BlockDevice* dev = Make();
  ASSERT_NE(dev, nullptr);
  for (const size_t n : {size_t{0}, size_t{3}, size_t{4096},
                         static_cast<size_t>(kDiskBlockBytes)}) {
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; i++) data[i] = static_cast<uint8_t>(i * 13 + n);
    auto id = dev->WriteBlock(data);
    ASSERT_TRUE(id.ok()) << n << ": " << id.status().ToString();
    auto back = dev->ReadBlock(*id, nullptr);
    ASSERT_TRUE(back.ok()) << n << ": " << back.status().ToString();
    EXPECT_EQ(**back, data) << n;
  }
  // A caller that forgets to split fails on every medium, RAM included.
  EXPECT_EQ(dev->WriteBlock(std::vector<uint8_t>(kDiskBlockBytes + 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_P(DeviceConformanceTest, UnwrittenIdIsIoError) {
  BlockDevice* dev = Make();
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(dev->ReadBlock(99, nullptr).status().code(),
            StatusCode::kIoError);
}

TEST_P(DeviceConformanceTest, FreedIdNeverReadsItsOldBytes) {
  BlockDevice* dev = Make();
  ASSERT_NE(dev, nullptr);
  const BlockId id = *dev->WriteBlock(std::vector<uint8_t>(1000, 0xAB));
  dev->FreeBlock(id);
  auto r = dev->ReadBlock(id, nullptr);
  if (GetParam() == DeviceKind::kRam) {
    // Empty bytes, which table reads reject as a short chunk
    // (ShortChunkIsIoError) and SpillFile as truncation.
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE((*r)->empty());
  } else {
    // The live flag fails the read; the temp lifetime does not even
    // poison the slot's magic, so the flag alone must do it.
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
}

TEST_P(DeviceConformanceTest, DoubleFreeHandsTheIdOutOnce) {
  BlockDevice* dev = Make();
  ASSERT_NE(dev, nullptr);
  const BlockId a = *dev->WriteBlock({1});
  dev->FreeBlock(a);
  dev->FreeBlock(a);
  const BlockId x = *dev->WriteBlock({2});
  const BlockId y = *dev->WriteBlock({3});
  EXPECT_NE(x, y);
  EXPECT_EQ((**dev->ReadBlock(x, nullptr))[0], 2);
  EXPECT_EQ((**dev->ReadBlock(y, nullptr))[0], 3);
}

TEST_P(DeviceConformanceTest, CountersCountPayloadBytes) {
  BlockDevice* dev = Make();
  ASSERT_NE(dev, nullptr);
  const BlockId a = *dev->WriteBlock(std::vector<uint8_t>(5, 1));
  const BlockId b = *dev->WriteBlock(std::vector<uint8_t>(70000, 2));
  EXPECT_EQ(dev->bytes_written(), 70005);
  ASSERT_TRUE(dev->ReadBlock(a, nullptr).ok());
  ASSERT_TRUE(dev->ReadBlock(b, nullptr).ok());
  ASSERT_TRUE(dev->ReadBlock(b, nullptr).ok());
  EXPECT_EQ(dev->blocks_read(), 3);
  EXPECT_EQ(dev->bytes_read(), 140005);
}

INSTANTIATE_TEST_SUITE_P(Devices, DeviceConformanceTest,
                         ::testing::Values(DeviceKind::kRam,
                                           DeviceKind::kDurable,
                                           DeviceKind::kTemp),
                         DeviceKindName);

/// The devices that take a bandwidth: the RAM medium and the durable file.
class ThrottledDeviceTest : public DeviceConformanceTest {};

TEST_P(ThrottledDeviceTest, BandwidthThrottles) {
  BlockDevice* dev = Make(1 << 20);  // 1 MiB/s
  ASSERT_NE(dev, nullptr);
  const BlockId id = *dev->WriteBlock(std::vector<uint8_t>(64 * 1024));
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(dev->ReadBlock(id, nullptr).ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // 64 KiB at 1 MiB/s = 62.5 ms.
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.05);
}

TEST_P(ThrottledDeviceTest, CancellationInterruptsIoWait) {
  BlockDevice* dev = Make(1 << 16);  // 64 KiB/s: the read takes ~1 s
  ASSERT_NE(dev, nullptr);
  const BlockId id = *dev->WriteBlock(std::vector<uint8_t>(64 * 1024));
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto r = dev->ReadBlock(id, &token);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  canceller.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, 0.5);  // far less than the 1 s IO cost
}

INSTANTIATE_TEST_SUITE_P(Devices, ThrottledDeviceTest,
                         ::testing::Values(DeviceKind::kRam,
                                           DeviceKind::kDurable),
                         DeviceKindName);

/// The slot file in both lifetimes.
class SlotFileTest : public DeviceConformanceTest {};

TEST_P(SlotFileTest, HeaderDamagedInTheFileIsIoError) {
  ASSERT_NE(Make(), nullptr);
  auto* dev = static_cast<FileBlockDevice*>(device_.get());
  const BlockId magic = *dev->WriteBlock(std::vector<uint8_t>(1000, 0xA1));
  const BlockId too_long = *dev->WriteBlock(std::vector<uint8_t>(1000, 0xB2));
  const BlockId wrong_length =
      *dev->WriteBlock(std::vector<uint8_t>(1000, 0xC3));
  const BlockId intact = *dev->WriteBlock(std::vector<uint8_t>(1000, 0xD4));
  // Overwrite header fields in the file itself, behind the device's back
  // (no hook): the magic, then the length field (offset 4) with a value
  // past the slot bound and with a wrong one inside it.
  const int fd = ::open(dev->path().c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const off_t stride = kDiskBlockBytes + FileBlockDevice::kSlotHeaderBytes;
  auto scribble = [&](BlockId id, off_t field, uint32_t value) {
    return ::pwrite(fd, &value, sizeof(value),
                    static_cast<off_t>(id) * stride + field) ==
           static_cast<ssize_t>(sizeof(value));
  };
  ASSERT_TRUE(scribble(magic, 0, 0xDEADBEEF));
  ASSERT_TRUE(scribble(too_long, 4, kDiskBlockBytes + 1));
  ASSERT_TRUE(scribble(wrong_length, 4, 999));
  ::close(fd);
  for (const BlockId id : {magic, too_long, wrong_length}) {
    EXPECT_EQ(dev->ReadBlock(id, nullptr).status().code(),
              StatusCode::kIoError)
        << "block " << id;
  }
  auto r = dev->ReadBlock(intact, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(**r, std::vector<uint8_t>(1000, 0xD4));
}

INSTANTIATE_TEST_SUITE_P(Lifetimes, SlotFileTest,
                         ::testing::Values(DeviceKind::kDurable,
                                           DeviceKind::kTemp),
                         DeviceKindName);

// ---------------------------------------------------------------------------
// Read-ahead under injected IO faults: a failed background read must
// never abort the process or fail queries that don't demand the block.
// ---------------------------------------------------------------------------

TEST(PrefetchFaultTest, BackgroundFailureIsParkedAndRetryHeals) {
  const std::string dir = MakeTempDir();
  auto dev = FileBlockDevice::Open(dir);
  ASSERT_TRUE(dev.ok());
  BlockId good = *(*dev)->WriteBlock(std::vector<uint8_t>(100, 1));
  BlockId bad = *(*dev)->WriteBlock(std::vector<uint8_t>(1000, 2));
  const int64_t pool = 1 << 20;
  BufferManager bm(dev->get(), pool);

  struct FaultCase {
    const char* name;
    FileBlockDevice::FaultHook hook;
  };
  const FaultCase faults[] = {
      {"eio",
       [bad](FileBlockDevice::Op op, BlockId id, std::vector<uint8_t>*) {
         return op == FileBlockDevice::Op::kRead && id == bad
                    ? Status::IoError("injected EIO")
                    : Status::OK();
       }},
      {"short-read",
       [bad](FileBlockDevice::Op op, BlockId id, std::vector<uint8_t>* d) {
         if (op == FileBlockDevice::Op::kRead && id == bad) d->resize(4);
         return Status::OK();
       }},
      {"corrupt-checksum",
       [bad](FileBlockDevice::Op op, BlockId id, std::vector<uint8_t>* d) {
         if (op == FileBlockDevice::Op::kRead && id == bad)
           (*d)[FileBlockDevice::kSlotHeaderBytes] ^= 0x01;
         return Status::OK();
       }},
  };
  int64_t expect_issued = 0;
  int64_t expect_wasted = 0;
  for (const FaultCase& fc : faults) {
    SCOPED_TRACE(fc.name);
    (*dev)->set_fault_hook(fc.hook);
    bm.Prefetch(bad);
    bm.DrainPrefetches();
    // The background failure was parked, not raised: nothing resident,
    // no crash, and the failure counts as a wasted prefetch.
    expect_issued++;
    expect_wasted++;
    EXPECT_FALSE(bm.Contains(bad));
    EXPECT_EQ(bm.prefetch_issued(), expect_issued);
    EXPECT_EQ(bm.prefetch_wasted(), expect_wasted);
    EXPECT_EQ(bm.prefetch_inflight(), 0);
    // Unrelated demand reads are unaffected.
    auto g = bm.PinBlock(good);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 1);
    g->Release();
    // Demanding the failed block surfaces the parked error exactly once.
    auto p = bm.PinBlock(bad);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kIoError);
    // A retry issues a fresh device read; with the fault cleared it heals.
    (*dev)->set_fault_hook(nullptr);
    auto healed = bm.PinBlock(bad);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(healed->data().size(), 1000u);
    EXPECT_EQ(healed->data()[0], 2);
    healed->Release();
    // Pool drains back to its invariant between rounds.
    EXPECT_EQ(bm.pinned_bytes(), 0);
    EXPECT_LE(bm.bytes_cached(), pool);
    bm.Invalidate(bad);
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Restart round-trip: build -> mutate -> checkpoint -> reopen -> identical
// ---------------------------------------------------------------------------

std::vector<std::string> SnapshotTable(Database* db, const std::string& name) {
  UpdatableTable* ut = *db->GetTable(name);
  const Table* base = ut->base();
  TableReader reader(base, db->buffers());
  std::vector<std::string> rows;
  for (int64_t sid = 0; sid < base->num_rows(); sid++) {
    auto row = ReadStableRow(base, &reader, sid, {});
    EXPECT_TRUE(row.ok()) << "sid " << sid << ": "
                          << row.status().ToString();
    if (!row.ok()) return rows;
    std::string repr;
    for (const Value& v : *row) {
      repr += v.is_null() ? "<null>" : v.ToString();
      repr += "|";
    }
    rows.push_back(std::move(repr));
  }
  return rows;
}

TEST(RestartTest, CheckpointedTableReopensBitIdentical) {
  const std::string dir = MakeTempDir();
  EngineConfig cfg;
  cfg.data_path = dir;
  cfg.buffer_pool_bytes = 4 << 20;
  std::vector<std::string> before;
  std::vector<bool> minmax_before;
  {
    Database db(cfg);
    ASSERT_TRUE(db.open_status().ok()) << db.open_status().ToString();
    // Small groups so the table spans several block groups and the
    // checkpoint exercises both clean-group adoption and dirty rewrite.
    auto b = db.CreateTable("t", MixedSchema(), Layout::kPax, 512);
    Rng rng(5);
    for (int i = 0; i < 2000; i++) {
      std::vector<Value> row;
      row.push_back(Value::I64(i));
      row.push_back(Value::I32(static_cast<int32_t>(rng.Uniform(1, 50))));
      row.push_back(Value::F64(i / 7.0));
      row.push_back(Value::Str(i % 2 == 0 ? "A" : "B"));
      row.push_back(Value::Date(MakeDate(1995, 1, 1) + i % 300));
      row.push_back(i % 4 == 0 ? Value::Null(TypeId::kStr)
                               : Value::Str("n" + std::to_string(i)));
      ASSERT_TRUE(b->AppendRow(row).ok());
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.RegisterTable(std::move(t).value()).ok());
    UpdatableTable* ut = *db.GetTable("t");
    // Mutate through a transaction: update in group 0, delete in group 1,
    // tail insert — then checkpoint the deltas into the stored image.
    auto txn = db.txn_manager()->Begin(ut);
    ASSERT_TRUE(txn->Update(3, 3, Value::Str("UPDATED")).ok());
    ASSERT_TRUE(txn->Delete(700).ok());
    std::vector<Value> fresh = {Value::I64(999999),
                                Value::I32(42),
                                Value::F64(3.5),
                                Value::Str("Z"),
                                Value::Date(MakeDate(2000, 1, 1)),
                                Value::Null(TypeId::kStr)};
    ASSERT_TRUE(txn->Append(fresh).ok());
    ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
    ASSERT_TRUE(db.Checkpoint("t").ok());
    before = SnapshotTable(&db, "t");
    const Table* base = (*db.GetTable("t"))->base();
    for (int g = 0; g < base->num_groups(); g++) {
      minmax_before.push_back(
          base->GroupMayMatch(g, 0, RangeOp::kGt, Value::I64(1500)));
    }
  }  // Database destroyed: nothing survives but the two files

  {
    Database db(cfg);
    ASSERT_TRUE(db.open_status().ok()) << db.open_status().ToString();
    std::vector<std::string> after = SnapshotTable(&db, "t");
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(after.size(), 2000u);  // 2000 - 1 delete + 1 insert
    for (size_t i = 0; i < before.size(); i++) {
      ASSERT_EQ(after[i], before[i]) << "row " << i << " diverged";
    }
    // The mutations themselves came back.
    EXPECT_NE(before[3].find("UPDATED"), std::string::npos);
    EXPECT_NE(after.back().find("999999"), std::string::npos);
    // MinMax metadata survived the catalog round-trip: pushdown decisions
    // are identical on the reopened image.
    const Table* base = (*db.GetTable("t"))->base();
    ASSERT_EQ(static_cast<size_t>(base->num_groups()),
              minmax_before.size());
    for (int g = 0; g < base->num_groups(); g++) {
      EXPECT_EQ(base->GroupMayMatch(g, 0, RangeOp::kGt, Value::I64(1500)),
                minmax_before[g]);
    }
    // This was a COLD read: every byte came from the file, not a cache.
    EXPECT_GT(db.buffers()->misses(), 0);
    EXPECT_GT(db.data_device()->blocks_read(), 0);
  }
  RemoveTree(dir);
}

TEST(RestartTest, SecondCheckpointRecyclesRetiredSlots) {
  const std::string dir = MakeTempDir();
  EngineConfig cfg;
  cfg.data_path = dir;
  Database db(cfg);
  ASSERT_TRUE(db.open_status().ok());
  auto b = db.CreateTable("t", Schema({Field("x", TypeId::kI64)}),
                          Layout::kDsm, 1024);
  for (int i = 0; i < 1024; i++) {
    ASSERT_TRUE(b->AppendRow({Value::I64(i)}).ok());
  }
  {
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.RegisterTable(std::move(t).value()).ok());
  }
  const int64_t size_after_build = db.data_device()->file_bytes();
  // Repeated update+checkpoint cycles rewrite the single group each time.
  // Retired slots are freed and recycled, so the file must not grow.
  for (int round = 0; round < 4; round++) {
    UpdatableTable* ut = *db.GetTable("t");
    auto txn = db.txn_manager()->Begin(ut);
    ASSERT_TRUE(txn->Update(round, 0, Value::I64(-round)).ok());
    ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
    ASSERT_TRUE(db.Checkpoint("t").ok());
  }
  EXPECT_GT(db.data_device()->slots_recycled(), 0);
  EXPECT_LE(db.data_device()->file_bytes(), size_after_build * 2);
  RemoveTree(dir);
}

TEST(RestartTest, CatalogSaveFailureRollsBackDdlAndKeepsRetiredSlots) {
  const std::string dir = MakeTempDir();
  EngineConfig cfg;
  cfg.data_path = dir;
  Database db(cfg);
  ASSERT_TRUE(db.open_status().ok());
  auto build = [&](const std::string& name) {
    auto b = db.CreateTable(name, Schema({Field("x", TypeId::kI64)}),
                            Layout::kDsm, 64);
    for (int i = 0; i < 64; i++) {
      EXPECT_TRUE(b->AppendRow({Value::I64(i)}).ok());
    }
    auto t = b->Finish();
    EXPECT_TRUE(t.ok());
    return std::move(t).value();
  };
  ASSERT_TRUE(db.RegisterTable(build("t1")).ok());

  // Yank the directory out from under the catalog: the data-file fd stays
  // valid (writes and syncs still work), but SaveCatalog's temp-file
  // creation now fails — every durable DDL/checkpoint must report the
  // failure AND leave memory consistent with the surviving (old) catalog.
  RemoveTree(dir);

  // RegisterTable: failure rolls the registration back.
  EXPECT_FALSE(db.RegisterTable(build("t2")).ok());
  EXPECT_EQ(db.GetTable("t2").status().code(), StatusCode::kNotFound);

  // DropTable: failure resurrects the table.
  EXPECT_FALSE(db.DropTable("t1").ok());
  EXPECT_TRUE(db.GetTable("t1").ok());

  // Checkpoint: failure must NOT free the retired slots — the durable
  // catalog still references them, so a recycled slot could serve the
  // wrong block to a reopened database. With the slots kept allocated, a
  // fresh write cannot recycle anything.
  {
    UpdatableTable* ut = *db.GetTable("t1");
    auto txn = db.txn_manager()->Begin(ut);
    ASSERT_TRUE(txn->Update(0, 0, Value::I64(-1)).ok());
    ASSERT_TRUE(db.txn_manager()->Commit(txn.get()).ok());
  }
  EXPECT_FALSE(db.Checkpoint("t1").ok());
  ASSERT_TRUE(db.data_device()->WriteBlock({1, 2, 3}).ok());
  EXPECT_EQ(db.data_device()->slots_recycled(), 0);
  // The in-memory image stays queryable and carries the checkpointed
  // update (durability failed, consistency did not).
  std::vector<std::string> rows = SnapshotTable(&db, "t1");
  ASSERT_EQ(rows.size(), 64u);
  EXPECT_EQ(rows[0], "-1|");
  RemoveTree(dir);
}

TEST(RestartTest, CorruptCatalogFailsOpenLoudly) {
  const std::string dir = MakeTempDir();
  EngineConfig cfg;
  cfg.data_path = dir;
  {
    Database db(cfg);
    ASSERT_TRUE(db.open_status().ok());
    auto b = db.CreateTable("t", Schema({Field("x", TypeId::kI64)}),
                            Layout::kDsm, 64);
    ASSERT_TRUE(b->AppendRow({Value::I64(1)}).ok());
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.RegisterTable(std::move(t).value()).ok());
  }
  // Flip one byte in the catalog body: the trailing checksum must reject.
  const std::string path = CatalogPath(dir);
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, 10, SEEK_SET), 0);
  int ch = fgetc(f);
  ASSERT_EQ(fseek(f, 10, SEEK_SET), 0);
  fputc(ch ^ 0x01, f);
  fclose(f);
  {
    Database db(cfg);
    EXPECT_EQ(db.open_status().code(), StatusCode::kIoError);
  }
  RemoveTree(dir);
}

TEST(RestartTest, CatalogPastTheDataFileFailsOpenLoudly) {
  const std::string dir = MakeTempDir();
  EngineConfig cfg;
  cfg.data_path = dir;
  {
    Database db(cfg);
    ASSERT_TRUE(db.open_status().ok());
    // Four groups of one column: four slots.
    auto b = db.CreateTable("t", Schema({Field("x", TypeId::kI64)}),
                            Layout::kDsm, 64);
    for (int i = 0; i < 256; i++) {
      ASSERT_TRUE(b->AppendRow({Value::I64(i)}).ok());
    }
    auto t = b->Finish();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.RegisterTable(std::move(t).value()).ok());
  }
  // Cut the data file by two whole slots: it still opens as a whole
  // number of slots, but the catalog names blocks it no longer holds.
  const std::string data = dir + "/x100-data.blocks";
  const off_t stride = kDiskBlockBytes + FileBlockDevice::kSlotHeaderBytes;
  struct stat st;
  ASSERT_EQ(::stat(data.c_str(), &st), 0);
  ASSERT_EQ(st.st_size, 4 * stride);
  ASSERT_EQ(::truncate(data.c_str(), 2 * stride), 0);
  {
    Database db(cfg);
    const Status open = db.open_status();
    EXPECT_EQ(open.code(), StatusCode::kIoError);
    EXPECT_NE(open.message().find("data block 2 "), std::string::npos)
        << open.ToString();
    EXPECT_EQ(db.GetTable("t").status().code(), StatusCode::kNotFound);
    // The write entry points refuse with the open failure. The new table
    // lives in RAM, so the refused registration leaves the file alone.
    SimulatedDisk ram;
    TableBuilder b("u", Schema({Field("x", TypeId::kI64)}), Layout::kDsm,
                   &ram, 64);
    ASSERT_TRUE(b.AppendRow({Value::I64(1)}).ok());
    auto t = b.Finish();
    ASSERT_TRUE(t.ok());
    for (const Status& refused :
         {db.RegisterTable(std::move(t).value()).status(), db.DropTable("t"),
          db.Checkpoint("t")}) {
      EXPECT_EQ(refused.code(), open.code());
      EXPECT_EQ(refused.message(), open.message());
    }
  }
  RemoveTree(dir);
}

TEST(RestartTest, MissingDataPathFailsOpenLoudly) {
  EngineConfig cfg;
  cfg.data_path = "/nonexistent/x100/dir";
  Database db(cfg);
  EXPECT_FALSE(db.open_status().ok());
  // Write entry points refuse with the open failure instead of silently
  // running a volatile database the caller believes is durable.
  auto b = db.CreateTable("t", Schema({Field("x", TypeId::kI64)}),
                          Layout::kDsm, 64);
  ASSERT_TRUE(b->AppendRow({Value::I64(1)}).ok());
  auto t = b->Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(db.RegisterTable(std::move(t).value()).status().code(),
            db.open_status().code());
  EXPECT_EQ(db.DropTable("t").code(), db.open_status().code());
  EXPECT_EQ(db.Checkpoint("t").code(), db.open_status().code());
}

// ---------------------------------------------------------------------------
// Loading: the stored image does not depend on how rows arrive
// ---------------------------------------------------------------------------

// FNV-1a over everything a stored table image consists of: per group the
// SID range, block ids, chunk locations, MinMax and null metadata, and the
// chunk bytes read back from the device.
class ImageHasher {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; i++) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Blocks(BlockDevice* device, const std::vector<BlockId>& ids) {
    Pod(ids.size());
    for (BlockId id : ids) {
      Pod(id);
      auto data = device->ReadBlock(id);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      Pod((*data)->size());
      Bytes((*data)->data(), (*data)->size());
    }
  }
  void Loc(BlockDevice* device, const ChunkLoc& loc) {
    Blocks(device, loc.blocks);
    Pod(loc.offset);
    Pod(loc.length);
  }
  void Add(const Table& t) {
    Bytes(t.name().data(), t.name().size());
    Pod(t.num_rows());
    Pod(t.num_groups());
    for (int g = 0; g < t.num_groups(); g++) {
      const GroupMeta& gm = t.group(g);
      Pod(gm.first_sid);
      Pod(gm.rows);
      Blocks(t.device(), gm.pax_blocks);
      for (const ColumnChunkMeta& c : gm.cols) {
        Loc(t.device(), c.loc);
        Pod(c.has_min_max);
        Pod(c.imin);
        Pod(c.imax);
        Pod(c.dmin);
        Pod(c.dmax);
        Pod(c.has_nulls);
        Loc(t.device(), c.null_loc);
      }
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t ImageHash(const Table& t) {
  ImageHasher hasher;
  hasher.Add(t);
  return hasher.value();
}

uint64_t TpchImageHash(Layout layout) {
  Database db;
  EXPECT_TRUE(tpch::Generate(&db, 0.01, layout).ok());
  ImageHasher hasher;
  for (const char* name : {"region", "nation", "customer", "supplier", "part",
                           "orders", "lineitem"}) {
    auto t = db.GetTable(name);
    EXPECT_TRUE(t.ok()) << name;
    if (t.ok()) hasher.Add(*(*t)->base());
  }
  return hasher.value();
}

// The constants were recorded by running this hash over the image the
// row-at-a-time serial builder produced (tpch::Generate feeding AppendRow,
// every chunk compressed on the loading thread). At SF 0.01 every table is
// one group, so even the block ids must come out the same.
TEST(LoadImageTest, TpchImageMatchesRecordedHash) {
  EXPECT_EQ(TpchImageHash(Layout::kDsm), 0xca19a5f5aee94e47ull);
  EXPECT_EQ(TpchImageHash(Layout::kPax), 0x160fb658a9b96755ull);
}

Schema LoadSchema() {
  return Schema({Field("b", TypeId::kBool, /*nullable=*/true),
                 Field("i8", TypeId::kI8, true),
                 Field("i16", TypeId::kI16, true),
                 Field("i32", TypeId::kI32),
                 Field("d", TypeId::kDate, true),
                 Field("i64", TypeId::kI64, true),
                 Field("f", TypeId::kF64, true),
                 Field("s", TypeId::kStr, true),
                 Field("t", TypeId::kStr)});
}

// Row `i` of the load tests: NULLs at a different stride per column, and
// i64 NULL only in rows 150-159, so only one group carries its null chunk.
std::vector<Value> LoadRow(int i) {
  auto maybe_null = [i](int k, Value v) {
    return (i + k) % (3 + k) == 0 ? Value::Null(v.type()) : v;
  };
  return {maybe_null(0, Value::Bool(i % 2 == 1)),
          maybe_null(1, Value::I8(static_cast<int8_t>(i % 100 - 50))),
          maybe_null(2, Value::I16(static_cast<int16_t>(i * 7 % 3000))),
          Value::I32(i),
          maybe_null(3, Value::Date(9000 + i % 400)),
          i >= 150 && i < 160 && i % 2 == 0 ? Value::Null(TypeId::kI64)
                                           : Value::I64(int64_t{i} * 1000003),
          maybe_null(4, Value::F64(i / 8.0)),
          maybe_null(5, Value::Str(std::string(i % 23, 'a' + i % 26))),
          Value::Str("row-" + std::to_string(i))};
}

// Writes `v` at position `i` of `out`. A NULL slot gets garbage bytes and
// an unselected slot a random NULL flag, which the builder must ignore.
void PutCell(Vector* out, int i, const Value& v) {
  static const char kGarbage[] = "garbage";
  if (v.is_null()) {
    out->MutableNulls()[i] = 1;
    if (out->type() == TypeId::kStr) {
      out->Data<StrRef>()[i] = StrRef(kGarbage, sizeof(kGarbage) - 1);
    } else {
      std::memset(static_cast<uint8_t*>(out->RawData()) +
                      static_cast<size_t>(i) * TypeWidth(out->type()),
                  0x5a, TypeWidth(out->type()));
    }
    return;
  }
  switch (out->type()) {
    case TypeId::kBool:
      out->Data<uint8_t>()[i] = v.AsBool();
      break;
    case TypeId::kI8:
      out->Data<int8_t>()[i] = static_cast<int8_t>(v.AsI64());
      break;
    case TypeId::kI16:
      out->Data<int16_t>()[i] = static_cast<int16_t>(v.AsI64());
      break;
    case TypeId::kI32:
    case TypeId::kDate:
      out->Data<int32_t>()[i] = static_cast<int32_t>(v.AsI64());
      break;
    case TypeId::kI64:
      out->Data<int64_t>()[i] = v.AsI64();
      break;
    case TypeId::kF64:
      out->Data<double>()[i] = v.AsF64();
      break;
    case TypeId::kStr:
      out->Data<StrRef>()[i] = out->heap()->Add(v.AsStr());
      break;
  }
}

TEST_P(TableLayoutTest, AppendRowAndAppendBatchStoreIdenticalChunks) {
  constexpr int kRows = 450;
  constexpr int kGroupRows = 100;
  const Schema schema = LoadSchema();

  SimulatedDisk row_disk;
  TableBuilder by_row("t", schema, GetParam(), &row_disk, kGroupRows);
  for (int i = 0; i < kRows; i++) {
    ASSERT_TRUE(by_row.AppendRow(LoadRow(i)).ok());
  }
  auto row_table = by_row.Finish();
  ASSERT_TRUE(row_table.ok());

  // Batches of 48 live rows cross the 100-row group boundaries. Odd
  // batches are dense; even ones hold their rows at odd positions behind
  // a selection vector, with junk rows in between.
  SimulatedDisk batch_disk;
  TaskScheduler sched(2);
  TableBuilder by_batch("t", schema, GetParam(), &batch_disk, kGroupRows,
                        &sched);
  Batch batch(schema, 96);
  Rng rng(7);
  for (int next = 0, k = 0; next < kRows; k++) {
    batch.Reset();
    const bool selective = k % 2 == 0;
    const int live = std::min(48, kRows - next);
    const int physical = selective ? 2 * live : live;
    int sel_count = 0;
    for (int p = 0; p < physical; p++) {
      const bool junk = selective && p % 2 == 0;
      const std::vector<Value> row = LoadRow(junk ? 7777 : next);
      for (int c = 0; c < schema.num_fields(); c++) {
        Vector* v = batch.column(c);
        PutCell(v, p, row[c]);
        if (junk && schema.field(c).nullable) {
          v->MutableNulls()[p] = rng.Bernoulli(0.5);
        }
      }
      if (selective && !junk) batch.MutableSel()[sel_count++] = p;
      if (!junk) next++;
    }
    batch.set_rows(physical);
    if (selective) batch.SetSelCount(sel_count);
    ASSERT_TRUE(by_batch.AppendBatch(batch).ok());
  }
  auto batch_table = by_batch.Finish();
  ASSERT_TRUE(batch_table.ok());

  const Table& a = **row_table;
  const Table& b = **batch_table;
  ASSERT_EQ(a.num_groups(), 5);
  ASSERT_EQ(b.num_groups(), 5);
  // NULL flags are stored per group, only where a NULL occurs.
  EXPECT_FALSE(a.group(0).cols[5].has_nulls);
  EXPECT_TRUE(a.group(1).cols[5].has_nulls);
  EXPECT_EQ(ImageHash(a), ImageHash(b));
}

TEST(TableBuilderTest, AppendBatchRejectsNullInNonNullableBeforeStaging) {
  SimulatedDisk disk;
  const Schema schema({Field("a", TypeId::kI32)});
  TableBuilder b("t", schema, Layout::kDsm, &disk);
  Batch batch(schema, 4);
  for (int i = 0; i < 4; i++) batch.column(0)->Data<int32_t>()[i] = i;
  batch.column(0)->SetNull(3);
  batch.set_rows(4);
  EXPECT_EQ(b.AppendBatch(batch).code(), StatusCode::kInvalidArgument);
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 0);
}

Schema FourInts() {
  return Schema({Field("a", TypeId::kI64), Field("b", TypeId::kI64),
                 Field("c", TypeId::kI32), Field("d", TypeId::kI32)});
}

// Appends `batches` batches of 500 rows (every 1000-row group is two).
Status LoadFourInts(TableBuilder* b, int batches) {
  Batch batch(FourInts(), 500);
  for (int k = 0; k < batches; k++) {
    for (int i = 0; i < 500; i++) {
      const int r = k * 500 + i;
      batch.column(0)->Data<int64_t>()[i] = r;
      batch.column(1)->Data<int64_t>()[i] = int64_t{r} * r;
      batch.column(2)->Data<int32_t>()[i] = r % 7;
      batch.column(3)->Data<int32_t>()[i] = -r;
    }
    batch.set_rows(500);
    X100_RETURN_IF_ERROR(b->AppendBatch(batch));
  }
  return b->Finish().status();
}

TEST(TableBuilderTest, FailedWriteWhileAGroupCompressesUnwinds) {
  const std::string dir = MakeTempDir();
  auto dev = FileBlockDevice::Open(dir);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  FileBlockDevice* device = dev->get();
  // An earlier table's blocks stay live throughout.
  TableBuilder earlier("earlier", FourInts(), Layout::kDsm, device, 1000);
  ASSERT_TRUE(LoadFourInts(&earlier, 1).ok());
  const int64_t live_before = device->live_slots();
  ASSERT_GT(live_before, 0);

  // Each group writes one block per column; write 7 falls in group 1's
  // placement, which starts after group 2's chunks were handed over.
  int writes = 0;
  int fail_at = 7;
  int64_t queued_at_fault = -1;
  TaskScheduler* current = nullptr;
  device->set_fault_hook(
      [&](FileBlockDevice::Op op, BlockId, std::vector<uint8_t>*) {
        if (op != FileBlockDevice::Op::kWrite || ++writes != fail_at) {
          return Status::OK();
        }
        queued_at_fault = current->queue_depth();
        return Status::IoError("injected write failure");
      });

  {
    // The only worker is held by a gate, so group 2's compression tasks
    // are still queued when the write fails: the builder must cancel them
    // on the way out, not leave them behind.
    TaskScheduler sched(1);
    std::atomic<bool> started{false}, release{false};
    sched.Submit([&] {
      started = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    current = &sched;
    Status st;
    {
      TableBuilder b("t", FourInts(), Layout::kDsm, device, 1000, &sched);
      st = LoadFourInts(&b, 12);
    }
    EXPECT_EQ(sched.queue_depth(), 0);  // nothing outlived the builder
    release = true;
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    EXPECT_EQ(queued_at_fault, 4);  // group 2's four chunks
    EXPECT_EQ(device->live_slots(), live_before);
  }

  // Free-running workers: compression races the failing placements.
  TaskScheduler sched(2);
  current = &sched;
  for (fail_at = 1; fail_at <= 24; fail_at += 3) {
    writes = 0;
    Status st;
    {
      TableBuilder b("t", FourInts(), Layout::kDsm, device, 1000, &sched);
      st = LoadFourInts(&b, 12);
    }
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "fail_at " << fail_at;
    EXPECT_EQ(device->live_slots(), live_before) << "fail_at " << fail_at;
  }
  device->set_fault_hook(nullptr);
  RemoveTree(dir);
}

}  // namespace
}  // namespace x100
