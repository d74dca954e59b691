// File-backed spilling: a SpillDevice view over a temp FileBlockDevice,
// proven by fault injection.
//
// The paper's product lesson is that the unglamorous failure paths — a
// disk filling up mid-spill, a short read, a corrupted block, an operator
// "cleaning" the temp directory under a live query — are exactly what
// separates a prototype from a system. Every injected fault here must
// surface as kIoError through the TaskGroup unwind with the memory
// tracker draining to zero: never a crash, never a wrong answer.
//
// Device units: round trips, block recycling (the backing file is sized
// by PEAK spill footprint, not total bytes spilled), checksum and
// unlink-behind-open detection. Engine end-to-end: out-of-core queries
// over the file device must match SimulatedDisk results exactly and
// leave neither live blocks nor temp files behind.
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "common/config.h"
#include "engine/session.h"
#include "storage/file_block_device.h"
#include "storage/spill_device.h"
#include "storage/spill_file.h"

namespace x100 {
namespace {

/// A per-test temp dir under the system temp root.
class SpillDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* base = std::getenv("TMPDIR");
    dir_ = std::string(base != nullptr ? base : "/tmp") +
           "/x100-spill-test-" + std::to_string(::getpid()) + "-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0700);
  }
  void TearDown() override { ::rmdir(dir_.c_str()); }

  /// Files left in the spill dir — must be zero once devices are gone.
  int LeftoverFiles() const {
    int n = 0;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") n++;
      }
      ::closedir(d);
    }
    return n;
  }

  std::string dir_;
};

TEST_F(SpillDirFixture, RoundTripAndRecycling) {
  auto dev = FileBlockDevice::CreateTemp(dir_);
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  SpillDevice spill(dev->get());
  std::vector<uint8_t> a(100000, 0xAB), b(kDiskBlockBytes, 0xCD);
  {
    auto fa = SpillFile::Write(&spill, a);
    ASSERT_TRUE(fa.ok());
    auto fb = SpillFile::Write(&spill, b);
    ASSERT_TRUE(fb.ok());
    auto ra = fa->ReadAll();
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    EXPECT_EQ(*ra, a);
    auto rb = fb->ReadAll();
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(*rb, b);
    EXPECT_EQ(spill.spill_bytes_in_use(),
              static_cast<int64_t>(a.size() + b.size()));
  }
  // Files died: blocks freed, slots recyclable, file NOT regrown by the
  // next writes (recycling bounds the file to peak footprint).
  EXPECT_EQ(spill.spill_bytes_in_use(), 0);
  const int64_t high_water = (*dev)->file_bytes();
  for (int round = 0; round < 5; round++) {
    auto f = SpillFile::Write(&spill, b);
    ASSERT_TRUE(f.ok());
    auto back = f->ReadAll();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, b);
  }
  EXPECT_EQ((*dev)->file_bytes(), high_water);
  EXPECT_GT((*dev)->slots_recycled(), 0);
  // Reading a freed block fails cleanly.
  BlockId freed_id;
  {
    auto w = spill.Write(a);
    ASSERT_TRUE(w.ok());
    freed_id = *w;
    spill.Free(freed_id, static_cast<int64_t>(a.size()));
  }
  auto gone = spill.Read(freed_id, nullptr);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kIoError);

  const std::string path = (*dev)->path();
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  dev->reset();  // destruction unlinks the backing file
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(LeftoverFiles(), 0);
}

TEST_F(SpillDirFixture, MissingDirectoryFailsLoudly) {
  auto dev = FileBlockDevice::CreateTemp(dir_ + "/definitely-not-here");
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.status().code(), StatusCode::kIoError);
}

TEST_F(SpillDirFixture, InjectedWriteFailureSurfacesCleanly) {
  auto dev = FileBlockDevice::CreateTemp(dir_);
  ASSERT_TRUE(dev.ok());
  SpillDevice spill(dev->get());
  (*dev)->set_fault_hook(
      [](FileBlockDevice::Op op, BlockId, std::vector<uint8_t>*) {
        return op == FileBlockDevice::Op::kWrite
                   ? Status::IoError("injected ENOSPC")
                   : Status::OK();
      });
  std::vector<uint8_t> blob(3 * kDiskBlockBytes, 0x5A);
  auto f = SpillFile::Write(&spill, blob);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kIoError);
  // The aborted multi-block write leaked nothing.
  EXPECT_EQ(spill.spill_bytes_in_use(), 0);
  EXPECT_EQ((*dev)->live_slots(), 0);
  (*dev)->set_fault_hook(nullptr);
  auto ok = SpillFile::Write(&spill, blob);
  ASSERT_TRUE(ok.ok());  // the device recovered
}

TEST_F(SpillDirFixture, ShortAndCorruptReadsAreDetected) {
  auto dev = FileBlockDevice::CreateTemp(dir_);
  ASSERT_TRUE(dev.ok());
  SpillDevice spill(dev->get());
  std::vector<uint8_t> blob(65536, 0x11);
  auto f = SpillFile::Write(&spill, blob);
  ASSERT_TRUE(f.ok());
  // Short read: the hook truncates the payload after the pread.
  (*dev)->set_fault_hook(
      [](FileBlockDevice::Op op, BlockId, std::vector<uint8_t>* data) {
        if (op == FileBlockDevice::Op::kRead) data->resize(data->size() / 2);
        return Status::OK();
      });
  auto short_read = f->ReadAll();
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kIoError);
  // Corrupt read: one flipped byte must trip the block checksum.
  (*dev)->set_fault_hook(
      [](FileBlockDevice::Op op, BlockId, std::vector<uint8_t>* data) {
        if (op == FileBlockDevice::Op::kRead && !data->empty()) {
          (*data)[data->size() / 3] ^= 0x40;
        }
        return Status::OK();
      });
  auto corrupt = f->ReadAll();
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kIoError);
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos)
      << corrupt.status().ToString();
  (*dev)->set_fault_hook(nullptr);
  auto good = f->ReadAll();
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, blob);
}

/// A run of `n` i64 rows (value = row id) on `spill`: one block per chunk.
Status WriteI64Run(SpillDevice* spill, int64_t n, SpillRun* run) {
  RowBuffer rows(Schema({Field("i", TypeId::kI64)}));
  for (int64_t i = 0; i < n; i++) rows.AppendValues({Value::I64(i)});
  return run->Append(spill, n,
                     [&rows](int64_t begin, int64_t end,
                             std::vector<uint8_t>* out) {
                       rows.Serialize(nullptr, begin, end, out);
                     });
}

TEST_F(SpillDirFixture, SpillRunWriteFailingMidRunLeavesNothingLive) {
  auto dev = FileBlockDevice::CreateTemp(dir_);
  ASSERT_TRUE(dev.ok());
  SpillDevice spill(dev->get());
  // 10,000 rows are three chunks; the third chunk's write fails.
  int writes = 0;
  (*dev)->set_fault_hook(
      [&writes](FileBlockDevice::Op op, BlockId, std::vector<uint8_t>*) {
        if (op == FileBlockDevice::Op::kWrite && ++writes == 3) {
          return Status::IoError("injected ENOSPC");
        }
        return Status::OK();
      });
  SpillRun run;
  const Status s = WriteI64Run(&spill, 10000, &run);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(writes, 3);
  // The two chunks already written were freed with the failed run.
  EXPECT_EQ(run.chunks(), 0u);
  EXPECT_EQ((*dev)->live_slots(), 0);
  EXPECT_EQ(spill.spill_bytes_in_use(), 0);
  (*dev)->set_fault_hook(nullptr);
}

TEST_F(SpillDirFixture, SpillRunTruncatedOrCorruptChunkReadsAsIoError) {
  auto dev = FileBlockDevice::CreateTemp(dir_);
  ASSERT_TRUE(dev.ok());
  SpillDevice spill(dev->get());
  SpillRun run;
  ASSERT_TRUE(WriteI64Run(&spill, 10000, &run).ok());
  ASSERT_EQ(run.chunks(), 3u);
  const std::function<void(std::vector<uint8_t>*)> faults[] = {
      [](std::vector<uint8_t>* data) { data->resize(data->size() / 2); },
      [](std::vector<uint8_t>* data) { (*data)[data->size() / 3] ^= 0x40; },
  };
  for (const auto& fault : faults) {
    (*dev)->set_fault_hook(
        [&fault](FileBlockDevice::Op op, BlockId, std::vector<uint8_t>* data) {
          if (op == FileBlockDevice::Op::kRead) fault(data);
          return Status::OK();
        });
    auto blob = run.Read(1, nullptr);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.status().code(), StatusCode::kIoError);
  }
  (*dev)->set_fault_hook(nullptr);
  // A chunk cut short after a clean read fails its reload the same way.
  auto blob = run.Read(1, nullptr);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto rows = RowBuffer::Deserialize(Schema({Field("i", TypeId::kI64)}),
                                     blob->data(), blob->size() / 2);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

TEST_F(SpillDirFixture, UnlinkBehindOpenIsDetected) {
  auto dev = FileBlockDevice::CreateTemp(dir_);
  ASSERT_TRUE(dev.ok());
  SpillDevice spill(dev->get());
  std::vector<uint8_t> blob(4096, 0x77);
  auto f = SpillFile::Write(&spill, blob);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(::unlink((*dev)->path().c_str()), 0);
  // POSIX would happily keep serving the orphaned inode through the open
  // fd; the device must refuse instead of depending on vanished state.
  auto r = f->ReadAll();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("unlinked"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine end-to-end over the file device
// ---------------------------------------------------------------------------

class FileSpillQueryTest : public SpillDirFixture {
 protected:
  static constexpr int kDimRows = 20000;
  static constexpr int kFactRows = 40000;

  void SetUp() override {
    SpillDirFixture::SetUp();
    db_ = std::make_unique<Database>();
    db_->config().spill_path = dir_;
    {
      auto b = db_->CreateTable(
          "dim",
          Schema({Field("k", TypeId::kI64), Field("label", TypeId::kStr)}),
          Layout::kDsm, 1024);
      for (int i = 0; i < kDimRows; i++) {
        std::string n = std::to_string(i);
        ASSERT_TRUE(b->AppendRow({Value::I64(i),
                                  Value::Str("L" + std::string(5 - n.size(),
                                                               '0') + n)})
                        .ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    {
      auto b = db_->CreateTable(
          "fact",
          Schema({Field("fk", TypeId::kI64), Field("val", TypeId::kI64)}),
          Layout::kDsm, 2048);
      for (int i = 0; i < kFactRows; i++) {
        ASSERT_TRUE(
            b->AppendRow({Value::I64(i % kDimRows), Value::I64(i)}).ok());
      }
      auto t = b->Finish();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db_->RegisterTable(std::move(t).value()).ok());
    }
    session_ = std::make_unique<Session>(db_.get());
  }

  void TearDown() override {
    session_.reset();
    db_.reset();
    SpillDirFixture::TearDown();
  }

  /// The every-breaker shape: group-by-join + sort (deterministic).
  AlgebraPtr GroupByJoinSortPlan() {
    AlgebraPtr join =
        JoinNode(ScanNode("dim"), ScanNode("fact"), JoinType::kInner,
                 {"k"}, {"fk"});
    AlgebraPtr aggr = AggrNode(std::move(join), {{"label", Col("label")}},
                               {{AggKind::kSum, Col("val"), "s"},
                                {AggKind::kCount, nullptr, "c"}});
    return OrderNode(std::move(aggr), {{"label", true}});
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(FileSpillQueryTest, OutOfCoreQueryOverFileDeviceMatchesAndCleansUp) {
  db_->config().max_parallelism = 4;
  db_->config().scheduler_workers = 4;
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto reference = session_->Execute(GroupByJoinSortPlan());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const int64_t peak = db_->memory()->peak();
  ASSERT_GT(peak, 0);

  db_->config().memory_limit = peak / 24;
  auto res = session_->Execute(GroupByJoinSortPlan());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(reference->rows.size(), res->rows.size());
  for (size_t i = 0; i < res->rows.size(); i++) {
    for (size_t c = 0; c < res->rows[i].size(); c++) {
      ASSERT_TRUE(reference->rows[i][c].SqlEquals(res->rows[i][c]))
          << "row " << i << " col " << c;
    }
  }
  // It really went through the file.
  FileBlockDevice* file = db_->file_spill_device();
  ASSERT_NE(file, nullptr);
  SpillDevice* dev = *db_->spill_device();
  EXPECT_EQ(dev->device(), file);
  EXPECT_GT(dev->spill_bytes_written(), 0);
  EXPECT_GT(dev->spill_bytes_read(), 0);
  // Spill hygiene: the finished query holds no blocks, no charges.
  EXPECT_EQ(dev->spill_bytes_in_use(), 0);
  EXPECT_EQ(file->live_slots(), 0);
  EXPECT_EQ(db_->memory()->used(), 0);
  // Database destruction removes the temp file itself.
  const std::string path = file->path();
  session_.reset();
  db_.reset();
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(LeftoverFiles(), 0);
}

TEST_F(FileSpillQueryTest, MidQueryIoFaultsUnwindWithoutLeaks) {
  db_->config().max_parallelism = 4;
  db_->config().scheduler_workers = 4;
  db_->config().memory_limit = 0;
  db_->memory()->ResetPeak();
  auto reference = session_->Execute(GroupByJoinSortPlan());
  ASSERT_TRUE(reference.ok());
  const int64_t peak = db_->memory()->peak();
  FileBlockDevice* file = db_->file_spill_device();
  ASSERT_NE(file, nullptr);
  SpillDevice* dev = *db_->spill_device();

  db_->config().memory_limit = peak / 24;
  // Fault schedules: fail the Nth write / corrupt the Nth read, for
  // several N, so the error lands in different phases (drain spill,
  // merge reload, probe spill, pair reload, sort-run streaming). Every
  // one must unwind as kIoError with the tracker drained.
  int faults_fired = 0;
  for (const int nth : {1, 5, 25, 125}) {
    std::atomic<int> writes{0};
    file->set_fault_hook([&writes, nth](FileBlockDevice::Op op, BlockId,
                                        std::vector<uint8_t>*) {
      if (op == FileBlockDevice::Op::kWrite &&
          writes.fetch_add(1) + 1 == nth) {
        return Status::IoError("injected ENOSPC on write " +
                               std::to_string(nth));
      }
      return Status::OK();
    });
    auto res = session_->Execute(GroupByJoinSortPlan());
    if (writes.load() >= nth) {
      faults_fired++;
      ASSERT_FALSE(res.ok()) << "write fault " << nth;
      EXPECT_EQ(res.status().code(), StatusCode::kIoError)
          << res.status().ToString();
    } else {
      // The query spilled fewer blocks than this schedule targets.
      ASSERT_TRUE(res.ok()) << res.status().ToString();
    }
    EXPECT_EQ(db_->memory()->used(), 0) << "write fault " << nth;
    EXPECT_EQ(dev->spill_bytes_in_use(), 0) << "write fault " << nth;
  }
  for (const int nth : {1, 3, 9, 27}) {
    std::atomic<int> reads{0};
    file->set_fault_hook([&reads, nth](FileBlockDevice::Op op, BlockId,
                                       std::vector<uint8_t>* data) {
      if (op == FileBlockDevice::Op::kRead &&
          reads.fetch_add(1) + 1 == nth && !data->empty()) {
        (*data)[0] ^= 0xFF;  // checksum will catch it
      }
      return Status::OK();
    });
    auto res = session_->Execute(GroupByJoinSortPlan());
    if (reads.load() >= nth) {
      faults_fired++;
      ASSERT_FALSE(res.ok()) << "read fault " << nth;
      EXPECT_EQ(res.status().code(), StatusCode::kIoError)
          << res.status().ToString();
    } else {
      ASSERT_TRUE(res.ok()) << res.status().ToString();
    }
    EXPECT_EQ(db_->memory()->used(), 0) << "read fault " << nth;
    EXPECT_EQ(dev->spill_bytes_in_use(), 0) << "read fault " << nth;
  }
  // The schedules were chosen to actually land in the spill paths.
  EXPECT_GE(faults_fired, 6);
  file->set_fault_hook(nullptr);
  // And after all that abuse, the engine still answers correctly.
  auto healed = session_->Execute(GroupByJoinSortPlan());
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ASSERT_EQ(healed->rows.size(), reference->rows.size());
  EXPECT_EQ(db_->memory()->used(), 0);
  EXPECT_EQ(dev->spill_bytes_in_use(), 0);
}

}  // namespace
}  // namespace x100
