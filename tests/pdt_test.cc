// PDT tests: Fenwick arithmetic, RID/SID mapping, insert/delete/modify
// semantics, merge walks, stacked views, transactions (snapshot isolation,
// conflicts), checkpoint, and a randomized property test against a naive
// reference model.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "pdt/fenwick.h"
#include "pdt/pdt.h"
#include "pdt/transaction.h"
#include "pdt/view.h"
#include "storage/buffer_manager.h"
#include "storage/simulated_disk.h"

namespace x100 {
namespace {

TEST(FenwickTest, PrefixSums) {
  Fenwick f(10);
  f.Add(0, 5);
  f.Add(3, 2);
  f.Add(9, 1);
  EXPECT_EQ(f.Prefix(-1), 0);
  EXPECT_EQ(f.Prefix(0), 5);
  EXPECT_EQ(f.Prefix(2), 5);
  EXPECT_EQ(f.Prefix(3), 7);
  EXPECT_EQ(f.Prefix(9), 8);
  EXPECT_EQ(f.Total(), 8);
  f.Add(3, -2);
  EXPECT_EQ(f.Prefix(3), 5);
}

// The blocked tree against a plain prefix-sum array, at sizes around the
// block edge and over several blocks.
TEST(FenwickTest, BlockedTreeMatchesPlainPrefixSums) {
  const int64_t kB = Fenwick::kBlockPositions;
  for (int64_t n : {int64_t{1}, kB - 1, kB, kB + 1, 3 * kB + 5}) {
    Fenwick f(n);
    std::vector<int64_t> plain(n, 0);
    Rng rng(static_cast<uint64_t>(n));
    const auto add = [&](int64_t i, int64_t delta) {
      f.Add(i, delta);
      plain[i] += delta;
    };
    for (int64_t edge : {int64_t{0}, kB - 1, kB, n - 1}) {
      if (edge < n) add(edge, rng.Uniform(-5, 5));
    }
    for (int op = 0; op < 500; op++) {
      add(rng.Uniform(0, n - 1), rng.Uniform(-5, 5));
    }
    EXPECT_EQ(f.Prefix(-1), 0);
    int64_t sum = 0;
    for (int64_t i = 0; i < n; i++) {
      sum += plain[i];
      ASSERT_EQ(f.Prefix(i), sum) << "n " << n << " i " << i;
    }
    EXPECT_EQ(f.Prefix(n), sum);
    EXPECT_EQ(f.Prefix(n + kB), sum);
    EXPECT_EQ(f.Total(), sum);
    EXPECT_EQ(f.allocated_blocks(), (n + kB - 1) / kB);
  }
}

std::vector<Value> Row(int64_t v) { return {Value::I64(v)}; }

// Displacement counters exist only for the 4,096-SID blocks that carry an
// insert or a delete; a copy carries exactly those.
TEST(PdtTest, CountersAllocateOnlyTouchedBlocks) {
  Pdt pdt(1'000'000);
  EXPECT_EQ(pdt.allocated_counter_blocks(), 0);
  const int64_t sid = 5 * Fenwick::kBlockPositions + 17;
  ASSERT_TRUE(pdt.DeleteStable(sid).ok());
  EXPECT_EQ(pdt.allocated_counter_blocks(), 1);  // the delete tree's block
  InsertedRow ins;
  ins.iid = Pdt::NextIid();
  ins.values = Row(7);
  ASSERT_TRUE(pdt.InsertAtSid(sid + 100, std::move(ins)).ok());
  EXPECT_EQ(pdt.allocated_counter_blocks(), 2);  // plus the insert tree's
  ASSERT_TRUE(pdt.ModifyStable(sid + 1, 0, Value::I64(9)).ok());
  ASSERT_TRUE(pdt.DeleteStable(sid + 2).ok());
  EXPECT_EQ(pdt.allocated_counter_blocks(), 2);
  EXPECT_EQ(pdt.visible_rows(), 1'000'000 - 1);

  auto copy = pdt.Clone();
  EXPECT_EQ(copy->allocated_counter_blocks(), 2);
  EXPECT_EQ(copy->visible_rows(), pdt.visible_rows());
  EXPECT_EQ(copy->RidOfStable(sid + 200), pdt.RidOfStable(sid + 200));
  ASSERT_TRUE(pdt.DeleteStable(900'000).ok());
  EXPECT_EQ(pdt.allocated_counter_blocks(), 3);
  EXPECT_EQ(copy->allocated_counter_blocks(), 2);
  EXPECT_EQ(copy->visible_rows(), pdt.visible_rows() + 1);
}

TEST(PdtTest, EmptyPdtIsIdentity) {
  Pdt pdt(100);
  EXPECT_EQ(pdt.visible_rows(), 100);
  EXPECT_TRUE(pdt.empty());
  auto loc = pdt.Locate(42);
  ASSERT_TRUE(loc.ok());
  EXPECT_FALSE(loc->is_insert);
  EXPECT_EQ(loc->sid, 42);
  EXPECT_EQ(pdt.RidOfStable(42), 42);
}

TEST(PdtTest, AppendGrowsVisibleImage) {
  Pdt pdt(10);
  ASSERT_TRUE(pdt.InsertAt(10, Row(1000)).ok());
  ASSERT_TRUE(pdt.InsertAt(11, Row(1001)).ok());
  EXPECT_EQ(pdt.visible_rows(), 12);
  auto loc = pdt.Locate(11);
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE(loc->is_insert);
  EXPECT_EQ(loc->sid, 10);
  EXPECT_EQ(loc->index, 1);
}

TEST(PdtTest, InsertShiftsFollowingRids) {
  Pdt pdt(10);
  ASSERT_TRUE(pdt.InsertAt(5, Row(-1)).ok());  // before stable 5
  EXPECT_EQ(pdt.visible_rows(), 11);
  EXPECT_EQ(pdt.RidOfStable(4), 4);
  EXPECT_EQ(pdt.RidOfStable(5), 6);  // displaced by the insert
  auto loc = pdt.Locate(5);
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE(loc->is_insert);
}

TEST(PdtTest, DeleteStableHidesRow) {
  Pdt pdt(10);
  ASSERT_TRUE(pdt.DeleteAt(3).ok());
  EXPECT_EQ(pdt.visible_rows(), 9);
  EXPECT_EQ(pdt.RidOfStable(3), -1);
  EXPECT_EQ(pdt.RidOfStable(4), 3);  // shifted up
  auto loc = pdt.Locate(3);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->sid, 4);
}

TEST(PdtTest, DeleteOwnInsertRemovesIt) {
  Pdt pdt(10);
  ASSERT_TRUE(pdt.InsertAt(5, Row(-1)).ok());
  ASSERT_TRUE(pdt.DeleteAt(5).ok());  // deletes the freshly inserted row
  EXPECT_EQ(pdt.visible_rows(), 10);
  EXPECT_TRUE(pdt.empty());  // delta fully cancelled
}

TEST(PdtTest, ModifyRecordsPerColumnValues) {
  Pdt pdt(10);
  ASSERT_TRUE(pdt.ModifyAt(7, 0, Value::I64(999)).ok());
  const PdtDelta* d = pdt.FindDelta(7);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->mods.at(0).AsI64(), 999);
  // Modify again: overwrite.
  ASSERT_TRUE(pdt.ModifyAt(7, 0, Value::I64(111)).ok());
  EXPECT_EQ(pdt.FindDelta(7)->mods.at(0).AsI64(), 111);
}

TEST(PdtTest, ModifyDeletedRowFails) {
  Pdt pdt(10);
  ASSERT_TRUE(pdt.DeleteStable(4).ok());
  EXPECT_FALSE(pdt.ModifyStable(4, 0, Value::I64(1)).ok());
  EXPECT_FALSE(pdt.DeleteStable(4).ok());  // double delete
}

TEST(PdtTest, OutOfRangeRids) {
  Pdt pdt(10);
  EXPECT_EQ(pdt.Locate(10).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pdt.Locate(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pdt.DeleteAt(10).code(), StatusCode::kOutOfRange);
}

TEST(PdtTest, HasDeltaInAgreesWithForEachDelta) {
  // The scan-side MinMax gate asks "any delta in this group's SID range?"
  // once per group; HasDeltaIn must answer exactly what a full
  // ForEachDelta walk would, on empty PDTs, boundaries, and interior hits.
  Pdt pdt(100);
  EXPECT_FALSE(pdt.HasDeltaIn(0, 100));
  ASSERT_TRUE(pdt.InsertAt(50, Row(7)).ok());
  ASSERT_TRUE(pdt.DeleteAt(10).ok());
  ASSERT_TRUE(pdt.ModifyAt(90, 0, Value::I64(-1)).ok());
  const int64_t windows[][2] = {{0, 100}, {0, 10},   {0, 11},  {10, 11},
                                {11, 50}, {50, 51},  {51, 90}, {90, 91},
                                {91, 100}, {0, 0},   {50, 50}, {100, 200}};
  for (const auto& w : windows) {
    int walked = 0;
    pdt.ForEachDelta(w[0], w[1],
                     [&](int64_t, const PdtDelta&) { walked++; });
    EXPECT_EQ(pdt.HasDeltaIn(w[0], w[1]), walked > 0)
        << "[" << w[0] << ", " << w[1] << ")";
  }
}

TEST(PdtTest, MixedOpsKeepRidArithmeticConsistent) {
  // Interleave inserts and deletes and verify against a naive model.
  Pdt pdt(20);
  std::vector<int64_t> model(20);
  for (int i = 0; i < 20; i++) model[i] = i;  // stable sids
  Rng rng(31);
  int64_t next_val = 1000;
  for (int step = 0; step < 200; step++) {
    const bool do_insert =
        model.empty() || rng.Bernoulli(0.55);
    if (do_insert) {
      const int64_t rid = rng.Uniform(0, static_cast<int64_t>(model.size()));
      ASSERT_TRUE(pdt.InsertAt(rid, Row(next_val)).ok());
      model.insert(model.begin() + rid, next_val++);
    } else {
      const int64_t rid =
          rng.Uniform(0, static_cast<int64_t>(model.size()) - 1);
      ASSERT_TRUE(pdt.DeleteAt(rid).ok());
      model.erase(model.begin() + rid);
    }
    ASSERT_EQ(pdt.visible_rows(), static_cast<int64_t>(model.size()));
  }
  // Verify every visible position resolves to the right row.
  for (int64_t rid = 0; rid < pdt.visible_rows(); rid++) {
    auto loc = pdt.Locate(rid);
    ASSERT_TRUE(loc.ok());
    if (loc->is_insert) {
      const PdtDelta* d = pdt.FindDelta(loc->sid);
      ASSERT_NE(d, nullptr);
      EXPECT_EQ(d->inserts[loc->index].values[0].AsI64(), model[rid]);
    } else {
      EXPECT_EQ(loc->sid, model[rid]) << "rid " << rid;
    }
  }
}

// ---------------------------------------------------------------------------
// TableView merge walk
// ---------------------------------------------------------------------------

TEST(TableViewTest, CleanRunsCoverUntouchedRanges) {
  Pdt pdt(100);
  ASSERT_TRUE(pdt.DeleteStable(50).ok());
  ASSERT_TRUE(pdt.ModifyStable(70, 0, Value::I64(-1)).ok());
  TableView view;
  view.layers = {&pdt};
  std::vector<std::pair<int64_t, int64_t>> runs;
  std::vector<VisibleSlot> slots;
  view.ForEachVisible(
      0, 100, true,
      [&](int64_t a, int64_t b) { runs.emplace_back(a, b); },
      [&](const VisibleSlot& s) { slots.push_back(s); });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], std::make_pair(int64_t{0}, int64_t{50}));
  EXPECT_EQ(runs[1], std::make_pair(int64_t{51}, int64_t{70}));
  EXPECT_EQ(runs[2], std::make_pair(int64_t{71}, int64_t{100}));
  ASSERT_EQ(slots.size(), 1u);  // only the modified row is a slot
  EXPECT_EQ(slots[0].sid, 70);
  ASSERT_EQ(slots[0].mods.size(), 1u);
  EXPECT_EQ(slots[0].mods[0].second->AsI64(), -1);
}

TEST(TableViewTest, InsertOnlyAnchorKeepsStableInRun) {
  Pdt pdt(100);
  ASSERT_TRUE(pdt.InsertAt(30, Row(7)).ok());
  TableView view;
  view.layers = {&pdt};
  std::vector<std::pair<int64_t, int64_t>> runs;
  int inserts = 0;
  view.ForEachVisible(
      0, 100, true,
      [&](int64_t a, int64_t b) { runs.emplace_back(a, b); },
      [&](const VisibleSlot& s) {
        EXPECT_TRUE(s.is_insert);
        inserts++;
      });
  EXPECT_EQ(inserts, 1);
  // Stable row 30 stays inside a clean run: [0,30) and [30,100).
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].second, 30);
  EXPECT_EQ(runs[1].first, 30);
}

TEST(TableViewTest, StackedLayersCombine) {
  Pdt read(10);
  auto iid = read.InsertAt(5, Row(500));
  ASSERT_TRUE(iid.ok());
  ASSERT_TRUE(read.ModifyStable(2, 0, Value::I64(222)).ok());

  Pdt write(10);
  ASSERT_TRUE(write.DeleteStable(7).ok());
  write.ModifyLowerInsert(*iid, 0, Value::I64(501));  // patch read's insert

  TableView view;
  view.layers = {&read, &write};
  EXPECT_EQ(view.visible_rows(), 10);  // +1 insert, -1 delete

  // The read-layer insert must surface with the write-layer's mod applied.
  bool saw_insert = false;
  view.ForEachVisible(
      0, 10, true, [](int64_t, int64_t) {},
      [&](const VisibleSlot& s) {
        if (s.is_insert) {
          saw_insert = true;
          EXPECT_EQ(s.row->values[0].AsI64(), 500);
          ASSERT_EQ(s.mods.size(), 1u);
          EXPECT_EQ(s.mods[0].second->AsI64(), 501);
        }
      });
  EXPECT_TRUE(saw_insert);
}

TEST(TableViewTest, UpperLayerDeletesLowerInsert) {
  Pdt read(10);
  auto iid = read.InsertAt(3, Row(42));
  ASSERT_TRUE(iid.ok());
  Pdt write(10);
  write.DeleteLowerInsert(*iid);
  TableView view;
  view.layers = {&read, &write};
  EXPECT_EQ(view.visible_rows(), 10);
  int insert_count = 0;
  view.ForEachVisible(
      0, 10, true, [](int64_t, int64_t) {},
      [&](const VisibleSlot& s) { insert_count += s.is_insert; });
  EXPECT_EQ(insert_count, 0);
}

TEST(TableViewTest, StackedLocate) {
  Pdt read(10);
  ASSERT_TRUE(read.DeleteStable(0).ok());
  Pdt write(10);
  ASSERT_TRUE(write.InsertAt(2, Row(9)).ok());  // note: write's own rid space
  TableView view;
  view.layers = {&read, &write};
  // Visible: stable 1, stable 2 (insert anchored at 2 comes first)…
  auto l0 = view.Locate(0);
  ASSERT_TRUE(l0.ok());
  EXPECT_EQ(l0->layer, -1);
  EXPECT_EQ(l0->loc.sid, 1);
  auto l1 = view.Locate(1);
  ASSERT_TRUE(l1.ok());
  EXPECT_TRUE(l1->loc.is_insert);
  EXPECT_EQ(l1->layer, 1);
}

// ---------------------------------------------------------------------------
// Transactions over a real stored table
// ---------------------------------------------------------------------------

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableBuilder b("t",
                   Schema({Field("k", TypeId::kI64), Field("v", TypeId::kStr)}),
                   Layout::kDsm, &disk_, 64);
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(
          b.AppendRow({Value::I64(i), Value::Str("v" + std::to_string(i))})
              .ok());
    }
    auto t = b.Finish();
    ASSERT_TRUE(t.ok());
    table_ = std::make_unique<UpdatableTable>(std::move(t).value());
    buffers_ = std::make_unique<BufferManager>(&disk_, 64 << 20);
  }

  Result<std::vector<Value>> ReadCommitted(int64_t rid) {
    TableView v = table_->View();
    auto pdt = table_->SnapshotPdt();  // keep alive
    TableReader reader(table_->base(), buffers_.get());
    return v.ReadRow(rid, &reader);
  }

  SimulatedDisk disk_;
  std::unique_ptr<UpdatableTable> table_;
  std::unique_ptr<BufferManager> buffers_;
  TransactionManager tm_;
};

TEST_F(TxnTest, CommitMakesChangesVisible) {
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Update(10, 1, Value::Str("patched")).ok());
  ASSERT_TRUE(txn->Delete(0).ok());
  ASSERT_TRUE(txn->Append({Value::I64(1000), Value::Str("new")}).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  EXPECT_EQ(table_->visible_rows(), 200);  // -1 delete +1 append
  // Row 0 deleted -> old row 1 is now rid 0.
  auto r0 = ReadCommitted(0);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ((*r0)[0].AsI64(), 1);
  // The update ran before the delete, so it targeted stable sid 10 — which
  // sits at rid 9 once sid 0 is gone.
  auto r9 = ReadCommitted(9);
  ASSERT_TRUE(r9.ok());
  EXPECT_EQ((*r9)[1].AsStr(), "patched");
  auto r10 = ReadCommitted(10);
  ASSERT_TRUE(r10.ok());
  EXPECT_EQ((*r10)[1].AsStr(), "v11");
  auto last = ReadCommitted(199);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ((*last)[0].AsI64(), 1000);
}

TEST_F(TxnTest, CountersAllocateOnlyWhereRowsChange) {
  EXPECT_EQ(table_->read_pdt()->allocated_counter_blocks(), 0);
  auto txn = tm_.Begin(table_.get());
  EXPECT_EQ(txn->write_pdt()->allocated_counter_blocks(), 0);
  ASSERT_TRUE(txn->Update(3, 1, Value::Str("patched")).ok());
  EXPECT_EQ(txn->write_pdt()->allocated_counter_blocks(), 0);
  ASSERT_TRUE(txn->Delete(5).ok());
  EXPECT_EQ(txn->write_pdt()->allocated_counter_blocks(), 1);
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  // Commit clones the read-PDT and replays the delete into the clone.
  EXPECT_EQ(table_->read_pdt()->allocated_counter_blocks(), 1);
  ASSERT_TRUE(tm_.Checkpoint(table_.get(), buffers_.get()).ok());
  EXPECT_EQ(table_->read_pdt()->allocated_counter_blocks(), 0);
}

TEST_F(TxnTest, SnapshotIsolation) {
  auto reader_txn = tm_.Begin(table_.get());
  auto writer_txn = tm_.Begin(table_.get());
  ASSERT_TRUE(writer_txn->Update(5, 1, Value::Str("w")).ok());
  ASSERT_TRUE(tm_.Commit(writer_txn.get()).ok());
  // The reader's snapshot predates the commit.
  TableView v = reader_txn->View();
  TableReader reader(table_->base(), buffers_.get());
  auto row = v.ReadRow(5, &reader);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsStr(), "v5");
}

TEST_F(TxnTest, WriteWriteConflictDetected) {
  auto t1 = tm_.Begin(table_.get());
  auto t2 = tm_.Begin(table_.get());
  ASSERT_TRUE(t1->Update(7, 1, Value::Str("a")).ok());
  ASSERT_TRUE(t2->Update(7, 1, Value::Str("b")).ok());
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  EXPECT_EQ(tm_.Commit(t2.get()).code(), StatusCode::kTxnConflict);
}

TEST_F(TxnTest, DisjointWritesBothCommit) {
  auto t1 = tm_.Begin(table_.get());
  auto t2 = tm_.Begin(table_.get());
  ASSERT_TRUE(t1->Update(7, 1, Value::Str("a")).ok());
  ASSERT_TRUE(t2->Update(8, 1, Value::Str("b")).ok());
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  ASSERT_TRUE(tm_.Commit(t2.get()).ok());
  auto r7 = ReadCommitted(7);
  auto r8 = ReadCommitted(8);
  EXPECT_EQ((*r7)[1].AsStr(), "a");
  EXPECT_EQ((*r8)[1].AsStr(), "b");
}

TEST_F(TxnTest, InsertsNeverConflict) {
  auto t1 = tm_.Begin(table_.get());
  auto t2 = tm_.Begin(table_.get());
  ASSERT_TRUE(t1->Append({Value::I64(500), Value::Str("x")}).ok());
  ASSERT_TRUE(t2->Append({Value::I64(501), Value::Str("y")}).ok());
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  ASSERT_TRUE(tm_.Commit(t2.get()).ok());
  EXPECT_EQ(table_->visible_rows(), 202);
}

TEST_F(TxnTest, AbortDiscardsChanges) {
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Delete(0).ok());
  tm_.Abort(txn.get());
  EXPECT_EQ(tm_.Commit(txn.get()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table_->visible_rows(), 200);
}

TEST_F(TxnTest, TxnDeletesCommittedInsert) {
  auto t1 = tm_.Begin(table_.get());
  ASSERT_TRUE(t1->Append({Value::I64(999), Value::Str("temp")}).ok());
  ASSERT_TRUE(tm_.Commit(t1.get()).ok());
  ASSERT_EQ(table_->visible_rows(), 201);
  auto t2 = tm_.Begin(table_.get());
  ASSERT_TRUE(t2->Delete(200).ok());  // the committed insert
  ASSERT_TRUE(tm_.Commit(t2.get()).ok());
  EXPECT_EQ(table_->visible_rows(), 200);
}

TEST_F(TxnTest, CheckpointRewritesBaseAndEmptiesPdt) {
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Delete(0).ok());
  ASSERT_TRUE(txn->Update(10, 1, Value::Str("ckpt")).ok());
  ASSERT_TRUE(txn->Append({Value::I64(777), Value::Str("tail")}).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  const int64_t rows_before = table_->visible_rows();
  ASSERT_TRUE(tm_.Checkpoint(table_.get(), buffers_.get()).ok());
  EXPECT_EQ(table_->visible_rows(), rows_before);
  EXPECT_TRUE(table_->read_pdt()->empty());
  EXPECT_EQ(table_->base()->num_rows(), rows_before);

  // Content preserved post-rewrite.
  auto r0 = ReadCommitted(0);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ((*r0)[0].AsI64(), 1);
  auto r10 = ReadCommitted(10);
  EXPECT_EQ((*r10)[1].AsStr(), "ckpt");
  auto tail = ReadCommitted(rows_before - 1);
  EXPECT_EQ((*tail)[0].AsI64(), 777);
}

TEST_F(TxnTest, CheckpointDefersRetiredBlockFreesToCaller) {
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Update(0, 1, Value::Str("dirty")).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());

  std::vector<BlockId> retired;
  ASSERT_TRUE(tm_.Checkpoint(table_.get(), buffers_.get(), &retired).ok());
  ASSERT_FALSE(retired.empty());
  // Cached copies are dropped immediately, but the device slots must stay
  // allocated until the caller has persisted the new block map — freeing
  // them earlier would let a recycled slot shadow a block the durable
  // catalog still references.
  EXPECT_EQ(disk_.bytes_freed(), 0);
  for (BlockId id : retired) {
    EXPECT_FALSE(buffers_->Contains(id));
    disk_.FreeBlock(id);
  }
  EXPECT_GT(disk_.bytes_freed(), 0);
}

TEST_F(TxnTest, CheckpointWithoutRetiredOutFreesImmediately) {
  auto txn = tm_.Begin(table_.get());
  ASSERT_TRUE(txn->Update(0, 1, Value::Str("dirty")).ok());
  ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  ASSERT_TRUE(tm_.Checkpoint(table_.get(), buffers_.get()).ok());
  // No durable catalog to protect: the legacy path frees on the spot.
  EXPECT_GT(disk_.bytes_freed(), 0);
}

// Value of row `r`, column `c` in the checkpoint cost test.
int64_t WideCell(int64_t r, int c) { return (r * (c + 1)) % 1000 + c; }

// Checkpoints a one-group, 16-column table of `rows` rows after one update
// and returns the pool pins (hits + misses) the checkpoint took. The rows
// read back from the rewritten image must be the rows before it.
int64_t CheckpointPins(int rows) {
  constexpr int kCols = 16;
  std::vector<Field> fields;
  for (int c = 0; c < kCols; c++) {
    fields.emplace_back("c" + std::to_string(c), TypeId::kI64);
  }
  const Schema schema(fields);
  SimulatedDisk disk;
  TableBuilder b("t", schema, Layout::kDsm, &disk, rows);
  for (int64_t r = 0; r < rows; r++) {
    std::vector<Value> row;
    for (int c = 0; c < kCols; c++) row.push_back(Value::I64(WideCell(r, c)));
    EXPECT_TRUE(b.AppendRow(row).ok());
  }
  auto base = b.Finish();
  EXPECT_TRUE(base.ok());
  UpdatableTable table(std::move(base).value());
  BufferManager buffers(&disk, 64 << 20);
  TransactionManager tm;
  auto txn = tm.Begin(&table);
  EXPECT_TRUE(txn->Update(rows / 2, 3, Value::I64(-1)).ok());
  EXPECT_TRUE(tm.Commit(txn.get()).ok());

  const int64_t pins_before = buffers.hits() + buffers.misses();
  EXPECT_TRUE(tm.Checkpoint(&table, &buffers).ok());
  const int64_t pins = buffers.hits() + buffers.misses() - pins_before;

  const Table* image = table.base();
  EXPECT_EQ(image->num_rows(), rows);
  EXPECT_EQ(image->num_groups(), 1);
  Batch decoded(schema, rows);
  TableReader reader(image, &buffers);
  EXPECT_TRUE(reader.ReadGroup(0, &decoded).ok());
  for (int c = 0; c < kCols; c++) {
    const int64_t* v = decoded.column(c)->Data<int64_t>();
    for (int64_t r = 0; r < rows; r++) {
      const int64_t expect = r == rows / 2 && c == 3 ? -1 : WideCell(r, c);
      if (v[r] != expect) {
        ADD_FAILURE() << "row " << r << " column " << c << ": " << v[r]
                      << " != " << expect;
        return pins;
      }
    }
  }
  return pins;
}

// A checkpoint decodes each column chunk of a dirty group once, so its
// pool pins do not grow with the group's rows (one decode per row made
// them grow with rows x columns).
TEST(CheckpointCostTest, PoolPinsDoNotGrowWithGroupRows) {
  const int64_t small = CheckpointPins(1024);
  const int64_t large = CheckpointPins(16384);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 16);  // one single-block chunk per column
}

// ---------------------------------------------------------------------------
// Randomized property test: PDT stack vs naive model over a stored table
// ---------------------------------------------------------------------------

TEST(PdtPropertyTest, RandomOpsMatchNaiveModel) {
  SimulatedDisk disk;
  TableBuilder b("t", Schema({Field("x", TypeId::kI64)}), Layout::kDsm,
                 &disk, 32);
  std::vector<int64_t> model;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(b.AppendRow({Value::I64(i)}).ok());
    model.push_back(i);
  }
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  UpdatableTable table(std::move(t).value());
  BufferManager buffers(&disk, 64 << 20);
  TransactionManager tm;

  Rng rng(77);
  int64_t next = 10000;
  for (int round = 0; round < 20; round++) {
    auto txn = tm.Begin(&table);
    for (int op = 0; op < 10; op++) {
      const int64_t n = static_cast<int64_t>(model.size());
      const double dice = rng.NextDouble();
      if (dice < 0.4 || n == 0) {
        const int64_t rid = rng.Uniform(0, n);
        ASSERT_TRUE(txn->Insert(rid, {Value::I64(next)}).ok());
        model.insert(model.begin() + rid, next++);
      } else if (dice < 0.7) {
        const int64_t rid = rng.Uniform(0, n - 1);
        ASSERT_TRUE(txn->Delete(rid).ok());
        model.erase(model.begin() + rid);
      } else {
        const int64_t rid = rng.Uniform(0, n - 1);
        ASSERT_TRUE(txn->Update(rid, 0, Value::I64(next)).ok());
        model[rid] = next++;
      }
    }
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
    ASSERT_EQ(table.visible_rows(), static_cast<int64_t>(model.size()));
  }
  // Full image comparison.
  TableView view = table.View();
  auto keep = table.SnapshotPdt();
  TableReader reader(table.base(), &buffers);
  for (int64_t rid = 0; rid < view.visible_rows(); rid++) {
    auto row = view.ReadRow(rid, &reader);
    ASSERT_TRUE(row.ok()) << rid;
    ASSERT_EQ((*row)[0].AsI64(), model[rid]) << "rid " << rid;
  }
}

}  // namespace
}  // namespace x100
