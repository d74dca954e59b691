#include "pdt/transaction.h"

namespace x100 {

Status Transaction::Insert(int64_t rid, std::vector<Value> row) {
  if (!active_) return Status::InvalidArgument("transaction not active");
  const TableView view = View();
  if (rid == view.visible_rows()) {
    InsertedRow ins;
    ins.iid = Pdt::NextIid();
    ins.values = std::move(row);
    return write_->InsertAtSid(write_->base_rows(), std::move(ins));
  }
  TableView::StackLocator sl;
  X100_ASSIGN_OR_RETURN(sl, view.Locate(rid));
  InsertedRow ins;
  ins.iid = Pdt::NextIid();
  ins.values = std::move(row);
  // Anchor before the located slot, with the ordering constraint needed so
  // the merge walk (and commit replay) reproduce the exact sequence of
  // same-anchor inserts.
  int at_index = -1;
  if (sl.loc.is_insert) {
    if (sl.layer == 1) {
      // Before one of our own inserts: chain-resolve its constraint.
      const InsertedRow* target = write_->GetOwnInsert(sl.loc.iid);
      ins.before_iid = (target != nullptr && target->before_iid != 0)
                           ? target->before_iid
                           : sl.loc.iid;
      at_index = sl.loc.index;
    } else {
      // Before a committed (read-layer) insert: its iid is a stable target.
      ins.before_iid = sl.loc.iid;
    }
  }
  return write_->InsertAtSid(sl.loc.sid, std::move(ins), at_index);
}

Status Transaction::Delete(int64_t rid) {
  if (!active_) return Status::InvalidArgument("transaction not active");
  TableView::StackLocator sl;
  X100_ASSIGN_OR_RETURN(sl, View().Locate(rid));
  if (sl.layer == -1) {
    X100_RETURN_IF_ERROR(write_->DeleteStable(sl.loc.sid));
    stable_touched_.insert(sl.loc.sid);
    return Status::OK();
  }
  if (sl.layer == 1) return write_->DeleteOwnInsert(sl.loc.iid);
  // Deleting a row inserted by a *committed* transaction (read-PDT layer).
  write_->DeleteLowerInsert(sl.loc.iid);
  iids_touched_.insert(sl.loc.iid);
  return Status::OK();
}

Status Transaction::Update(int64_t rid, int col, Value v) {
  if (!active_) return Status::InvalidArgument("transaction not active");
  TableView::StackLocator sl;
  X100_ASSIGN_OR_RETURN(sl, View().Locate(rid));
  if (sl.layer == -1) {
    X100_RETURN_IF_ERROR(write_->ModifyStable(sl.loc.sid, col, std::move(v)));
    stable_touched_.insert(sl.loc.sid);
    return Status::OK();
  }
  if (sl.layer == 1) {
    return write_->ModifyOwnInsert(sl.loc.iid, col, std::move(v));
  }
  write_->ModifyLowerInsert(sl.loc.iid, col, std::move(v));
  iids_touched_.insert(sl.loc.iid);
  return Status::OK();
}

std::unique_ptr<Transaction> TransactionManager::Begin(
    UpdatableTable* table) {
  std::unique_ptr<Transaction> txn(new Transaction());
  txn->table_ = table;
  {
    std::lock_guard<std::mutex> lock(table->mu_);
    txn->base_ = table->base_.get();
    txn->snapshot_ = table->read_pdt_;
    txn->base_version_ = table->version_;
  }
  txn->write_ = std::make_unique<Pdt>(txn->snapshot_->base_rows());
  return txn;
}

Status TransactionManager::Commit(Transaction* txn) {
  if (!txn->active_) return Status::InvalidArgument("transaction not active");
  UpdatableTable* table = txn->table_;
  std::lock_guard<std::mutex> lock(table->mu_);
  if (table->base_.get() != txn->base_) {
    return Status::TxnConflict("base image rewritten by checkpoint");
  }
  // Write-write conflict detection against commits since our snapshot.
  for (const auto& rec : table->commit_log_) {
    if (rec.version <= txn->base_version_) continue;
    for (int64_t sid : txn->stable_touched_) {
      if (rec.stable_touched.count(sid)) {
        return Status::TxnConflict("stable row " + std::to_string(sid) +
                                   " modified concurrently");
      }
    }
    for (uint64_t iid : txn->iids_touched_) {
      if (rec.iids_touched.count(iid)) {
        return Status::TxnConflict("inserted row modified concurrently");
      }
    }
  }
  // Propagate: clone the committed read-PDT, replay the write-PDT onto it.
  std::unique_ptr<Pdt> next = table->read_pdt_->Clone();
  const Pdt* w = txn->write_.get();
  Status replay = Status::OK();
  w->ForEachDelta(0, w->base_rows() + 1, [&](int64_t sid,
                                             const PdtDelta& d) {
    if (!replay.ok()) return;
    for (const InsertedRow& row : d.inserts) {
      replay = next->InsertAtSid(sid, row);
      if (!replay.ok()) return;
    }
    if (d.del_stable) {
      replay = next->DeleteStable(sid);
      if (!replay.ok()) return;
    }
    for (const auto& [col, v] : d.mods) {
      replay = next->ModifyStable(sid, col, v);
      if (!replay.ok()) return;
    }
  });
  X100_RETURN_IF_ERROR(replay);
  // Cross-layer edits target inserts owned by the (cloned) read-PDT.
  for (uint64_t iid : w->deleted_lower_iids()) {
    X100_RETURN_IF_ERROR(next->DeleteOwnInsert(iid));
  }
  for (const auto& [iid, mods] : w->lower_iid_mods()) {
    for (const auto& [col, v] : mods) {
      X100_RETURN_IF_ERROR(next->ModifyOwnInsert(iid, col, v));
    }
  }
  table->read_pdt_ = std::move(next);
  table->version_++;
  UpdatableTable::CommitRecord rec;
  rec.version = table->version_;
  rec.stable_touched = std::move(txn->stable_touched_);
  rec.iids_touched = std::move(txn->iids_touched_);
  table->commit_log_.push_back(std::move(rec));
  txn->active_ = false;
  return Status::OK();
}

Status TransactionManager::Checkpoint(UpdatableTable* table,
                                      BufferManager* buffers,
                                      std::vector<BlockId>* retired_out) {
  // Snapshot the current committed image.
  std::shared_ptr<Table> base;
  std::shared_ptr<const Pdt> pdt;
  {
    std::lock_guard<std::mutex> lock(table->mu_);
    base = table->base_;
    pdt = table->read_pdt_;
  }
  TableView view;
  view.base = base.get();
  view.layers = {pdt.get()};
  TableReader reader(base.get(), buffers);

  // Partial rewrite: only block groups with deltas are re-emitted; clean
  // groups are adopted verbatim (their blocks stay on the device and
  // their MinMax metadata is reused). On a mostly-clean table this is
  // the paper's "background update propagation" cost model — checkpoint
  // IO proportional to the touched fraction, not the table size.
  TableBuilder builder(base->name(), base->schema(), base->layout(),
                       base->device());
  Status status = Status::OK();
  // The dirty group being rewritten, decoded once: one read per column
  // chunk, whatever the number of rows.
  std::unique_ptr<Batch> decoded;
  int64_t decoded_lo = 0;  // SID of decoded's first row
  auto on_clean_run = [&](int64_t a, int64_t b) {
    if (!status.ok()) return;
    sel_t* sel = decoded->MutableSel();
    for (int64_t sid = a; sid < b; sid++) {
      sel[sid - a] = static_cast<sel_t>(sid - decoded_lo);
    }
    decoded->SetSelCount(static_cast<int>(b - a));
    status = builder.AppendBatch(*decoded);
  };
  auto on_slot = [&](const VisibleSlot& slot) {
    if (!status.ok()) return;
    std::vector<Value> row;
    if (slot.is_insert) {
      row = slot.row->values;
    } else {
      const int off = static_cast<int>(slot.sid - decoded_lo);
      for (int c = 0; c < decoded->num_columns(); c++) {
        row.push_back(decoded->column(c)->GetValue(off));
      }
    }
    for (const auto& [col, v] : slot.mods) row[col] = *v;
    status = builder.AppendRow(row);
  };

  std::vector<BlockId> retired;  // blocks of rewritten (dirty) groups
  const int ngroups = base->num_groups();
  for (int g = 0; g < ngroups && status.ok(); g++) {
    const GroupMeta& gm = base->group(g);
    const int64_t lo = gm.first_sid;
    const int64_t hi = gm.first_sid + gm.rows;
    const bool last = g == ngroups - 1;
    // Dirty test mirrors ScanOp::GroupCanMatch: any delta anchored in the
    // group's SID range (the last group also owns tail appends at
    // sid == num_rows).
    bool dirty = false;
    pdt->ForEachDelta(lo, last ? hi + 1 : hi,
                      [&](int64_t, const PdtDelta&) { dirty = true; });
    if (!dirty) {
      status = builder.AppendStoredGroup(gm);
      continue;
    }
    Table::AppendGroupBlockIds(gm, &retired);
    decoded = std::make_unique<Batch>(base->schema(),
                                      static_cast<int>(gm.rows));
    decoded_lo = lo;
    status = reader.ReadGroup(g, decoded.get());
    if (status.ok()) {
      view.ForEachVisible(lo, hi, /*include_tail=*/last, on_clean_run,
                          on_slot);
    }
    // Close the rewritten group at the original boundary so neighbouring
    // clean groups keep alignment with their stored SID ranges.
    if (status.ok()) status = builder.Flush();
  }
  if (status.ok() && ngroups == 0) {
    // Empty base image: the whole table is tail inserts.
    view.ForEachVisible(0, 0, /*include_tail=*/true, on_clean_run, on_slot);
    if (status.ok()) status = builder.Flush();
  }
  // On failure the builder's dtor frees every block it wrote.
  X100_RETURN_IF_ERROR(status);
  const std::vector<BlockId> fresh = builder.blocks_written();
  auto rebuilt = builder.Finish();
  X100_RETURN_IF_ERROR(rebuilt.status());

  std::lock_guard<std::mutex> lock(table->mu_);
  if (table->base_ != base || table->read_pdt_ != pdt) {
    // The new image loses the race: reclaim the blocks it wrote (Finish
    // disarmed the builder's own cleanup).
    for (BlockId id : fresh) base->device()->FreeBlock(id);
    return Status::TxnConflict("commits raced the checkpoint; retry");
  }
  table->base_ = std::shared_ptr<Table>(std::move(rebuilt).value());
  table->read_pdt_ = std::make_shared<Pdt>(table->base_->num_rows());
  table->version_++;
  table->commit_log_.clear();
  // Retire the replaced groups' blocks: drop any cached copies now (safe
  // under the documented quiesce contract — no reader still resolves the
  // old image). Freeing the device slots is a separate decision: a caller
  // with a durable catalog must keep them allocated until the new block
  // map is persisted, so slot recycling can never hand the old catalog's
  // block ids to fresh writes (see the header comment).
  for (BlockId id : retired) buffers->Invalidate(id);
  if (retired_out != nullptr) {
    retired_out->insert(retired_out->end(), retired.begin(), retired.end());
  } else {
    for (BlockId id : retired) base->device()->FreeBlock(id);
  }
  return Status::OK();
}

}  // namespace x100
