#include "exec/scan.h"

#include <cstring>

namespace x100 {

ScanOp::ScanOp(TableView view, std::shared_ptr<const Pdt> pdt_owner,
               BufferManager* buffers, ScanOptions opts)
    : view_(view),
      pdt_owner_(std::move(pdt_owner)),
      buffers_(buffers),
      opts_(std::move(opts)) {
  const Schema& s = view_.base->schema();
  for (int c : opts_.columns) out_schema_.AddField(s.field(c));
}

Status ScanOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  out_ = std::make_unique<Batch>(out_schema_, ctx->vector_size);
  if (opts_.morsels == nullptr) {
    opts_.morsels = std::make_shared<MorselSource>(view_.base->num_groups());
  }
  cursors_.clear();
  for (size_t k = 0; k < opts_.columns.size(); k++) {
    Vector* v = out_->column(static_cast<int>(k));
    // In place: the batch's strings point into the held block bytes until
    // the next NextImpl call (operator batch-lifetime contract).
    cursors_.push_back(
        std::make_unique<ColumnCursor>(v->type(), v->heap(), true));
  }
  null_scratch_.resize(ctx->vector_size);
  opened_ = true;
  return Status::OK();
}

void ScanOp::CloseImpl() {
  cursors_.clear();
  segments_.clear();
}

bool ScanOp::GroupCanMatch(int g) const {
  // MinMax skipping is only sound when no deltas can contribute rows
  // inside this group's SID range.
  const GroupMeta& gm = view_.base->group(g);
  for (const Pdt* layer : view_.layers) {
    if (layer->HasDeltaIn(gm.first_sid, gm.first_sid + gm.rows)) return true;
  }
  for (const ScanPredicate& p : opts_.predicates) {
    if (!view_.base->GroupMayMatch(g, p.table_col, p.op, p.value)) {
      return false;
    }
  }
  return true;
}

void ScanOp::PrefetchNextGroup() {
  if (ctx_->buffers == nullptr || !buffers_->prefetch_enabled()) return;
  // Two groups of lookahead: one group overlaps fully only while decode
  // time exceeds device time; the second absorbs the jitter when the two
  // are balanced. Prefetch() itself skips resident/in-flight blocks and
  // the budget gate bounds what actually issues, so re-requesting the
  // same window every group is cheap and retries reads the budget
  // refused last time. The peek is advisory: other clones claim too.
  const int next = opts_.morsels->PeekNext();
  if (next < 0) return;
  for (int g = next; g < next + 2 && g < view_.base->num_groups(); g++) {
    if (!GroupCanMatch(g)) continue;  // MinMax will skip it: no IO to hide
    const GroupMeta& gm = view_.base->group(g);
    auto prefetch = [&](const std::vector<BlockId>& blocks) {
      for (BlockId b : blocks) buffers_->Prefetch(b, ctx_->scheduler);
    };
    prefetch(gm.pax_blocks);  // PAX: the group region; DSM: none
    for (int c : opts_.columns) {
      prefetch(gm.cols[c].loc.blocks);  // DSM: the scanned columns' runs
      prefetch(gm.cols[c].null_loc.blocks);
    }
  }
}

Status ScanOp::LoadGroup(int g) {
  // Overlap: start the upcoming groups' block reads in the background
  // BEFORE this group's demand reads, so the device never idles for this
  // group's decode time.
  PrefetchNextGroup();
  for (size_t k = 0; k < opts_.columns.size(); k++) {
    X100_RETURN_IF_ERROR(cursors_[k]->Open(view_.base, buffers_, g,
                                           opts_.columns[k], ctx_->cancel));
  }
  group_pos_ = 0;
  const GroupMeta& gm = view_.base->group(g);
  BuildSegments(gm.first_sid, gm.first_sid + gm.rows, /*tail=*/false);
  return Status::OK();
}

void ScanOp::BuildSegments(int64_t lo, int64_t hi, bool tail) {
  segments_.clear();
  seg_lo_ = lo;
  seg_idx_ = 0;
  view_.ForEachVisible(
      lo, hi, tail,
      [&](int64_t a, int64_t b) {
        segments_.push_back({true, a - lo, b - lo, {}});
      },
      [&](const VisibleSlot& vs) { segments_.push_back({false, 0, 0, vs}); });
}

Status ScanOp::SkipTo(int64_t local) {
  // Deleted stable rows lie between the merge segments.
  const int n = static_cast<int>(local - group_pos_);
  for (size_t k = 0; n > 0 && k < cursors_.size(); k++) {
    X100_RETURN_IF_ERROR(cursors_[k]->Skip(n));
  }
  group_pos_ = local;
  return Status::OK();
}

Status ScanOp::ReadRows(int n, int out_base) {
  for (size_t k = 0; k < cursors_.size(); k++) {
    ColumnCursor* cursor = cursors_[k].get();
    Vector* out = out_->column(static_cast<int>(k));
    void* data = static_cast<uint8_t*>(out->RawData()) +
                 static_cast<size_t>(out_base) * TypeWidth(out->type());
    // Arm the vector's flags only when a NULL shows up.
    const bool armed = out->has_nulls();
    uint8_t* flags = armed                ? out->MutableNulls() + out_base
                     : cursor->has_nulls() ? null_scratch_.data()
                                          : nullptr;
    X100_RETURN_IF_ERROR(cursor->Next(n, data, flags));
    if (!armed && flags != nullptr && std::memchr(flags, 1, n) != nullptr) {
      std::memcpy(out->MutableNulls() + out_base, flags, n);
    }
  }
  group_pos_ += n;
  return Status::OK();
}

Status ScanOp::FillFromSlot(const VisibleSlot& slot, int out_base) {
  if (!slot.is_insert) {
    // A modified stable row: its unmodified columns come from the cursors.
    X100_RETURN_IF_ERROR(SkipTo(slot.sid - seg_lo_));
    X100_RETURN_IF_ERROR(ReadRows(1, out_base));
  }
  for (size_t k = 0; k < opts_.columns.size(); k++) {
    const int c = opts_.columns[k];
    // Mods override (the last, upper layer wins); inserts supply the rest.
    const Value* src = nullptr;
    for (const auto& [mc, v] : slot.mods) {
      if (mc == c) src = v;
    }
    if (src == nullptr && slot.is_insert) {
      if (c >= static_cast<int>(slot.row->values.size())) {
        return Status::Internal("insert row arity below column index");
      }
      src = &slot.row->values[c];
    }
    if (src != nullptr) {
      out_->column(static_cast<int>(k))->SetValue(out_base, *src);
    }
  }
  return Status::OK();
}

Result<Batch*> ScanOp::NextImpl() {
  if (!opened_) return Status::Internal("scan not opened");
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  if (eos_) return nullptr;
  out_->Reset();
  for (auto& cursor : cursors_) cursor->BeginBatch();
  int filled = 0;

  while (filled < ctx_->vector_size) {
    if (seg_idx_ >= segments_.size()) {
      if (filled > 0) break;  // deliver what we have before switching group
      const int g = opts_.morsels->NextGroup();
      if (g >= 0) {
        if (!GroupCanMatch(g)) {
          groups_skipped_++;
          ctx_->groups_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        X100_RETURN_IF_ERROR(ctx_->CheckCancel());
        X100_RETURN_IF_ERROR(LoadGroup(g));
        continue;
      }
      // Exactly one consumer of the source merges the in-memory inserts.
      if (!tail_done_) {
        tail_done_ = true;
        if (opts_.morsels->ClaimTail()) {
          // Inserts anchored past the last stable row.
          BuildSegments(view_.base_rows(), view_.base_rows(), /*tail=*/true);
          continue;
        }
      }
      eos_ = true;
      break;
    }
    Segment& seg = segments_[seg_idx_];
    if (seg.is_run) {
      // A run left unfinished by the last batch resumes at seg.a.
      X100_RETURN_IF_ERROR(SkipTo(seg.a));
      const int take = static_cast<int>(
          std::min<int64_t>(seg.b - seg.a, ctx_->vector_size - filled));
      X100_RETURN_IF_ERROR(ReadRows(take, filled));
      filled += take;
      seg.a += take;
      if (seg.a == seg.b) seg_idx_++;
    } else {
      X100_RETURN_IF_ERROR(FillFromSlot(seg.slot, filled));
      filled++;
      seg_idx_++;
    }
  }

  if (filled == 0) return nullptr;
  out_->set_rows(filled);
  ctx_->tuples_scanned.fetch_add(filled, std::memory_order_relaxed);
  return out_.get();
}

}  // namespace x100
