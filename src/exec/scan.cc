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
  reader_ = std::make_unique<TableReader>(view_.base, buffers_);
  out_ = std::make_unique<Batch>(out_schema_, ctx->vector_size);
  group_cols_.resize(opts_.columns.size());
  if (opts_.scheduler != nullptr) {
    scheduler_qid_ = opts_.scheduler->Register(view_.base->num_groups());
  }
  opened_ = true;
  return Status::OK();
}

void ScanOp::CloseImpl() {
  if (opts_.scheduler != nullptr && scheduler_qid_ >= 0) {
    opts_.scheduler->Unregister(scheduler_qid_);
    scheduler_qid_ = -1;
  }
  group_cols_.clear();
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

bool ScanOp::NextGroupId(int* g) {
  if (opts_.morsels != nullptr) {
    const int got = opts_.morsels->NextGroup();
    if (got < 0) return false;
    *g = got;
    return true;
  }
  if (opts_.scheduler != nullptr) {
    const int got = opts_.scheduler->NextGroup(scheduler_qid_);
    if (got < 0) return false;
    *g = got;
    return true;
  }
  if (seq_next_group_ < view_.base->num_groups()) {
    *g = seq_next_group_++;
    return true;
  }
  return false;
}

int ScanOp::PeekNextGroupId(int ahead) const {
  if (opts_.morsels != nullptr) {
    const int g = opts_.morsels->PeekNext();
    return g < 0 ? -1 : g + ahead;  // advisory: other workers claim too
  }
  // Cooperative scheduling: the relevance policy picks the group at claim
  // time, so there is nothing sound to peek.
  if (opts_.scheduler != nullptr) return -1;
  return seq_next_group_ + ahead;
}

void ScanOp::PrefetchNextGroup() {
  if (ctx_->buffers == nullptr || !buffers_->prefetch_enabled()) return;
  // Two groups of lookahead: one group overlaps fully only while decode
  // time exceeds device time; the second absorbs the jitter when the two
  // are balanced. Prefetch() itself skips resident/in-flight blocks and
  // the budget gate bounds what actually issues, so re-requesting the
  // same window every group is cheap and retries reads the budget
  // refused last time.
  for (int ahead = 0; ahead < 2; ahead++) {
    const int g = PeekNextGroupId(ahead);
    if (g < 0 || g >= view_.base->num_groups()) continue;
    if (!GroupCanMatch(g)) continue;  // MinMax will skip it: no IO to hide
    const GroupMeta& gm = view_.base->group(g);
    if (view_.base->layout() == Layout::kPax) {
      for (BlockId b : gm.pax_blocks) buffers_->Prefetch(b, ctx_->scheduler);
      continue;
    }
    for (int c : opts_.columns) {
      const ColumnChunkMeta& cm = gm.cols[c];
      for (BlockId b : cm.loc.blocks) buffers_->Prefetch(b, ctx_->scheduler);
      for (BlockId b : cm.null_loc.blocks) {
        buffers_->Prefetch(b, ctx_->scheduler);
      }
    }
  }
}

Status ScanOp::LoadGroup(int g) {
  // Overlap: start the upcoming groups' block reads in the background
  // BEFORE this group's demand pins. This group's blocks were (usually)
  // prefetched a cycle ago and sit at the front of the read-ahead FIFO,
  // so issuing the next window first costs the demand path nothing — but
  // issuing it only after the decode below leaves the device idle for
  // exactly that decode time, every group.
  PrefetchNextGroup();
  const GroupMeta& gm = view_.base->group(g);
  const int rows = static_cast<int>(gm.rows);
  for (size_t k = 0; k < opts_.columns.size(); k++) {
    const int c = opts_.columns[k];
    GroupCol& gc = group_cols_[k];
    const TypeId t = view_.base->schema().field(c).type;
    gc.data.resize(static_cast<size_t>(rows) * TypeWidth(t));
    const bool nullable = view_.base->schema().field(c).nullable;
    gc.has_nulls = nullable;
    gc.nulls.assign(nullable ? rows : 0, 0);
    if (t == TypeId::kStr) {
      gc.heap = std::make_unique<StringHeap>();
    }
    X100_RETURN_IF_ERROR(reader_->ReadColumn(
        g, c, gc.data.data(), nullable ? gc.nulls.data() : nullptr,
        gc.heap.get(), ctx_->cancel));
  }
  // Merge plan: visible slots for this group's SID range.
  segments_.clear();
  seg_idx_ = 0;
  seg_off_ = 0;
  const int64_t lo = gm.first_sid, hi = gm.first_sid + gm.rows;
  view_.ForEachVisible(
      lo, hi, /*include_tail=*/false,
      [&](int64_t a, int64_t b) {
        Segment s;
        s.is_run = true;
        s.a = a - lo;
        s.b = b - lo;
        segments_.push_back(std::move(s));
      },
      [&](const VisibleSlot& vs) {
        Segment s;
        s.is_run = false;
        s.slot.is_insert = vs.is_insert;
        s.slot.local = vs.sid - lo;
        s.slot.row = vs.row;
        s.slot.mods = vs.mods;
        segments_.push_back(std::move(s));
      });
  return Status::OK();
}

Status ScanOp::LoadTail() {
  segments_.clear();
  seg_idx_ = 0;
  seg_off_ = 0;
  const int64_t n = view_.base_rows();
  view_.ForEachVisible(
      n, n, /*include_tail=*/true, [](int64_t, int64_t) {},
      [&](const VisibleSlot& vs) {
        Segment s;
        s.is_run = false;
        s.slot.is_insert = vs.is_insert;
        s.slot.local = -1;
        s.slot.row = vs.row;
        s.slot.mods = vs.mods;
        segments_.push_back(std::move(s));
      });
  return Status::OK();
}

void ScanOp::FillFromRun(int64_t a, int64_t b, int count, int out_base) {
  (void)b;
  for (size_t k = 0; k < opts_.columns.size(); k++) {
    GroupCol& gc = group_cols_[k];
    Vector* out = out_->column(static_cast<int>(k));
    const TypeId t = out->type();
    const int w = TypeWidth(t);
    if (t == TypeId::kStr) {
      // Share the group heap's bytes: the batch is consumed before the
      // group buffers are replaced (operator batch-lifetime contract).
      const StrRef* in = reinterpret_cast<const StrRef*>(gc.data.data());
      StrRef* o = out->Data<StrRef>();
      for (int i = 0; i < count; i++) o[out_base + i] = in[a + i];
    } else {
      std::memcpy(static_cast<uint8_t*>(out->RawData()) +
                      static_cast<size_t>(out_base) * w,
                  gc.data.data() + static_cast<size_t>(a) * w,
                  static_cast<size_t>(count) * w);
    }
    if (gc.has_nulls) {
      bool any = false;
      for (int i = 0; i < count && !any; i++) any = gc.nulls[a + i] != 0;
      if (any || out->has_nulls()) {
        uint8_t* on = out->MutableNulls();
        std::memcpy(on + out_base, gc.nulls.data() + a, count);
      }
    } else if (out->has_nulls()) {
      std::memset(out->MutableNulls() + out_base, 0, count);
    }
  }
}

Status ScanOp::FillFromSlot(const Slot& slot, int out_base) {
  for (size_t k = 0; k < opts_.columns.size(); k++) {
    const int c = opts_.columns[k];
    Vector* out = out_->column(static_cast<int>(k));
    // Mods override; otherwise inserts supply values, stable rows come
    // from the decoded group buffers.
    const Value* override_v = nullptr;
    for (const auto& [mc, v] : slot.mods) {
      if (mc == c) override_v = v;  // last (upper layer) wins
    }
    const Value* src = nullptr;
    if (override_v != nullptr) {
      src = override_v;
    } else if (slot.is_insert) {
      if (c >= static_cast<int>(slot.row->values.size())) {
        return Status::Internal("insert row arity below column index");
      }
      src = &slot.row->values[c];
    }
    if (src != nullptr) {
      if (src->is_null()) {
        out->SetNull(out_base);
        continue;
      }
      switch (out->type()) {
        case TypeId::kBool:
          out->Data<uint8_t>()[out_base] = src->AsBool() ? 1 : 0;
          break;
        case TypeId::kI8:
          out->Data<int8_t>()[out_base] = static_cast<int8_t>(src->AsI64());
          break;
        case TypeId::kI16:
          out->Data<int16_t>()[out_base] =
              static_cast<int16_t>(src->AsI64());
          break;
        case TypeId::kI32:
        case TypeId::kDate:
          out->Data<int32_t>()[out_base] =
              static_cast<int32_t>(src->AsI64());
          break;
        case TypeId::kI64:
          out->Data<int64_t>()[out_base] = src->AsI64();
          break;
        case TypeId::kF64:
          out->Data<double>()[out_base] = src->AsF64();
          break;
        case TypeId::kStr:
          out->Data<StrRef>()[out_base] = out->heap()->Add(src->AsStr());
          break;
      }
      if (out->has_nulls()) out->MutableNulls()[out_base] = 0;
    } else {
      // Unmodified stable cell: copy from the decoded group buffer.
      GroupCol& gc = group_cols_[k];
      if (gc.has_nulls && gc.nulls[slot.local]) {
        out->SetNull(out_base);
        continue;
      }
      if (out->type() == TypeId::kStr) {
        out->Data<StrRef>()[out_base] =
            reinterpret_cast<const StrRef*>(gc.data.data())[slot.local];
      } else {
        const int w = TypeWidth(out->type());
        std::memcpy(static_cast<uint8_t*>(out->RawData()) +
                        static_cast<size_t>(out_base) * w,
                    gc.data.data() + static_cast<size_t>(slot.local) * w, w);
      }
      if (out->has_nulls()) out->MutableNulls()[out_base] = 0;
    }
  }
  return Status::OK();
}

Result<Batch*> ScanOp::NextImpl() {
  if (!opened_) return Status::Internal("scan not opened");
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  if (eos_) return nullptr;
  out_->Reset();
  int filled = 0;

  while (filled < ctx_->vector_size) {
    if (seg_idx_ >= segments_.size()) {
      if (filled > 0) break;  // deliver what we have before switching group
      int g;
      if (NextGroupId(&g)) {
        if (!GroupCanMatch(g)) {
          groups_skipped_++;
          ctx_->groups_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        X100_RETURN_IF_ERROR(ctx_->CheckCancel());
        X100_RETURN_IF_ERROR(LoadGroup(g));
        continue;
      }
      if (!tail_done_) {
        tail_done_ = true;
        // Morsel-driven scans race for the tail; exactly one clone merges
        // the in-memory inserts.
        const bool tail_mine =
            opts_.morsels == nullptr || opts_.morsels->ClaimTail();
        if (tail_mine) {
          X100_RETURN_IF_ERROR(LoadTail());
          continue;
        }
      }
      eos_ = true;
      break;
    }
    Segment& seg = segments_[seg_idx_];
    if (seg.is_run) {
      const int64_t remaining = (seg.b - seg.a) - seg_off_;
      const int take = static_cast<int>(
          std::min<int64_t>(remaining, ctx_->vector_size - filled));
      FillFromRun(seg.a + seg_off_, seg.a + seg_off_ + take, take, filled);
      filled += take;
      seg_off_ += take;
      if (seg_off_ >= seg.b - seg.a) {
        seg_idx_++;
        seg_off_ = 0;
      }
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
