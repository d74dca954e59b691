#include "pdt/view.h"

#include <algorithm>
#include <set>

namespace x100 {

int64_t TableView::visible_rows() const {
  int64_t rows = base_rows();
  for (const Pdt* layer : layers) {
    rows += layer->visible_rows() - layer->base_rows();
    rows -= static_cast<int64_t>(layer->deleted_lower_iids().size());
  }
  return rows;
}

namespace {

/// Sorted union of delta SIDs of all layers within [lo, hi].
std::vector<int64_t> DeltaSids(const std::vector<const Pdt*>& layers,
                               int64_t lo, int64_t hi_inclusive) {
  std::set<int64_t> sids;
  for (const Pdt* layer : layers) {
    layer->ForEachDelta(lo, hi_inclusive + 1,
                        [&](int64_t sid, const PdtDelta&) {
                          sids.insert(sid);
                        });
  }
  return std::vector<int64_t>(sids.begin(), sids.end());
}

}  // namespace

void TableView::ForEachVisible(
    int64_t lo_sid, int64_t hi_sid, bool include_tail,
    const std::function<void(int64_t, int64_t)>& on_clean_run,
    const std::function<void(const VisibleSlot&)>& on_slot) const {
  const int64_t delta_hi = include_tail ? hi_sid : hi_sid - 1;
  const std::vector<int64_t> sids = DeltaSids(layers, lo_sid, delta_hi);
  const int L = static_cast<int>(layers.size());

  int64_t run_start = lo_sid;
  auto flush_run = [&](int64_t end) {
    if (run_start < end) on_clean_run(run_start, end);
  };

  for (int64_t sid : sids) {
    flush_run(std::min(sid, hi_sid));
    // Merge the anchor's inserts across layers: each layer's list order is
    // kept; a row with a before_iid constraint splices in ahead of its
    // target (typically a lower-layer insert it was positioned before).
    std::vector<std::pair<const InsertedRow*, int>> merged;
    for (int l = 0; l < L; l++) {
      const PdtDelta* d = layers[l]->FindDelta(sid);
      if (d == nullptr) continue;
      for (const InsertedRow& row : d->inserts) {
        size_t pos = merged.size();
        if (row.before_iid != 0) {
          for (size_t k = 0; k < merged.size(); k++) {
            if (merged[k].first->iid == row.before_iid) {
              pos = k;
              break;
            }
          }
        }
        merged.insert(merged.begin() + pos, {&row, l});
      }
    }
    // Emit: an insert from layer l survives unless a layer above deleted
    // its iid; mods from layers above are attached.
    for (const auto& [row, l] : merged) {
      bool deleted = false;
      VisibleSlot slot;
      slot.is_insert = true;
      slot.sid = sid;
      slot.row = row;
      for (int u = l + 1; u < L && !deleted; u++) {
        if (layers[u]->IsLowerInsertDeleted(row->iid)) deleted = true;
        const auto* mods = layers[u]->LowerInsertMods(row->iid);
        if (mods != nullptr) {
          for (const auto& [col, v] : *mods) slot.mods.emplace_back(col, &v);
        }
      }
      if (!deleted) on_slot(slot);
    }
    // The stable row at `sid` (absent for the tail anchor).
    if (sid < hi_sid) {
      bool deleted = false;
      VisibleSlot slot;
      slot.sid = sid;
      for (int l = 0; l < L; l++) {
        const PdtDelta* d = layers[l]->FindDelta(sid);
        if (d == nullptr) continue;
        if (d->del_stable) {
          deleted = true;
          break;
        }
        for (const auto& [col, v] : d->mods) slot.mods.emplace_back(col, &v);
      }
      if (!deleted) {
        if (slot.mods.empty()) {
          // Clean stable row at a delta anchor (inserts only): let it join
          // the following clean run.
          run_start = sid;
          continue;
        }
        on_slot(slot);
      }
      run_start = sid + 1;
    } else {
      run_start = hi_sid;
    }
  }
  flush_run(hi_sid);
}

Result<TableView::StackLocator> TableView::Locate(int64_t rid) const {
  if (rid < 0 || rid >= visible_rows()) {
    return Status::OutOfRange("rid " + std::to_string(rid) +
                              " outside stacked image");
  }
  const int64_t n = base_rows();
  StackLocator out;
  int64_t count = 0;
  bool found = false;
  // Single merge pass; clean runs are skipped in bulk.
  ForEachVisible(
      0, n, /*include_tail=*/true,
      [&](int64_t a, int64_t b) {
        if (found) return;
        if (rid < count + (b - a)) {
          out.layer = -1;
          out.loc.is_insert = false;
          out.loc.sid = a + (rid - count);
          found = true;
        }
        count += b - a;
      },
      [&](const VisibleSlot& slot) {
        if (found) return;
        if (count == rid) {
          if (slot.is_insert) {
            // Which layer owns this iid?
            for (int l = 0; l < static_cast<int>(layers.size()); l++) {
              const PdtDelta* d = layers[l]->FindDelta(slot.sid);
              if (d == nullptr) continue;
              for (int idx = 0; idx < static_cast<int>(d->inserts.size());
                   idx++) {
                if (d->inserts[idx].iid == slot.row->iid) {
                  out.layer = l;
                  out.loc.is_insert = true;
                  out.loc.sid = slot.sid;
                  out.loc.index = idx;
                  out.loc.iid = slot.row->iid;
                  found = true;
                  return;
                }
              }
            }
          } else {
            out.layer = -1;
            out.loc.is_insert = false;
            out.loc.sid = slot.sid;
            found = true;
          }
        }
        count++;
      });
  if (!found) return Status::Internal("stacked locate failed");
  return out;
}

Result<std::vector<Value>> ReadStableRow(
    const Table* base, TableReader* reader, int64_t sid,
    const std::vector<std::pair<int, const Value*>>& mods) {
  if (base == nullptr || reader == nullptr) {
    return Status::InvalidArgument("stable row read requires a base table");
  }
  // Locate the group containing `sid`.
  int g = -1;
  for (int i = 0; i < base->num_groups(); i++) {
    const GroupMeta& gm = base->group(i);
    if (sid >= gm.first_sid && sid < gm.first_sid + gm.rows) {
      g = i;
      break;
    }
  }
  if (g < 0) return Status::OutOfRange("sid outside table");
  const GroupMeta& gm = base->group(g);
  Batch decoded(base->schema(), static_cast<int>(gm.rows));
  X100_RETURN_IF_ERROR(reader->ReadGroup(g, &decoded));
  const int off = static_cast<int>(sid - gm.first_sid);
  std::vector<Value> row;
  row.reserve(decoded.num_columns());
  for (int c = 0; c < decoded.num_columns(); c++) {
    row.push_back(decoded.column(c)->GetValue(off));
  }
  for (const auto& [col, v] : mods) row[col] = *v;
  return row;
}

Result<std::vector<Value>> TableView::ReadRow(int64_t rid,
                                              TableReader* reader) const {
  StackLocator sl;
  X100_ASSIGN_OR_RETURN(sl, Locate(rid));
  if (sl.layer >= 0) {
    const PdtDelta* d = layers[sl.layer]->FindDelta(sl.loc.sid);
    if (d == nullptr) return Status::Internal("insert delta vanished");
    std::vector<Value> row = d->inserts[sl.loc.index].values;
    // Apply upper-layer mods.
    for (int u = sl.layer + 1; u < static_cast<int>(layers.size()); u++) {
      const auto* mods = layers[u]->LowerInsertMods(sl.loc.iid);
      if (mods != nullptr) {
        for (const auto& [col, v] : *mods) row[col] = v;
      }
    }
    return row;
  }
  // Stable: gather mods bottom-to-top.
  std::vector<std::pair<int, const Value*>> mods;
  for (const Pdt* layer : layers) {
    const PdtDelta* d = layer->FindDelta(sl.loc.sid);
    if (d != nullptr) {
      for (const auto& [col, v] : d->mods) mods.emplace_back(col, &v);
    }
  }
  return ReadStableRow(base, reader, sl.loc.sid, mods);
}

}  // namespace x100
