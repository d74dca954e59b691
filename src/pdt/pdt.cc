#include "pdt/pdt.h"

#include <algorithm>

namespace x100 {

Pdt::Pdt(int64_t base_rows)
    : base_rows_(base_rows),
      ins_counts_(base_rows + 1),
      del_counts_(base_rows + 1) {}

int64_t Pdt::visible_rows() const {
  return base_rows_ + ins_counts_.Total() - del_counts_.Total();
}

uint64_t Pdt::NextIid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

PdtDelta& Pdt::DeltaAt(int64_t sid) { return by_sid_[sid]; }

const PdtDelta* Pdt::FindDelta(int64_t sid) const {
  auto it = by_sid_.find(sid);
  return it == by_sid_.end() ? nullptr : &it->second;
}

int64_t Pdt::StartRid(int64_t sid) const {
  // Slots of sids < sid: stable rows (minus deletes) plus their inserts.
  return sid + ins_counts_.Prefix(sid - 1) - del_counts_.Prefix(sid - 1);
}

int64_t Pdt::RidOfStable(int64_t sid) const {
  if (IsStableDeleted(sid)) return -1;
  const PdtDelta* d = FindDelta(sid);
  const int64_t own_inserts =
      d == nullptr ? 0 : static_cast<int64_t>(d->inserts.size());
  return StartRid(sid) + own_inserts;
}

bool Pdt::IsStableDeleted(int64_t sid) const {
  const PdtDelta* d = FindDelta(sid);
  return d != nullptr && d->del_stable;
}

Result<Pdt::Locator> Pdt::Locate(int64_t rid) const {
  if (rid < 0 || rid >= visible_rows()) {
    return Status::OutOfRange("rid " + std::to_string(rid) +
                              " outside visible image of " +
                              std::to_string(visible_rows()) + " rows");
  }
  // Binary search the anchor sid: largest sid with StartRid(sid) <= rid.
  int64_t lo = 0, hi = base_rows_;  // sid range is [0, base_rows]
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo + 1) / 2;
    if (StartRid(mid) <= rid) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  // Slots anchored at `lo`: inserts first, then the stable row (if any).
  int64_t offset = rid - StartRid(lo);
  const PdtDelta* d = FindDelta(lo);
  const int64_t n_ins = d ? static_cast<int64_t>(d->inserts.size()) : 0;
  // StartRid is constant across sids with no visible slots; advance to the
  // anchor that actually owns this offset.
  int64_t sid = lo;
  while (true) {
    const PdtDelta* dd = (sid == lo) ? d : FindDelta(sid);
    const int64_t ins =
        dd ? static_cast<int64_t>(dd->inserts.size()) : 0;
    const bool stable_visible =
        sid < base_rows_ && !(dd && dd->del_stable);
    const int64_t slots = ins + (stable_visible ? 1 : 0);
    if (offset < slots) {
      if (offset < ins) {
        Locator loc;
        loc.is_insert = true;
        loc.sid = sid;
        loc.index = static_cast<int>(offset);
        loc.iid = dd->inserts[offset].iid;
        return loc;
      }
      Locator loc;
      loc.is_insert = false;
      loc.sid = sid;
      return loc;
    }
    offset -= slots;
    sid++;
    if (sid > base_rows_) {
      return Status::Internal("pdt locate overran sid space");
    }
  }
  (void)n_ins;
}

Result<uint64_t> Pdt::InsertAt(int64_t rid, std::vector<Value> row) {
  InsertedRow ins;
  ins.iid = NextIid();
  ins.values = std::move(row);
  const uint64_t iid = ins.iid;
  if (rid == visible_rows()) {  // append
    X100_RETURN_IF_ERROR(InsertAtSid(base_rows_, std::move(ins)));
    return iid;
  }
  Locator loc;
  X100_ASSIGN_OR_RETURN(loc, Locate(rid));
  // New row takes the located slot's position. When displacing an own
  // insert, record the ordering constraint so commit replay (which appends
  // in list order) reproduces the same sequence.
  if (loc.is_insert) {
    const InsertedRow* target = GetOwnInsert(loc.iid);
    ins.before_iid = (target != nullptr && target->before_iid != 0)
                         ? target->before_iid
                         : loc.iid;
  }
  X100_RETURN_IF_ERROR(InsertAtSid(loc.sid, std::move(ins),
                                   loc.is_insert ? loc.index : -1));
  return iid;
}

Status Pdt::InsertAtSid(int64_t sid, InsertedRow row, int at_index) {
  if (sid < 0 || sid > base_rows_) {
    return Status::OutOfRange("insert sid out of range");
  }
  PdtDelta& d = DeltaAt(sid);
  iid_sid_[row.iid] = sid;
  // Honor an explicit position, else a before_iid ordering constraint
  // (commit replay of stacked inserts), else append.
  int pos = -1;
  if (at_index >= 0 && at_index <= static_cast<int>(d.inserts.size())) {
    pos = at_index;
  } else if (row.before_iid != 0) {
    for (int i = 0; i < static_cast<int>(d.inserts.size()); i++) {
      if (d.inserts[i].iid == row.before_iid) {
        pos = i;
        break;
      }
    }
  }
  if (pos < 0 || pos >= static_cast<int>(d.inserts.size())) {
    d.inserts.push_back(std::move(row));
  } else {
    d.inserts.insert(d.inserts.begin() + pos, std::move(row));
  }
  ins_counts_.Add(sid, 1);
  return Status::OK();
}

const InsertedRow* Pdt::GetOwnInsert(uint64_t iid) const {
  auto it = iid_sid_.find(iid);
  if (it == iid_sid_.end()) return nullptr;
  const PdtDelta* d = FindDelta(it->second);
  if (d == nullptr) return nullptr;
  for (const InsertedRow& r : d->inserts) {
    if (r.iid == iid) return &r;
  }
  return nullptr;
}

Status Pdt::DeleteAt(int64_t rid) {
  Locator loc;
  X100_ASSIGN_OR_RETURN(loc, Locate(rid));
  if (loc.is_insert) return DeleteOwnInsert(loc.iid);
  return DeleteStable(loc.sid);
}

Status Pdt::DeleteStable(int64_t sid) {
  if (sid < 0 || sid >= base_rows_) {
    return Status::OutOfRange("delete sid out of range");
  }
  PdtDelta& d = DeltaAt(sid);
  if (d.del_stable) {
    return Status::InvalidArgument("stable row already deleted");
  }
  d.del_stable = true;
  d.mods.clear();  // mods of a deleted row are moot
  del_counts_.Add(sid, 1);
  return Status::OK();
}

Status Pdt::DeleteOwnInsert(uint64_t iid) {
  auto it = iid_sid_.find(iid);
  if (it == iid_sid_.end()) {
    return Status::NotFound("insert iid not in this layer");
  }
  const int64_t sid = it->second;
  PdtDelta& d = DeltaAt(sid);
  auto pos = std::find_if(d.inserts.begin(), d.inserts.end(),
                          [&](const InsertedRow& r) { return r.iid == iid; });
  if (pos == d.inserts.end()) return Status::Internal("iid index stale");
  d.inserts.erase(pos);
  iid_sid_.erase(it);
  ins_counts_.Add(sid, -1);
  if (d.inserts.empty() && !d.del_stable && d.mods.empty()) {
    by_sid_.erase(sid);
  }
  return Status::OK();
}

Status Pdt::ModifyAt(int64_t rid, int col, Value v) {
  Locator loc;
  X100_ASSIGN_OR_RETURN(loc, Locate(rid));
  if (loc.is_insert) return ModifyOwnInsert(loc.iid, col, std::move(v));
  return ModifyStable(loc.sid, col, std::move(v));
}

Status Pdt::ModifyStable(int64_t sid, int col, Value v) {
  if (sid < 0 || sid >= base_rows_) {
    return Status::OutOfRange("modify sid out of range");
  }
  PdtDelta& d = DeltaAt(sid);
  if (d.del_stable) return Status::InvalidArgument("row is deleted");
  d.mods[col] = std::move(v);
  return Status::OK();
}

Status Pdt::ModifyOwnInsert(uint64_t iid, int col, Value v) {
  auto it = iid_sid_.find(iid);
  if (it == iid_sid_.end()) {
    return Status::NotFound("insert iid not in this layer");
  }
  PdtDelta& d = DeltaAt(it->second);
  for (InsertedRow& r : d.inserts) {
    if (r.iid == iid) {
      if (col < 0 || col >= static_cast<int>(r.values.size())) {
        return Status::OutOfRange("modify column out of range");
      }
      r.values[col] = std::move(v);
      return Status::OK();
    }
  }
  return Status::Internal("iid index stale");
}

void Pdt::DeleteLowerInsert(uint64_t iid) {
  deleted_iids_.insert(iid);
  mod_iids_.erase(iid);
}

void Pdt::ModifyLowerInsert(uint64_t iid, int col, Value v) {
  mod_iids_[iid][col] = std::move(v);
}

void Pdt::ForEachDelta(
    int64_t lo, int64_t hi,
    const std::function<void(int64_t, const PdtDelta&)>& fn) const {
  for (auto it = by_sid_.lower_bound(lo); it != by_sid_.end() && it->first < hi;
       ++it) {
    fn(it->first, it->second);
  }
}

std::unique_ptr<Pdt> Pdt::Clone() const {
  return std::make_unique<Pdt>(*this);
}

}  // namespace x100
