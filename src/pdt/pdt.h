// Positional Delta Trees — differential updates for column stores.
//
// Paper §1: "column-friendly differential update schemes (PDTs [2]) were
// devised"; §"Transactions": "Transactions in Vectorwise are based on
// Positional Delta Trees."
//
// A PDT records inserts / deletes / modifies against an *immutable* stable
// table image, keyed by SID (the row's position in that image). Because
// deltas are positional — not keyed by value — merging them into a scan is
// a synchronized positional walk: no per-row hash probes or key
// comparisons (experiment E5 quantifies this against a value-keyed delta
// baseline).
//
// Two position spaces:
//  * SID: position in the stable image, 0..base_rows (base_rows = append).
//  * RID: position in the *visible* image (stable image + this PDT).
// Fenwick trees over SID-space give O(log n) SID->RID arithmetic and
// O(log^2 n) RID->locate.
//
// The Fenwick counters are blocked (pdt/fenwick.h): a dense tree over
// 4,096-SID blocks plus a tree per block allocated on the first insert or
// delete in it. A PDT without deltas — every table's read-PDT until it is
// updated, each fresh write-PDT — costs about base_rows/64 bytes of
// counters; each touched block adds 32 KiB per tree (inserts and deletes
// count separately). Clone copies only the allocated blocks.
//
// Transactions stack PDTs (read-PDT / write-PDT — transaction.h); inserted
// rows carry a unique iid so an upper layer can delete or modify a lower
// layer's insert.
#ifndef X100_PDT_PDT_H_
#define X100_PDT_PDT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "pdt/fenwick.h"

namespace x100 {

/// A row added by an update, with a process-unique id.
struct InsertedRow {
  uint64_t iid = 0;
  /// Ordering constraint among inserts anchored at the same SID: this row
  /// precedes the (lower-layer or earlier) insert with iid `before_iid`.
  /// 0 = no constraint (row sits at the end of the anchor's insert list,
  /// immediately before the stable row).
  uint64_t before_iid = 0;
  std::vector<Value> values;
};

/// All deltas anchored at one SID.
struct PdtDelta {
  /// Rows inserted *before* stable row `sid` (append uses sid==base_rows).
  std::vector<InsertedRow> inserts;
  /// Stable row `sid` is deleted.
  bool del_stable = false;
  /// Column modifications of stable row `sid`.
  std::map<int, Value> mods;
};

class Pdt {
 public:
  explicit Pdt(int64_t base_rows);

  int64_t base_rows() const { return base_rows_; }
  /// Rows in the visible image defined by (stable image + this PDT).
  int64_t visible_rows() const;
  /// Number of SIDs carrying deltas.
  int64_t num_delta_sids() const {
    return static_cast<int64_t>(by_sid_.size());
  }
  bool empty() const {
    return by_sid_.empty() && deleted_iids_.empty() && mod_iids_.empty();
  }

  // ---- RID-space update API (single-layer view) ---------------------------

  /// Inserts `row` so it becomes the row at position `rid`
  /// (rid == visible_rows() appends). Returns the new row's iid.
  Result<uint64_t> InsertAt(int64_t rid, std::vector<Value> row);

  /// Deletes the visible row at `rid` (stable row or own insert).
  Status DeleteAt(int64_t rid);

  /// Sets column `col` of the visible row at `rid`.
  Status ModifyAt(int64_t rid, int col, Value v);

  // ---- SID/iid-space API (commit replay, stacked transactions) ------------

  /// Appends an insert anchored at `sid` (0..base_rows).
  Status InsertAtSid(int64_t sid, InsertedRow row, int at_index = -1);
  Status DeleteStable(int64_t sid);
  Status ModifyStable(int64_t sid, int col, Value v);
  /// Deletes / modifies an insert of *this* layer by iid.
  Status DeleteOwnInsert(uint64_t iid);
  Status ModifyOwnInsert(uint64_t iid, int col, Value v);
  /// Records a delete / modify of a *lower* layer's insert.
  void DeleteLowerInsert(uint64_t iid);
  void ModifyLowerInsert(uint64_t iid, int col, Value v);

  /// Own insert by iid (nullptr if absent) — ordering resolution in
  /// stacked transactions.
  const InsertedRow* GetOwnInsert(uint64_t iid) const;

  bool IsStableDeleted(int64_t sid) const;
  bool IsLowerInsertDeleted(uint64_t iid) const {
    return deleted_iids_.count(iid) != 0;
  }
  const std::map<int, Value>* LowerInsertMods(uint64_t iid) const {
    auto it = mod_iids_.find(iid);
    return it == mod_iids_.end() ? nullptr : &it->second;
  }
  const std::unordered_set<uint64_t>& deleted_lower_iids() const {
    return deleted_iids_;
  }
  const std::unordered_map<uint64_t, std::map<int, Value>>& lower_iid_mods()
      const {
    return mod_iids_;
  }

  // ---- lookup / merge support ----------------------------------------------

  struct Locator {
    bool is_insert = false;
    int64_t sid = 0;   // stable sid, or anchor sid of the insert
    int index = 0;     // index within the insert list
    uint64_t iid = 0;  // iid of the insert
  };
  /// Maps a visible-image RID to its row (stable or inserted).
  Result<Locator> Locate(int64_t rid) const;

  /// RID of stable row `sid`, or -1 when it is deleted.
  int64_t RidOfStable(int64_t sid) const;

  const PdtDelta* FindDelta(int64_t sid) const;

  /// Invokes fn(sid, delta) for every delta SID in [lo, hi), ascending.
  void ForEachDelta(int64_t lo, int64_t hi,
                    const std::function<void(int64_t, const PdtDelta&)>& fn)
      const;

  /// True when any delta SID lies in [lo, hi). One map probe — the
  /// early-exit test MinMax skipping needs (a scan asks this once per
  /// block group; ForEachDelta would walk every delta in the range just
  /// to learn "at least one").
  bool HasDeltaIn(int64_t lo, int64_t hi) const {
    const auto it = by_sid_.lower_bound(lo);
    return it != by_sid_.end() && it->first < hi;
  }

  /// Deep copy (clone-on-commit snapshot isolation, transaction.h).
  std::unique_ptr<Pdt> Clone() const;

  /// Counter blocks allocated across the insert and delete trees.
  int64_t allocated_counter_blocks() const {
    return ins_counts_.allocated_blocks() + del_counts_.allocated_blocks();
  }

  /// Process-unique insert-id allocator.
  static uint64_t NextIid();

 private:
  /// RID of the first visible slot anchored at `sid` (its inserts precede
  /// the stable row).
  int64_t StartRid(int64_t sid) const;
  PdtDelta& DeltaAt(int64_t sid);

  int64_t base_rows_;
  std::map<int64_t, PdtDelta> by_sid_;
  // Displacement trackers over SID-space (index sid in [0, base_rows]).
  Fenwick ins_counts_;   // inserts anchored at sid
  Fenwick del_counts_;   // stable deletes at sid
  // Cross-layer edits (target iids live in a lower PDT layer).
  std::unordered_set<uint64_t> deleted_iids_;
  std::unordered_map<uint64_t, std::map<int, Value>> mod_iids_;
  // Own-insert index: iid -> anchor sid.
  std::unordered_map<uint64_t, int64_t> iid_sid_;
};

}  // namespace x100

#endif  // X100_PDT_PDT_H_
