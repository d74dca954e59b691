// TableView: a stable table image plus a stack of PDT layers
// (read-PDT below, transaction write-PDT above) — the unit scans run
// against. Provides the positional merge walk used by ScanOp, Checkpoint
// and the E5 benchmark.
#ifndef X100_PDT_VIEW_H_
#define X100_PDT_VIEW_H_

#include <functional>
#include <vector>

#include "common/value.h"
#include "pdt/pdt.h"
#include "storage/table.h"

namespace x100 {

/// One visible slot produced by the merge walk.
struct VisibleSlot {
  bool is_insert = false;
  /// Stable rows: the SID. Inserts: the anchor SID.
  int64_t sid = 0;
  /// Inserts only: the row (already known to survive upper-layer deletes).
  const InsertedRow* row = nullptr;
  /// Effective column overrides, bottom-to-top (upper layers win). For
  /// clean stable rows this is empty (those come via on_clean_run instead).
  std::vector<std::pair<int, const Value*>> mods;
};

struct TableView {
  const Table* base = nullptr;
  /// Bottom (committed read-PDT) to top (transaction write-PDT). May be
  /// empty: a plain immutable table.
  std::vector<const Pdt*> layers;

  int64_t base_rows() const {
    if (!layers.empty()) return layers.front()->base_rows();
    return base ? base->num_rows() : 0;
  }

  int64_t visible_rows() const;

  /// Positional merge over SIDs in [lo_sid, hi_sid):
  ///  * on_clean_run(a, b): stable rows [a, b) with no deltas — the caller
  ///    can bulk-copy them (this is the PDT fast path).
  ///  * on_slot(slot): an inserted row, or a stable row with mods.
  /// `include_tail` additionally walks inserts anchored at hi_sid (used
  /// when hi_sid == base_rows to cover appends).
  void ForEachVisible(
      int64_t lo_sid, int64_t hi_sid, bool include_tail,
      const std::function<void(int64_t, int64_t)>& on_clean_run,
      const std::function<void(const VisibleSlot&)>& on_slot) const;

  /// Materializes the visible row at stacked-image position `rid` as
  /// Values read through `reader` (nullptr reader allowed when base has no
  /// rows). O(deltas) — used by transactions and tests, not by scans.
  Result<std::vector<Value>> ReadRow(int64_t rid, TableReader* reader) const;

  /// Stacked locate: which layer/row is at `rid`?
  struct StackLocator {
    int layer = -1;  // -1 = stable row; otherwise index into `layers`
    Pdt::Locator loc;
  };
  Result<StackLocator> Locate(int64_t rid) const;
};

/// Reads one stable row of `base` as Values (ReadRow helper). Decodes
/// the row's whole group: bulk readers use TableReader::ReadGroup.
Result<std::vector<Value>> ReadStableRow(const Table* base,
                                         TableReader* reader, int64_t sid,
                                         const std::vector<std::pair<
                                             int, const Value*>>& mods);

}  // namespace x100

#endif  // X100_PDT_VIEW_H_
