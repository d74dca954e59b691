// ScanOp: vectorized table scan over a TableView (base image + PDT stack),
// with MinMax pushdown. Groups come from a MorselSource: one shared by the
// parallel clones of a logical scan, or the scan's own. Each scanned
// column is decoded a vector at a time by a ColumnCursor straight into the
// output batch.
#ifndef X100_EXEC_SCAN_H_
#define X100_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "pdt/view.h"
#include "storage/morsel.h"
#include "storage/table.h"

namespace x100 {

/// A pushed-down range predicate used only for group skipping.
struct ScanPredicate {
  int table_col;
  RangeOp op;
  Value value;
};

struct ScanOptions {
  /// Columns of the base table to produce, in output order.
  std::vector<int> columns;
  /// MinMax pushdown predicates (IO elision only; exact filtering is the
  /// SelectOp's job).
  std::vector<ScanPredicate> predicates;
  /// Morsel-driven parallel scan: all producer clones of one logical scan
  /// share a MorselSource and pull block groups dynamically. The clone
  /// that wins ClaimTail() merges the PDT tail inserts. nullptr = the scan
  /// makes its own, walking the groups in order.
  MorselSourcePtr morsels;
};

class ScanOp : public Operator {
 public:
  /// `pdt_owner` keeps the view's PDT layers alive for the scan duration
  /// (pass {} for views over plain tables).
  ScanOp(TableView view, std::shared_ptr<const Pdt> pdt_owner,
         BufferManager* buffers, ScanOptions opts);
  ~ScanOp() override { CloseImpl(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override { return out_schema_; }
  std::string name() const override { return "Scan"; }

  /// Groups skipped by MinMax pushdown (exposed for tests/benches).
  int64_t groups_skipped() const { return groups_skipped_; }

 private:
  // The merge plan of the current group: a clean run of group-local
  // stable rows [a, b), or one visible slot.
  struct Segment {
    bool is_run = false;
    int64_t a = 0, b = 0;
    VisibleSlot slot;
  };

  Status LoadGroup(int g);  // open the cursors + build merge segments
  /// The merge plan of stable rows [lo, hi) (plus the tail inserts): clean
  /// runs and single visible slots, in SID order.
  void BuildSegments(int64_t lo, int64_t hi, bool tail);
  /// Read-ahead: issue background reads for the next two groups' block
  /// regions (PAX) or scanned-column runs (DSM) so their IO overlaps this
  /// group's decode+merge. No-op without ctx->buffers or when the pool's
  /// prefetch budget is 0 — directly-built test plans keep exact
  /// synchronous IO counts.
  void PrefetchNextGroup();
  /// Moves every cursor to group-local stable row `local`.
  Status SkipTo(int64_t local);
  /// Decodes the next n stable rows into the batch at `out_base`.
  Status ReadRows(int n, int out_base);
  Status FillFromSlot(const VisibleSlot& slot, int out_base);
  bool GroupCanMatch(int g) const;

  TableView view_;
  std::shared_ptr<const Pdt> pdt_owner_;
  BufferManager* buffers_;
  ScanOptions opts_;
  Schema out_schema_;
  ExecContext* ctx_ = nullptr;

  std::unique_ptr<Batch> out_;
  // One cursor per scanned column, re-opened for each group.
  std::vector<std::unique_ptr<ColumnCursor>> cursors_;
  std::vector<uint8_t> null_scratch_;  // a vector of null flags
  int64_t group_pos_ = 0;  // the cursors' group-local stable row
  std::vector<Segment> segments_;
  int64_t seg_lo_ = 0;  // SID of the plan's first stable row
  size_t seg_idx_ = 0;

  bool tail_done_ = false;
  bool eos_ = false;
  bool opened_ = false;
  int64_t groups_skipped_ = 0;
};

}  // namespace x100

#endif  // X100_EXEC_SCAN_H_
