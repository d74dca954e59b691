// ScanOp: vectorized table scan over a TableView (base image + PDT stack),
// with MinMax pushdown and three group orders: sequential, cooperative
// scan scheduling, or a MorselSource shared by the parallel clones of one
// logical scan.
#ifndef X100_EXEC_SCAN_H_
#define X100_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "pdt/view.h"
#include "storage/buffer_manager.h"
#include "storage/coop_scan.h"
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
  /// Cooperative scan scheduler; nullptr = sequential group order.
  ScanScheduler* scheduler = nullptr;
  /// Morsel-driven parallel scan: all producer clones of one logical scan
  /// share a MorselSource and pull block groups dynamically. The clone
  /// that wins ClaimTail() merges the PDT tail inserts. Takes precedence
  /// over `scheduler`.
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
  // One visible-row source inside the current group.
  struct Slot {
    bool is_insert = false;
    int64_t local = 0;  // group-local stable index (stable rows)
    const InsertedRow* row = nullptr;
    std::vector<std::pair<int, const Value*>> mods;
  };
  struct Segment {
    bool is_run = false;
    int64_t a = 0, b = 0;  // group-local stable range (runs)
    Slot slot;             // single visible slot otherwise
  };

  Status LoadGroup(int g);      // decode columns + build merge segments
  Status LoadTail();            // inserts anchored past the last stable row
  bool NextGroupId(int* g);     // morsel/scheduler/sequential iteration
  /// The group this scan expects to load `ahead` steps from now (0 =
  /// next). -1 if unknowable, e.g. cooperative scheduling where the
  /// policy decides at claim time. May run past the table end — callers
  /// bounds-check.
  int PeekNextGroupId(int ahead) const;
  /// Read-ahead: issue background reads for the peeked upcoming groups'
  /// block regions (PAX) or scanned-column runs (DSM) so their IO
  /// overlaps this group's decode+merge. No-op without ctx->buffers or
  /// when the pool's prefetch budget is 0 — directly-built test plans
  /// keep exact synchronous IO counts.
  void PrefetchNextGroup();
  void FillFromRun(int64_t a, int64_t b, int count, int out_base);
  Status FillFromSlot(const Slot& slot, int out_base);
  bool GroupCanMatch(int g) const;

  TableView view_;
  std::shared_ptr<const Pdt> pdt_owner_;
  BufferManager* buffers_;
  ScanOptions opts_;
  Schema out_schema_;
  std::unique_ptr<TableReader> reader_;
  ExecContext* ctx_ = nullptr;

  std::unique_ptr<Batch> out_;
  // Decoded group data per selected column.
  struct GroupCol {
    std::vector<uint8_t> data;
    std::vector<uint8_t> nulls;
    bool has_nulls = false;
    std::unique_ptr<StringHeap> heap;
  };
  std::vector<GroupCol> group_cols_;
  std::vector<Segment> segments_;
  size_t seg_idx_ = 0;
  int64_t seg_off_ = 0;

  int scheduler_qid_ = -1;
  int seq_next_group_ = 0;
  bool tail_done_ = false;
  bool eos_ = false;
  bool opened_ = false;
  int64_t groups_skipped_ = 0;
};

}  // namespace x100

#endif  // X100_EXEC_SCAN_H_
