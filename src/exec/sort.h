// SortOp: the pipeline sink for ORDER BY — full materializing sort and
// bounded top-N. The documented engine order (CompareCells in
// vector/vector.h): NULLs order last ascending, first descending; an f64
// NaN orders after every number and before NULL ascending, mirrored
// descending (NULL, then NaN, then the numbers); -0.0 ties 0.0.
//
// Per-worker sorted runs built by the input chains' drains (DrainChains
// in exec/operator.h), merged at the pipeline barrier (docs/EXECUTION.md).
// Each of the N >= 1 input chains (clones of a morsel-parallel input, or
// one chain over a non-clonable input such as an aggregation) is drained
// into its own run, sorted on the chain's thread when the chain ends. A
// single chain whose rows all stayed resident is range-split after the
// barrier and its ranges sorted by parallel tasks. A LIMIT truncates each run to the limit
// before the merge, so top-N never materializes more than runs x limit
// rows for the merge phase.
//
// Out-of-core (docs/EXECUTION.md §"Memory accounting & spill"): when a
// drain worker's memory reservation fails it sorts what it holds and
// writes it as a SPILLED RUN — a SpillRun of rows in sorted order, so the
// merge can stream it a chunk at a time — then continues with an empty
// buffer. The k-way merge treats resident and spilled runs uniformly:
// resident runs iterate their sorted index, spilled runs hold one
// reloaded chunk at a time, so emit-phase memory is bounded by (resident
// rows + one chunk per spilled run). With spilling disabled a failed
// reservation surfaces kResourceExhausted through the pipeline's
// cancellation machinery.
#ifndef X100_EXEC_SORT_H_
#define X100_EXEC_SORT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/operator.h"
#include "storage/spill_file.h"
#include "vector/row_buffer.h"

namespace x100 {

struct SortKey {
  int col;
  bool ascending = true;
};

/// One sorted run. Exactly one representation is populated:
///  * resident — `order` indexes into `rows` (range-split runs of a
///    single materialized input share one buffer);
///  * spilled  — `spill` holds the rows in sorted order.
struct SortRun {
  const RowBuffer* rows = nullptr;
  std::vector<int64_t> order;
  SpillRun spill;

  bool spilled() const { return !spill.empty(); }
};

/// Streaming k-way merge over SortOp's sorted runs. Spilling makes k
/// large (a worker squeezed by other breakers spills a run per few
/// batches), so the next row is chosen by a tree of losers (Knuth, TAOCP
/// vol. 3, §5.4.1): ceil(log2 k) compares per row. Ties pick the lowest
/// run index, so the output is a stable merge of the runs in run order.
/// Spilled runs stream chunk-by-chunk from disk; the resident chunk is
/// force-charged against the query tracker and released when the cursor
/// advances past it.
class SortRunMerger {
 public:
  /// `limit` < 0: merge everything; otherwise stop after `limit` rows.
  Status Init(const Schema* schema, const std::vector<SortKey>* keys,
              int64_t limit, ExecContext* ctx, std::vector<SortRun>* runs);

  /// Gathers up to `out`'s capacity rows in merge order; `*n` = 0 at end
  /// of stream.
  Status NextBatch(Batch* out, int* n);

 private:
  struct Cursor {
    SortRun* run = nullptr;
    size_t pos = 0;                          // resident: index into order
    size_t chunk = 0;                        // spilled: next chunk to load
    std::unique_ptr<RowBuffer> chunk_rows;   // spilled: resident chunk
    int64_t chunk_pos = 0;                   // spilled: row within chunk
    std::vector<Cells> key_cells;            // the current buffer's keys
    MemoryReservation mem;
    bool done = false;
  };

  /// Loads the cursor's next spilled chunk (releasing the previous one);
  /// marks the cursor done when chunks are exhausted.
  Status AdvanceChunk(Cursor* c);
  /// Current row of a cursor; false when the cursor is exhausted.
  bool CurrentRow(const Cursor& c, const RowBuffer** rows,
                  int64_t* row) const;
  /// Whether cursor a's current row merges before cursor b's: by key,
  /// then by run index; an exhausted cursor after every live one.
  bool Before(int a, int b) const;
  /// Replays the matches on cursor w's path after its row changed.
  void Replay(int w);

  const Schema* schema_ = nullptr;
  const std::vector<SortKey>* keys_ = nullptr;
  int64_t limit_ = -1;
  int64_t emitted_ = 0;
  ExecContext* ctx_ = nullptr;
  std::vector<Cursor> cursors_;
  /// The tree of losers over k cursors: cursor i is leaf k + i, internal
  /// node j in [1, k) holds the loser of the match played there (children
  /// 2j and 2j + 1), and tree_[0] the winner — the next row to emit.
  std::vector<int> tree_;
  std::vector<int64_t> picks_;  // NextBatch: row picked per output position
};

class SortOp : public Operator {
 public:
  /// `chains`: >= 1 input chains (clones sharing morsel sources / join
  /// build states underneath). `split_ways` bounds the range-sort tasks
  /// of a single chain whose rows stayed resident; with multiple chains
  /// it is ignored (one run per chain). limit < 0: full sort; otherwise
  /// top-`limit` rows.
  SortOp(std::vector<OperatorPtr> chains, std::vector<SortKey> keys,
         int64_t limit = -1, int split_ways = 1);
  ~SortOp() override { Close(); }

  Status OpenImpl(ExecContext* ctx) override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  const Schema& output_schema() const override {
    return chains_[0]->output_schema();
  }
  std::string name() const override {
    return (limit_ < 0 ? "Sort(" : "TopN(") + std::to_string(num_runs()) +
           ")";
  }

 private:
  /// Planned width before the pipeline ran; the achieved run count after
  /// (a range-split sort caps its ways by the data size, and spilling
  /// adds runs, so the profile must report what actually executed).
  int num_runs() const {
    if (materialized_) return static_cast<int>(runs_.size());
    return chains_.size() > 1 ? static_cast<int>(chains_.size())
                              : split_ways_;
  }
  /// Phase 1: drain the input chains into per-worker buffers + sorted
  /// runs (scheduler tasks, barrier), spilling sorted runs under memory
  /// pressure; a lone resident chain is then range-sorted in parallel.
  /// Phase 2 is the streaming merge in NextImpl.
  Status Materialize();

  std::vector<OperatorPtr> chains_;
  std::vector<SortKey> keys_;
  int64_t limit_;
  int split_ways_;
  ExecContext* ctx_ = nullptr;

  std::vector<std::unique_ptr<RowBuffer>> buffers_;  // one per worker
  std::vector<MemoryReservation> buffer_mem_;
  std::vector<SortRun> runs_;
  SortRunMerger merger_;
  bool materialized_ = false;
  std::unique_ptr<Batch> out_;
};

}  // namespace x100

#endif  // X100_EXEC_SORT_H_
