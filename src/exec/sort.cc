#include "exec/sort.h"

#include <algorithm>
#include <atomic>

#include "common/task_scheduler.h"

namespace x100 {

namespace {

/// The key columns of `rows` (each key's cells, in key order).
std::vector<Cells> KeyCells(const RowBuffer& rows,
                            const std::vector<SortKey>& keys) {
  std::vector<Cells> cells;
  for (const SortKey& k : keys) cells.push_back(rows.cells(k.col));
  return cells;
}

/// Keyed three-way order of row i (key columns `a`, from KeyCells) and
/// row j (`b`), from key `from` on: CompareCells per key, mirrored when
/// the key descends.
int CompareRows(const std::vector<Cells>& a, int64_t i,
                const std::vector<Cells>& b, int64_t j,
                const std::vector<SortKey>& keys, size_t from = 0) {
  for (size_t k = from; k < keys.size(); k++) {
    const int c = CompareCells(a[k], i, b[k], j);
    if (c != 0) return keys[k].ascending ? c : -c;
  }
  return 0;
}

/// Sorts `order` (indexes into `rows`) by `keys`; a non-negative limit
/// keeps only the first `limit` entries (top-N runs). The first key's
/// cell type is dispatched once per run: its typed compare decides most
/// pairs, and only its ties reach the other keys.
void SortIndexRun(const RowBuffer& rows, const std::vector<SortKey>& keys,
                  int64_t limit, std::vector<int64_t>* order) {
  const std::vector<Cells> cols = KeyCells(rows, keys);
  const auto sort = [&](auto first) {
    const auto cmp = [&](int64_t a, int64_t b) {
      int c = first(a, b);
      if (c == 0) c = CompareRows(cols, a, cols, b, keys, 1);
      return c != 0 ? c < 0 : a < b;  // stable tie-break within one run
    };
    if (limit >= 0 && limit < static_cast<int64_t>(order->size())) {
      std::partial_sort(order->begin(), order->begin() + limit,
                        order->end(), cmp);
      order->resize(limit);
    } else {
      std::sort(order->begin(), order->end(), cmp);
    }
  };
  if (keys.empty()) return sort([](int64_t, int64_t) { return 0; });
  VisitCellType(cols[0].type, [&](auto t) {
    sort([&](int64_t a, int64_t b) {
      const int c = CompareCellsAs<decltype(t)>(cols[0], a, cols[0], b);
      return keys[0].ascending ? c : -c;
    });
  });
}

/// Per-drain-worker run construction under a memory budget: batches
/// append into `*buffer` and grow `*reserv`; a failed reservation sorts
/// what the buffer holds and writes it out as a spilled run (rows in
/// sorted order), then the worker continues with an empty buffer. No
/// spill device means the failure surfaces as kResourceExhausted and
/// fails the pipeline task.
struct RunBuildState {
  const Schema* schema = nullptr;
  const std::vector<SortKey>* keys = nullptr;
  int64_t limit = -1;
  ExecContext* ctx = nullptr;
  std::unique_ptr<RowBuffer>* buffer = nullptr;  // owned by the operator
  MemoryReservation* reserv = nullptr;

  std::vector<SpillRun> spilled;

  /// The whole resident buffer is the one spill partition.
  Status Append(const Batch& b) {
    (*buffer)->Append(b.columns(), b.sel(), 0, b.ActiveRows());
    return GrowOrSpill(
        reserv, ctx->spill_device != nullptr, 1,
        [this](size_t) {
          return SpillPart{static_cast<int64_t>((*buffer)->MemoryBytes()),
                           (*buffer)->rows() > 0};
        },
        [this](size_t) -> Status {
          const RowBuffer& rows = **buffer;
          std::vector<int64_t> order(rows.rows());
          for (int64_t i = 0; i < rows.rows(); i++) order[i] = i;
          SortIndexRun(rows, *keys, limit, &order);
          SpillRun run;
          X100_RETURN_IF_ERROR(run.Append(
              ctx->spill_device, static_cast<int64_t>(order.size()),
              [&rows, &order](int64_t begin, int64_t end,
                              std::vector<uint8_t>* out) {
                rows.Serialize(order.data(), begin, end, out);
              }));
          spilled.push_back(std::move(run));
          *buffer = std::make_unique<RowBuffer>(*schema);
          return Status::OK();
        });
  }

  /// Sorts the remaining resident rows into a run referencing `*buffer`;
  /// no run when the buffer is empty (everything already spilled).
  bool FinishResident(SortRun* out) {
    if ((*buffer)->rows() == 0) return false;
    out->rows = buffer->get();
    out->order.resize((*buffer)->rows());
    for (int64_t i = 0; i < (*buffer)->rows(); i++) out->order[i] = i;
    SortIndexRun(**buffer, *keys, limit, &out->order);
    return true;
  }

  void RecordProfile() const {
    ctx->RecordSpill("SortSpill", spilled.data(), spilled.size());
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// SortRunMerger
// ---------------------------------------------------------------------------

Status SortRunMerger::Init(const Schema* schema,
                           const std::vector<SortKey>* keys, int64_t limit,
                           ExecContext* ctx, std::vector<SortRun>* runs) {
  schema_ = schema;
  keys_ = keys;
  limit_ = limit;
  emitted_ = 0;
  ctx_ = ctx;
  cursors_.clear();
  cursors_.resize(runs->size());
  for (size_t i = 0; i < runs->size(); i++) {
    Cursor& c = cursors_[i];
    c.run = &(*runs)[i];
    if (c.run->spilled()) {
      X100_RETURN_IF_ERROR(AdvanceChunk(&c));
    } else if (c.run->order.empty()) {
      c.done = true;
    } else {
      c.key_cells = KeyCells(*c.run->rows, *keys_);
    }
  }
  // Play the tree bottom up: winner[j] is the winner of node j's subtree.
  const size_t k = cursors_.size();
  tree_.assign(k, 0);
  if (k == 0) return Status::OK();
  std::vector<int> winner(2 * k);
  for (size_t i = 0; i < k; i++) winner[k + i] = static_cast<int>(i);
  for (size_t j = k - 1; j >= 1; j--) {
    const int a = winner[2 * j], b = winner[2 * j + 1];
    const bool a_first = Before(a, b);
    winner[j] = a_first ? a : b;
    tree_[j] = a_first ? b : a;
  }
  tree_[0] = winner[1];
  return Status::OK();
}

Status SortRunMerger::AdvanceChunk(Cursor* c) {
  c->chunk_rows.reset();
  c->mem.Init(ctx_ != nullptr ? ctx_->memory : nullptr);
  c->mem.ShrinkTo(0);
  while (c->chunk < c->run->spill.chunks()) {
    std::vector<uint8_t> blob;
    X100_ASSIGN_OR_RETURN(
        blob, c->run->spill.Read(c->chunk,
                                 ctx_ != nullptr ? ctx_->cancel : nullptr));
    c->chunk++;
    std::unique_ptr<RowBuffer> rows;
    X100_ASSIGN_OR_RETURN(
        rows, RowBuffer::Deserialize(*schema_, blob.data(), blob.size()));
    if (rows->rows() == 0) continue;
    c->chunk_rows = std::move(rows);
    c->chunk_pos = 0;
    c->key_cells = KeyCells(*c->chunk_rows, *keys_);
    // One resident chunk per spilled run is the merge's minimum working
    // set — force-charged, released when the cursor advances past it.
    c->mem.ForceGrowTo(static_cast<int64_t>(c->chunk_rows->MemoryBytes()));
    return Status::OK();
  }
  c->done = true;
  return Status::OK();
}

bool SortRunMerger::CurrentRow(const Cursor& c, const RowBuffer** rows,
                               int64_t* row) const {
  if (c.done) return false;
  if (c.run->spilled()) {
    *rows = c.chunk_rows.get();
    *row = c.chunk_pos;
  } else {
    *rows = c.run->rows;
    *row = c.run->order[c.pos];
  }
  return true;
}

bool SortRunMerger::Before(int a, int b) const {
  const RowBuffer* rows = nullptr;
  int64_t ra = 0, rb = 0;
  const bool live_a = CurrentRow(cursors_[a], &rows, &ra);
  const bool live_b = CurrentRow(cursors_[b], &rows, &rb);
  if (live_a != live_b) return live_a;
  if (live_a) {
    const int c = CompareRows(cursors_[a].key_cells, ra, cursors_[b].key_cells,
                              rb, *keys_);
    if (c != 0) return c < 0;
  }
  return a < b;
}

void SortRunMerger::Replay(int w) {
  int winner = w;
  for (size_t j = (cursors_.size() + w) / 2; j >= 1; j /= 2) {
    if (Before(tree_[j], winner)) std::swap(tree_[j], winner);
  }
  tree_[0] = winner;
}

Status SortRunMerger::NextBatch(Batch* out, int* n) {
  *n = 0;
  if (ctx_ != nullptr) X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  const int cap = ctx_ != nullptr ? ctx_->vector_size : kDefaultVectorSize;
  picks_.resize(cap);
  // Picked rows are gathered a column at a time, one run of consecutive
  // picks from the same buffer per Gather: `seg` rows [seg_begin, *n).
  const RowBuffer* seg = nullptr;
  int seg_begin = 0;
  const auto gather = [&]() {
    for (int c = 0; seg != nullptr && c < out->num_columns(); c++) {
      seg->Gather(c, picks_.data(), seg_begin, *n - seg_begin, out->column(c),
                  seg_begin);
    }
    seg = nullptr;
  };
  while (!tree_.empty() && *n < cap && (limit_ < 0 || emitted_ < limit_)) {
    const int best = tree_[0];
    const RowBuffer* best_rows = nullptr;
    int64_t best_row = 0;
    if (!CurrentRow(cursors_[best], &best_rows, &best_row)) break;  // done
    if (best_rows != seg) {
      gather();
      seg = best_rows;
      seg_begin = *n;
    }
    picks_[*n] = best_row;
    (*n)++;
    emitted_++;
    Cursor& bc = cursors_[best];
    if (bc.run->spilled()) {
      bc.chunk_pos++;
      if (bc.chunk_pos >= bc.chunk_rows->rows()) {
        gather();  // before the chunk it reads is released
        X100_RETURN_IF_ERROR(AdvanceChunk(&bc));
      }
    } else {
      bc.pos++;
      if (bc.pos >= bc.run->order.size()) bc.done = true;
    }
    Replay(best);
  }
  gather();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

SortOp::SortOp(std::vector<OperatorPtr> chains, std::vector<SortKey> keys,
               int64_t limit, int split_ways)
    : chains_(std::move(chains)),
      keys_(std::move(keys)),
      limit_(limit),
      split_ways_(split_ways < 1 ? 1 : split_ways) {}

Status SortOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  if (chains_.empty()) {
    return Status::InvalidArgument("sort needs >= 1 input chain");
  }
  // Chains open inside their pipeline tasks, not here.
  out_ = std::make_unique<Batch>(chains_[0]->output_schema(),
                                 ctx->vector_size);
  return Status::OK();
}

void SortOp::CloseImpl() {
  for (OperatorPtr& c : chains_) {
    if (c) c->Close();
  }
}

Status SortOp::Materialize() {
  TaskScheduler* sched =
      ctx_->scheduler != nullptr ? ctx_->scheduler : TaskScheduler::Global();
  const int W = static_cast<int>(chains_.size());
  const Schema& schema = chains_[0]->output_schema();
  buffers_.clear();
  buffers_.resize(W);
  buffer_mem_.clear();
  buffer_mem_.resize(W);

  // One run builder per input chain: each chain's drain (the input
  // pipeline and the sort overlap) spills sorted runs when its
  // reservation fails; when the chain ends, what stayed resident is
  // sorted into a final run on the chain's thread — unless it is the
  // lone chain and nothing spilled: those rows are range-split across
  // sort tasks below instead.
  std::vector<RunBuildState> states(W);
  for (int w = 0; w < W; w++) {
    buffers_[w] = std::make_unique<RowBuffer>(schema);
    buffer_mem_[w].Init(ctx_->memory);
    RunBuildState& st = states[w];
    st.schema = &schema;
    st.keys = &keys_;
    st.limit = limit_;
    st.ctx = ctx_;
    st.buffer = &buffers_[w];
    st.reserv = &buffer_mem_[w];
  }
  std::vector<std::vector<SortRun>> worker_runs(W);
  X100_RETURN_IF_ERROR(DrainChains(
      ctx_, Borrow(chains_),
      [&states](int w, Batch& b) -> Result<bool> {
        X100_RETURN_IF_ERROR(states[w].Append(b));
        return true;
      },
      [W, &states, &worker_runs](int w) -> Status {
        RunBuildState& st = states[w];
        st.RecordProfile();
        for (SpillRun& spilled : st.spilled) {
          worker_runs[w].emplace_back();
          worker_runs[w].back().spill = std::move(spilled);
        }
        SortRun resident;
        if ((W > 1 || !worker_runs[w].empty()) &&
            st.FinishResident(&resident)) {
          worker_runs[w].push_back(std::move(resident));
        }
        return Status::OK();
      }));
  runs_.clear();
  for (std::vector<SortRun>& wr : worker_runs) {
    for (SortRun& r : wr) runs_.push_back(std::move(r));
  }

  if (W == 1 && runs_.empty()) {
    const int64_t n = buffers_[0]->rows();
    // Don't spawn more range tasks than vectors of data to sort.
    const int ways = static_cast<int>(std::max<int64_t>(
        1, std::min<int64_t>(split_ways_, (n + 1023) / 1024)));
    runs_.resize(ways);
    X100_RETURN_IF_ERROR(RunPipelineTasks(
        sched, ctx_->quota, ctx_->cancel, ways,
        [this, n, ways](int r, TaskGroup& group) -> Status {
          X100_RETURN_IF_ERROR(group.CheckCancel());
          const int64_t lo = n * r / ways, hi = n * (r + 1) / ways;
          SortRun& run = runs_[r];
          run.rows = buffers_[0].get();
          run.order.resize(hi - lo);
          for (int64_t i = lo; i < hi; i++) run.order[i - lo] = i;
          SortIndexRun(*buffers_[0], keys_, limit_, &run.order);
          return Status::OK();
        }));
  }

  X100_RETURN_IF_ERROR(
      merger_.Init(&schema, &keys_, limit_, ctx_, &runs_));
  materialized_ = true;
  return Status::OK();
}

Result<Batch*> SortOp::NextImpl() {
  if (!materialized_) X100_RETURN_IF_ERROR(Materialize());
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  out_->Reset();
  int n;
  X100_RETURN_IF_ERROR(merger_.NextBatch(out_.get(), &n));
  if (n == 0) return nullptr;
  out_->set_rows(n);
  return out_.get();
}

}  // namespace x100
