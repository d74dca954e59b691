#include "exec/sort.h"

#include <algorithm>
#include <atomic>

#include "common/task_scheduler.h"

namespace x100 {

namespace {

/// Rows per spilled-run chunk: large enough to amortize the per-chunk
/// disk blocks, small enough that the merge holds only a modest slice of
/// each spilled run in memory.
constexpr int64_t kSortSpillChunkRows = 4096;

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
/// what the buffer holds and writes it out as a spilled run (rows
/// serialized in sorted order, kSortSpillChunkRows per chunk), then the
/// worker continues with an empty buffer. No spill device means the
/// failure surfaces as kResourceExhausted and fails the pipeline task.
struct RunBuildState {
  const Schema* schema = nullptr;
  const std::vector<SortKey>* keys = nullptr;
  int64_t limit = -1;
  ExecContext* ctx = nullptr;
  std::unique_ptr<RowBuffer>* buffer = nullptr;  // owned by the operator
  MemoryReservation* reserv = nullptr;

  std::vector<SortRun> spilled_runs;
  int64_t spill_bytes = 0, spill_chunks = 0, spill_rows = 0;

  /// Opens, drains and closes `chain`, appending every batch.
  Status Drain(Operator* chain, const TaskGroup& group) {
    Status s = chain->Open(ctx);
    while (s.ok()) {
      s = group.CheckCancel();
      if (!s.ok()) break;
      auto b = chain->Next();
      if (!b.ok()) {
        s = b.status();
        break;
      }
      if (*b == nullptr) break;
      s = Append(**b);
    }
    chain->Close();
    return s;
  }

  Status Append(const Batch& b) {
    (*buffer)->Append(b.columns(), b.sel(), 0, b.ActiveRows());
    const auto footprint = [this]() {
      return static_cast<int64_t>((*buffer)->MemoryBytes());
    };
    // The whole resident buffer is the spill unit; buffers under the
    // kMinSpillBytes floor (the pressure comes from other operators)
    // free nothing, so GrowOrSpill force-admits them instead of
    // micro-spilling a few rows per run.
    const auto spill_some = [this]() -> Result<int64_t> {
      const int64_t bytes = static_cast<int64_t>((*buffer)->MemoryBytes());
      if ((*buffer)->rows() == 0 || bytes < kMinSpillBytes) return int64_t{0};
      X100_RETURN_IF_ERROR(SpillResident());
      return bytes;
    };
    return GrowOrSpill(reserv, ctx->spill_device != nullptr, footprint,
                       spill_some);
  }

  /// Sorts the resident rows and writes them as one spilled run. A
  /// failed chunk write (the device filling up) surfaces the IO error;
  /// the chunks already written are owned by the run and freed with it.
  Status SpillResident() {
    RowBuffer& rows = **buffer;
    std::vector<int64_t> order(rows.rows());
    for (int64_t i = 0; i < rows.rows(); i++) order[i] = i;
    SortIndexRun(rows, *keys, limit, &order);
    SortRun run;
    const int64_t n = static_cast<int64_t>(order.size());
    for (int64_t begin = 0; begin < n; begin += kSortSpillChunkRows) {
      const int64_t end = std::min(n, begin + kSortSpillChunkRows);
      std::vector<uint8_t> blob;
      rows.Serialize(order.data(), begin, end, &blob);
      SpillFile file;
      X100_ASSIGN_OR_RETURN(file, SpillFile::Write(ctx->spill_device, blob));
      spill_bytes += file.bytes();
      spill_chunks++;
      run.chunks.push_back(std::move(file));
    }
    spill_rows += n;
    spilled_runs.push_back(std::move(run));
    *buffer = std::make_unique<RowBuffer>(*schema);
    reserv->ShrinkTo(static_cast<int64_t>((*buffer)->MemoryBytes()));
    return Status::OK();
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
    if (spill_chunks == 0) return;
    OperatorProfile prof;
    prof.op = "SortSpill";
    prof.rows = spill_rows;
    prof.spill_bytes = spill_bytes;
    prof.spills = spill_chunks;
    ctx->RecordOperator(std::move(prof));
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
  return Status::OK();
}

Status SortRunMerger::AdvanceChunk(Cursor* c) {
  c->chunk_rows.reset();
  c->mem.Init(ctx_ != nullptr ? ctx_->memory : nullptr);
  c->mem.ShrinkTo(0);
  while (c->chunk < c->run->chunks.size()) {
    std::vector<uint8_t> blob;
    X100_ASSIGN_OR_RETURN(
        blob, c->run->chunks[c->chunk].ReadAll(
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
  while (*n < cap && (limit_ < 0 || emitted_ < limit_)) {
    int best = -1;
    const RowBuffer* best_rows = nullptr;
    int64_t best_row = 0;
    for (size_t i = 0; i < cursors_.size(); i++) {
      const RowBuffer* rows;
      int64_t row;
      if (!CurrentRow(cursors_[i], &rows, &row)) continue;
      if (best < 0 || CompareRows(cursors_[i].key_cells, row,
                                  cursors_[best].key_cells, best_row,
                                  *keys_) < 0) {
        best = static_cast<int>(i);
        best_rows = rows;
        best_row = row;
      }
    }
    if (best < 0) break;  // every run exhausted
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

  // One run builder per input chain: each task drains its chain (the
  // input pipeline and the sort overlap), spilling sorted runs when its
  // reservation fails, then sorts what stayed resident into a final run
  // — unless it is the lone chain and nothing spilled: those rows are
  // range-split across sort tasks after the barrier instead.
  std::vector<std::vector<SortRun>> worker_runs(W);
  X100_RETURN_IF_ERROR(RunPipelineTasks(
      sched, ctx_->quota, ctx_->cancel, W,
      [this, W, &schema, &worker_runs](int w, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        ChainProfileScope prof_scope(W == 1 ? this : nullptr);
        buffers_[w] = std::make_unique<RowBuffer>(schema);
        buffer_mem_[w].Init(ctx_->memory);
        RunBuildState st;
        st.schema = &schema;
        st.keys = &keys_;
        st.limit = limit_;
        st.ctx = ctx_;
        st.buffer = &buffers_[w];
        st.reserv = &buffer_mem_[w];
        X100_RETURN_IF_ERROR(st.Drain(chains_[w].get(), group));
        st.RecordProfile();
        worker_runs[w] = std::move(st.spilled_runs);
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
