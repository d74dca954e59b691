#include "storage/table.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/task_scheduler.h"

namespace x100 {

namespace {

/// Splits `bytes` into device blocks of at most kDiskBlockBytes. Every
/// written id is also appended to `written` so the caller can reclaim
/// them if the group placement fails partway.
Result<std::vector<BlockId>> PlaceBytes(BlockDevice* device,
                                        const std::vector<uint8_t>& bytes,
                                        std::vector<BlockId>* written) {
  std::vector<BlockId> blocks;
  size_t off = 0;
  do {
    const size_t len =
        std::min<size_t>(bytes.size() - off, kDiskBlockBytes);
    BlockId id = 0;
    X100_ASSIGN_OR_RETURN(
        id, device->WriteBlock(std::vector<uint8_t>(
                bytes.begin() + off, bytes.begin() + off + len)));
    blocks.push_back(id);
    written->push_back(id);
    off += len;
  } while (off < bytes.size());
  return blocks;
}

}  // namespace

// ---------------------------------------------------------------------------
// MinMax pushdown
// ---------------------------------------------------------------------------

bool Table::GroupMayMatch(int g, int col, RangeOp op, const Value& v) const {
  const ColumnChunkMeta& m = groups_[g].cols[col];
  if (!m.has_min_max || v.is_null()) return true;
  const TypeId t = schema_.field(col).type;
  double lo, hi, x;
  if (t == TypeId::kF64) {
    lo = m.dmin;
    hi = m.dmax;
    x = v.AsF64();
  } else if (IsIntegerType(t)) {
    lo = static_cast<double>(m.imin);
    hi = static_cast<double>(m.imax);
    x = static_cast<double>(v.AsI64());
  } else {
    return true;
  }
  switch (op) {
    case RangeOp::kEq: return x >= lo && x <= hi;
    case RangeOp::kLt: return lo < x;
    case RangeOp::kLe: return lo <= x;
    case RangeOp::kGt: return hi > x;
    case RangeOp::kGe: return hi >= x;
  }
  return true;
}

int64_t Table::compressed_bytes() const {
  int64_t total = 0;
  for (const GroupMeta& g : groups_) {
    for (const ColumnChunkMeta& c : g.cols) {
      total += static_cast<int64_t>(c.loc.length) +
               static_cast<int64_t>(c.null_loc.length);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// TableBuilder
// ---------------------------------------------------------------------------

/// A staged group while its column chunks compress (one task each), until
/// the loading thread places it.
struct TableBuilder::InFlight {
  std::unique_ptr<RowBuffer> staging;
  GroupMeta gm;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::vector<uint8_t>> null_payloads;
  Status inline_status;  // no scheduler: the chunks compressed in place
  // Declared last, so destroyed first: cancels the tasks not yet started
  // and waits for the running ones before the buffers they use are freed.
  std::unique_ptr<TaskGroup> tasks;

  /// Waits for every chunk; the staged input is released either way.
  Status Wait() {
    const Status s = tasks != nullptr ? tasks->Wait() : inline_status;
    staging.reset();
    return s;
  }
};

TableBuilder::TableBuilder(std::string name, Schema schema, Layout layout,
                           BlockDevice* device, int64_t group_rows,
                           TaskScheduler* scheduler)
    : table_(std::make_unique<Table>(std::move(name), std::move(schema),
                                     layout, device)),
      group_rows_(group_rows > 0 ? group_rows : kBlockGroupRows),
      scheduler_(scheduler),
      staging_(std::make_unique<RowBuffer>(table_->schema())) {}

TableBuilder::~TableBuilder() {
  // Stop the compressing group first: its tasks read the staging and
  // write the payloads the reset frees.
  in_flight_.reset();
  // An unfinished build (error unwind, aborted checkpoint) must not leak
  // device blocks: a durable file would otherwise grow with every failed
  // attempt. Table may be null if Finish() moved it out but `finished_`
  // guards that path anyway.
  if (finished_) return;
  BlockDevice* device = table_ ? table_->device() : nullptr;
  if (device == nullptr) return;
  for (BlockId id : blocks_written_) device->FreeBlock(id);
}

Status TableBuilder::AppendRow(const std::vector<Value>& row) {
  const Schema& schema = table_->schema();
  if (static_cast<int>(row.size()) != schema.num_fields()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (int c = 0; c < schema.num_fields(); c++) {
    if (row[c].is_null() && !schema.field(c).nullable) {
      return Status::InvalidArgument("NULL in non-nullable column " +
                                     schema.field(c).name);
    }
  }
  staging_->AppendValues(row);
  if (staging_->rows() >= group_rows_) return FlushGroup();
  return Status::OK();
}

Status TableBuilder::AppendBatch(const Batch& batch) {
  const Schema& schema = table_->schema();
  if (batch.num_columns() != schema.num_fields()) {
    return Status::InvalidArgument("batch arity mismatch");
  }
  const int n = batch.ActiveRows();
  const sel_t* sel = batch.sel();
  for (int c = 0; c < schema.num_fields(); c++) {
    const Field& f = schema.field(c);
    const Vector& v = *batch.column(c);
    if (v.type() != f.type) {
      return Status::InvalidArgument("batch column type mismatch for " +
                                     f.name);
    }
    if (f.nullable || !v.has_nulls()) continue;
    for (int j = 0; j < n; j++) {
      if (v.IsNull(sel ? sel[j] : j)) {
        return Status::InvalidArgument("NULL in non-nullable column " +
                                       f.name);
      }
    }
  }
  const std::vector<const Vector*> cols = batch.columns();
  for (int done = 0; done < n;) {
    const int take = static_cast<int>(
        std::min<int64_t>(n - done, group_rows_ - staging_->rows()));
    staging_->Append(cols, sel, done, take);
    done += take;
    if (staging_->rows() >= group_rows_) X100_RETURN_IF_ERROR(FlushGroup());
  }
  return Status::OK();
}

namespace {

/// Compresses one fixed-width column chunk and computes its MinMax over
/// the non-NULL values (`nulls` may be nullptr).
template <typename T>
Status CompressFixed(const uint8_t* bytes, const uint8_t* nulls, int n,
                     ColumnChunkMeta* meta, std::vector<uint8_t>* out) {
  const T* data = reinterpret_cast<const T*>(bytes);
  const CodecId codec = ChooseCodec<T>(data, n);
  X100_RETURN_IF_ERROR(CompressColumn<T>(codec, data, n, out));
  bool first = true;
  for (int i = 0; i < n; i++) {
    if (nulls != nullptr && nulls[i]) continue;
    const T v = data[i];
    if constexpr (std::is_same_v<T, double>) {
      if (first || v < meta->dmin) meta->dmin = v;
      if (first || v > meta->dmax) meta->dmax = v;
    } else {
      if (first || static_cast<int64_t>(v) < meta->imin) meta->imin = v;
      if (first || static_cast<int64_t>(v) > meta->imax) meta->imax = v;
    }
    first = false;
  }
  meta->has_min_max = !first;
  return Status::OK();
}

/// The per-column unit of work of a group flush: compresses a staged
/// column chunk (and its null chunk when `nulls` is non-null) and fills
/// the chunk's metadata. Runs on a scheduler task or inline.
Status CompressChunk(TypeId type, const uint8_t* data, const uint8_t* nulls,
                     int n, ColumnChunkMeta* meta, std::vector<uint8_t>* out,
                     std::vector<uint8_t>* null_out) {
  switch (type) {
    case TypeId::kBool:
      X100_RETURN_IF_ERROR(CompressFixed<uint8_t>(data, nulls, n, meta, out));
      meta->has_min_max = false;  // no range pruning on bool
      break;
    case TypeId::kI8:
      X100_RETURN_IF_ERROR(CompressFixed<int8_t>(data, nulls, n, meta, out));
      break;
    case TypeId::kI16:
      X100_RETURN_IF_ERROR(CompressFixed<int16_t>(data, nulls, n, meta, out));
      break;
    case TypeId::kI32:
    case TypeId::kDate:
      X100_RETURN_IF_ERROR(CompressFixed<int32_t>(data, nulls, n, meta, out));
      break;
    case TypeId::kI64:
      X100_RETURN_IF_ERROR(CompressFixed<int64_t>(data, nulls, n, meta, out));
      break;
    case TypeId::kF64:
      X100_RETURN_IF_ERROR(CompressFixed<double>(data, nulls, n, meta, out));
      break;
    case TypeId::kStr: {
      const StrRef* refs = reinterpret_cast<const StrRef*>(data);
      const CodecId codec = ChooseStrCodec(refs, n);
      X100_RETURN_IF_ERROR(CompressStrColumn(codec, refs, n, out));
      break;
    }
  }
  meta->loc.length = out->size();
  if (nulls != nullptr) {
    meta->has_nulls = true;
    const CodecId codec = ChooseCodec<uint8_t>(nulls, n);
    X100_RETURN_IF_ERROR(CompressColumn<uint8_t>(codec, nulls, n, null_out));
    meta->null_loc.length = null_out->size();
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<TableBuilder::InFlight> TableBuilder::StartCompression() {
  const Schema& schema = table_->schema();
  const int num_cols = schema.num_fields();
  auto group = std::make_unique<InFlight>();
  group->staging = std::move(staging_);
  staging_ = std::make_unique<RowBuffer>(schema);
  group->gm.rows = static_cast<uint32_t>(group->staging->rows());
  group->gm.cols.resize(num_cols);
  group->payloads.resize(num_cols);
  group->null_payloads.resize(num_cols);
  if (scheduler_ != nullptr) {
    group->tasks = std::make_unique<TaskGroup>(scheduler_);
  }
  InFlight* g = group.get();
  for (int c = 0; c < num_cols; c++) {
    auto compress = [g, c, type = schema.field(c).type]() {
      return CompressChunk(type, g->staging->Col<uint8_t>(c),
                           g->staging->Nulls(c),
                           static_cast<int>(g->gm.rows), &g->gm.cols[c],
                           &g->payloads[c], &g->null_payloads[c]);
    };
    if (g->tasks != nullptr) {
      g->tasks->Spawn(std::move(compress));
    } else if (g->inline_status.ok()) {
      g->inline_status = compress();
    }
  }
  return group;
}

Status TableBuilder::FlushGroup() {
  // Finish the previous group before handing over this one, so at most
  // one group compresses; then place the previous group while this one
  // compresses.
  std::unique_ptr<InFlight> prev = std::move(in_flight_);
  if (prev != nullptr) X100_RETURN_IF_ERROR(prev->Wait());
  if (staging_->rows() > 0) in_flight_ = StartCompression();
  return prev != nullptr ? Place(prev.get()) : Status::OK();
}

Status TableBuilder::Place(InFlight* group) {
  // A failed write aborts the group; the blocks already placed stay in
  // blocks_written_ and are freed by the dtor.
  const Schema& schema = table_->schema();
  GroupMeta& gm = group->gm;
  gm.first_sid = table_->num_rows_;
  BlockDevice* device = table_->device();
  if (table_->layout() == Layout::kDsm) {
    for (int c = 0; c < schema.num_fields(); c++) {
      X100_ASSIGN_OR_RETURN(
          gm.cols[c].loc.blocks,
          PlaceBytes(device, group->payloads[c], &blocks_written_));
      if (gm.cols[c].has_nulls) {
        X100_ASSIGN_OR_RETURN(
            gm.cols[c].null_loc.blocks,
            PlaceBytes(device, group->null_payloads[c], &blocks_written_));
      }
    }
  } else {
    // PAX: one shared region; chunks addressed by (offset, length).
    std::vector<uint8_t> region;
    for (int c = 0; c < schema.num_fields(); c++) {
      gm.cols[c].loc.offset = region.size();
      region.insert(region.end(), group->payloads[c].begin(),
                    group->payloads[c].end());
      if (gm.cols[c].has_nulls) {
        gm.cols[c].null_loc.offset = region.size();
        region.insert(region.end(), group->null_payloads[c].begin(),
                      group->null_payloads[c].end());
      }
    }
    X100_ASSIGN_OR_RETURN(gm.pax_blocks,
                          PlaceBytes(device, region, &blocks_written_));
  }
  table_->num_rows_ += gm.rows;
  table_->groups_.push_back(std::move(gm));
  return Status::OK();
}

Status TableBuilder::Flush() {
  // The first pass hands the staged rows over; the second waits for them
  // and places them.
  X100_RETURN_IF_ERROR(FlushGroup());
  return FlushGroup();
}

Status TableBuilder::AppendStoredGroup(const GroupMeta& gm) {
  X100_RETURN_IF_ERROR(Flush());  // preserve row order
  GroupMeta copy = gm;
  copy.first_sid = table_->num_rows_;
  table_->num_rows_ += copy.rows;
  table_->groups_.push_back(std::move(copy));
  return Status::OK();
}

Result<std::unique_ptr<Table>> TableBuilder::Finish() {
  X100_RETURN_IF_ERROR(Flush());
  finished_ = true;
  return std::move(table_);
}

// ---------------------------------------------------------------------------
// TableReader
// ---------------------------------------------------------------------------

namespace {

/// Points `src` at a chunk's bytes: a DSM run of its own (each block
/// min(kDiskBlockBytes, remaining) long) or a slice of the group's PAX
/// region (whose blocks must cover the slice).
void OpenChunk(const GroupMeta& gm, const ChunkLoc& loc,
               BufferManager* buffers, CancellationToken* cancel,
               ChunkSource* src) {
  const bool pax = !gm.pax_blocks.empty();
  const std::vector<BlockId>* blocks = pax ? &gm.pax_blocks : &loc.blocks;
  const uint64_t base = pax ? loc.offset : 0;
  const uint64_t end = base + loc.length;
  src->Reset(base, loc.length, kDiskBlockBytes,
             [=](size_t i) -> Result<BlockBytes> {
               if (i >= blocks->size()) {
                 return Status::IoError("chunk runs past its blocks");
               }
               BlockBytes bytes;
               X100_ASSIGN_OR_RETURN(bytes,
                                     buffers->GetBlock((*blocks)[i], cancel));
               // A freed or truncated block reads short; decoding past it
               // would read zeros (or nothing) as data.
               const uint64_t want = std::min<uint64_t>(
                   kDiskBlockBytes, end - i * kDiskBlockBytes);
               if (pax ? bytes->size() < want : bytes->size() != want) {
                 return Status::IoError(
                     "block " + std::to_string((*blocks)[i]) + " reads " +
                     std::to_string(bytes->size()) + " of " +
                     std::to_string(want) + " bytes");
               }
               return bytes;
             });
}

}  // namespace

ColumnCursor::ColumnCursor(TypeId type, StringHeap* heap, bool in_place)
    : values_(MakeDecoder(type, heap, in_place)),
      nulls_(MakeDecoder(TypeId::kBool)) {}

Status ColumnCursor::Open(const Table* table, BufferManager* buffers, int g,
                          int col, CancellationToken* cancel) {
  const GroupMeta& gm = table->group(g);
  const ColumnChunkMeta& meta = gm.cols[col];
  OpenChunk(gm, meta.loc, buffers, cancel, &values_src_);
  X100_RETURN_IF_ERROR(values_->Open(&values_src_));
  has_nulls_ = meta.has_nulls;
  if (has_nulls_) {
    OpenChunk(gm, meta.null_loc, buffers, cancel, &nulls_src_);
    X100_RETURN_IF_ERROR(nulls_->Open(&nulls_src_));
  }
  // A chunk holds one value per row of its group.
  if (values_->size() != gm.rows || (has_nulls_ && nulls_->size() != gm.rows)) {
    return Status::IoError("chunk value count differs from the group's rows");
  }
  return Status::OK();
}

Status ColumnCursor::Next(int n, void* out, uint8_t* nulls) {
  X100_RETURN_IF_ERROR(values_->Next(n, out));
  if (has_nulls_) return nulls ? nulls_->Next(n, nulls) : nulls_->Skip(n);
  if (nulls != nullptr) std::memset(nulls, 0, n);
  return Status::OK();
}

Status TableReader::ReadColumn(int g, int col, void* out, uint8_t* nulls,
                               StringHeap* heap, CancellationToken* cancel) {
  const TypeId t = table_->schema().field(col).type;
  if (t == TypeId::kStr && heap == nullptr) {
    return Status::InvalidArgument("string column requires a heap");
  }
  ColumnCursor cursor(t, heap, /*in_place=*/false);
  X100_RETURN_IF_ERROR(cursor.Open(table_, buffers_, g, col, cancel));
  return cursor.Next(static_cast<int>(table_->group(g).rows), out, nulls);
}

Status TableReader::ReadGroup(int g, Batch* out, CancellationToken* cancel) {
  const GroupMeta& gm = table_->group(g);
  if (out->capacity() < static_cast<int64_t>(gm.rows)) {
    return Status::InvalidArgument("batch too small for the group");
  }
  for (int c = 0; c < table_->schema().num_fields(); c++) {
    Vector* v = out->column(c);
    v->ClearNulls();
    uint8_t* nulls = gm.cols[c].has_nulls ? v->MutableNulls() : nullptr;
    X100_RETURN_IF_ERROR(
        ReadColumn(g, c, v->RawData(), nulls, v->heap(), cancel));
  }
  out->ClearSel();
  out->set_rows(static_cast<int>(gm.rows));
  return Status::OK();
}

}  // namespace x100
