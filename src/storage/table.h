// Columnar table storage with hybrid PAX/DSM layout — paper §1:
// "research focus shifted to storage, leading to novel compression schemes
// (e.g. PFOR), hybrid PAX/DSM storage, and bandwidth sharing by concurrent
// queries".
//
// A table is a sequence of *block groups* of kBlockGroupRows rows. Each
// column of a group is compressed into a self-describing chunk
// (compression/codec.h) and placed on the simulated disk:
//
//  * DSM layout: every column chunk gets its own block run — scanning a
//    column subset reads only those columns' bytes.
//  * PAX layout: all chunks of a group share one block run (columns
//    interleaved within the same blocks) — one IO serves every column of
//    the group, but a narrow scan still pays for the full group region.
//
// Every numeric/date chunk carries a sparse MinMax index used for scan
// range pushdown; nullable columns store the paper's two-column NULL
// representation on disk as well (value chunk + RLE-friendly indicator
// chunk).
//
// Rows are addressed by SID (stable id, position in the immutable stored
// image); PDTs (pdt/) map SIDs to current RIDs under updates.
#ifndef X100_STORAGE_TABLE_H_
#define X100_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/value.h"
#include "compression/codec.h"
#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "vector/batch.h"
#include "vector/row_buffer.h"
#include "vector/schema.h"

namespace x100 {

enum class Layout : uint8_t { kDsm, kPax };

/// Location of a column chunk's compressed bytes.
struct ChunkLoc {
  std::vector<BlockId> blocks;  // DSM: dedicated run. PAX: empty.
  uint64_t offset = 0;          // PAX: byte offset in the group region
  uint64_t length = 0;          // compressed length in bytes
};

/// Per-chunk metadata: location, optional MinMax, optional null chunk.
struct ColumnChunkMeta {
  ChunkLoc loc;
  // Sparse MinMax index (numeric + date columns, over non-NULL values).
  bool has_min_max = false;
  int64_t imin = 0, imax = 0;  // integer/date domain
  double dmin = 0, dmax = 0;   // f64 domain
  // NULL indicator chunk (two-column representation on disk).
  bool has_nulls = false;
  ChunkLoc null_loc;
};

struct GroupMeta {
  int64_t first_sid = 0;
  uint32_t rows = 0;
  std::vector<BlockId> pax_blocks;  // PAX: the shared group region
  std::vector<ColumnChunkMeta> cols;
};

/// Comparison shapes supported by MinMax pushdown.
enum class RangeOp { kEq, kLt, kLe, kGt, kGe };

/// An immutable stored table image. Updates are layered on top by PDTs.
class Table {
 public:
  Table(std::string name, Schema schema, Layout layout, BlockDevice* device)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        layout_(layout),
        device_(device) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  Layout layout() const { return layout_; }
  int64_t num_rows() const { return num_rows_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }
  const GroupMeta& group(int g) const { return groups_[g]; }
  BlockDevice* device() const { return device_; }

  /// Rebuilds a table image from catalog metadata — the groups were
  /// placed on `device` by an earlier process; no data IO happens here.
  static std::unique_ptr<Table> Restore(std::string name, Schema schema,
                                        Layout layout, BlockDevice* device,
                                        std::vector<GroupMeta> groups,
                                        int64_t num_rows) {
    auto t = std::make_unique<Table>(std::move(name), std::move(schema),
                                     layout, device);
    t->groups_ = std::move(groups);
    t->num_rows_ = num_rows;
    return t;
  }

  /// Every block id group `g` references (PAX region or DSM runs + null
  /// chunks) — checkpoint retirement and catalog restore both need this.
  static void AppendGroupBlockIds(const GroupMeta& gm,
                                  std::vector<BlockId>* out) {
    out->insert(out->end(), gm.pax_blocks.begin(), gm.pax_blocks.end());
    for (const ColumnChunkMeta& c : gm.cols) {
      out->insert(out->end(), c.loc.blocks.begin(), c.loc.blocks.end());
      out->insert(out->end(), c.null_loc.blocks.begin(),
                  c.null_loc.blocks.end());
    }
  }

  /// All live block ids of the table.
  std::vector<BlockId> CollectBlockIds() const {
    std::vector<BlockId> out;
    for (const GroupMeta& g : groups_) AppendGroupBlockIds(g, &out);
    return out;
  }

  /// MinMax pushdown: can group `g` contain rows with `col OP value`?
  /// Conservative (true when unknown / non-numeric / NULL-bearing check).
  bool GroupMayMatch(int g, int col, RangeOp op, const Value& v) const;

  /// Total compressed bytes of the table on disk.
  int64_t compressed_bytes() const;

 private:
  friend class TableBuilder;
  std::string name_;
  Schema schema_;
  Layout layout_;
  BlockDevice* device_;
  std::vector<GroupMeta> groups_;
  int64_t num_rows_ = 0;
};

/// Builds a table group-by-group: stage rows in a RowBuffer, compress,
/// place on device (docs/STORAGE.md, "Loading a table").
///
/// With a scheduler, a full group's column chunks compress as one task
/// each while the next group stages; at most one group compresses at a
/// time. The calling thread places groups on the device in group order,
/// so no byte of the image depends on which thread compressed it. Without
/// a scheduler the same per-column compression runs inline.
///
/// If the builder is destroyed without Finish() (a failed build or an
/// aborted checkpoint), the in-flight group's tasks are cancelled and
/// awaited, and every block it wrote is freed — a durable device must not
/// accrete orphan slots from unwound work.
class TableBuilder {
 public:
  /// group_rows lets tests use small groups; 0 = kBlockGroupRows.
  /// `scheduler` (may be nullptr) runs the compression tasks.
  TableBuilder(std::string name, Schema schema, Layout layout,
               BlockDevice* device, int64_t group_rows = 0,
               TaskScheduler* scheduler = nullptr);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Appends one row; `row` must match the schema (Value::Null for NULLs in
  /// nullable columns).
  Status AppendRow(const std::vector<Value>& row);

  /// Appends all live rows of a batch (its column types must match the
  /// schema), a column at a time; a batch that crosses a group boundary
  /// is split there. A NULL in a non-nullable column rejects the whole
  /// batch before anything is staged.
  Status AppendBatch(const Batch& batch);

  /// Flushes staged rows as a (possibly short) group now and waits until
  /// every group is placed, so blocks_written() is complete on return.
  /// Checkpoints use this to close a rewritten group at the original group
  /// boundary so clean groups on either side keep their SID ranges.
  Status Flush();

  /// Adopts an already-stored group verbatim (block reuse): the group's
  /// blocks stay where they are, only the metadata is appended with
  /// first_sid rebased to the current row count. Staged rows are flushed
  /// first so ordering is preserved.
  Status AppendStoredGroup(const GroupMeta& gm);

  /// Flushes the final partial group and returns the table.
  Result<std::unique_ptr<Table>> Finish();

  /// Blocks newly written by this builder so far (excludes blocks adopted
  /// via AppendStoredGroup — those belong to the old image). Complete
  /// after Flush() or Finish().
  const std::vector<BlockId>& blocks_written() const {
    return blocks_written_;
  }

 private:
  struct InFlight;
  /// Hands the staged rows to compression and places the group that was
  /// compressing before (it is awaited first).
  Status FlushGroup();
  std::unique_ptr<InFlight> StartCompression();
  Status Place(InFlight* group);

  std::unique_ptr<Table> table_;
  int64_t group_rows_;
  TaskScheduler* scheduler_;
  std::unique_ptr<RowBuffer> staging_;  // the group being filled
  std::unique_ptr<InFlight> in_flight_;  // at most one compressing group
  std::vector<BlockId> blocks_written_;
  bool finished_ = false;
};

/// Decodes one column chunk of a group a batch at a time, reading the
/// bytes where they lie in the pool's blocks (docs/STORAGE.md, "Reading a
/// chunk"): a DSM run, or the column's slice of the PAX region. A
/// nullable column's null chunk gets a second source. Each block is
/// fetched with BufferManager::GetBlock once, when the decode reaches it,
/// and no pin is held across calls.
///
/// Re-open the cursor for each group: the decoders and their scratch are
/// reused.
class ColumnCursor {
 public:
  /// `in_place`: strings may point into the held block bytes (and a PDICT
  /// chunk's dictionary copy) until the next BeginBatch or Open. Otherwise
  /// every string is copied into `heap`, which string columns require.
  ColumnCursor(TypeId type, StringHeap* heap, bool in_place);

  Status Open(const Table* table, BufferManager* buffers, int g, int col,
              CancellationToken* cancel = nullptr);

  /// Decodes the next n values into `out` (an array of the column's
  /// physical type) and their null flags into `nulls` (may be nullptr;
  /// all zero for a column without a null chunk).
  Status Next(int n, void* out, uint8_t* nulls);
  Status Skip(int n) { return Next(n, nullptr, nullptr); }
  /// Starts an output batch (see ChunkDecoder::BeginBatch).
  void BeginBatch() { values_->BeginBatch(); }

  /// Whether the open chunk has a null chunk.
  bool has_nulls() const { return has_nulls_; }
  /// Most distinct blocks the value chunk's source held at once.
  int held_blocks_high_water() const {
    return values_src_.held_blocks_high_water();
  }

 private:
  std::unique_ptr<ChunkDecoder> values_;
  std::unique_ptr<ChunkDecoder> nulls_;
  ChunkSource values_src_;
  ChunkSource nulls_src_;
  bool has_nulls_ = false;
};

/// Reads whole column chunks of a table through ColumnCursor.
class TableReader {
 public:
  TableReader(const Table* table, BufferManager* buffers)
      : table_(table), buffers_(buffers) {}

  /// Decompresses column `col` of group `g` into `out` (and null flags into
  /// `nulls`, which may be nullptr for non-nullable columns). `out` must
  /// hold group(g).rows values; strings are materialized into `heap`.
  Status ReadColumn(int g, int col, void* out, uint8_t* nulls,
                    StringHeap* heap, CancellationToken* cancel = nullptr);

  /// Decompresses every column of group `g` into `out`, whose capacity
  /// must be at least group(g).rows: one read per column chunk. Strings
  /// land in the columns' heaps; the selection is cleared.
  Status ReadGroup(int g, Batch* out, CancellationToken* cancel = nullptr);

 private:
  const Table* table_;
  BufferManager* buffers_;
};

}  // namespace x100

#endif  // X100_STORAGE_TABLE_H_
