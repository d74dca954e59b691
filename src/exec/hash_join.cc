#include "exec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/bitutil.h"
#include "common/pod_serde.h"
#include "common/task_scheduler.h"
#include "primitives/hash_kernels.h"
#include "storage/buffer_manager.h"

namespace x100 {

namespace {
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Probe-side spill chunks reload into batches of this many rows at a
/// time, so the pair phase holds one bounded chunk resident — never a
/// whole probe partition.
constexpr int64_t kProbeSpillChunkRows = 4096;

/// Spill blob for one join-build partition chunk:
/// [i64 nrows][nrows u64 key hashes][RowBuffer serialization]. Hashes ride
/// along so the reload never re-evaluates key expressions — build and
/// probe stay bit-for-bit agreed on partition assignment and bucket index.
std::vector<uint8_t> SerializeBuildChunk(const RowBuffer& rows,
                                         const std::vector<uint64_t>& hashes) {
  std::vector<uint8_t> blob;
  serde::AppendPod<int64_t>(&blob, rows.rows());
  serde::AppendPodVec(&blob, hashes);
  rows.Serialize(nullptr, 0, rows.rows(), &blob);
  return blob;
}

/// Writes `rows`+`hashes` as build chunks of at most kProbeSpillChunkRows
/// rows each, appended to `out`. Slicing bounds the transient
/// serialization blob: the merge-time defer sites run at the exact
/// moment the memory budget is exhausted, so a whole-partition blob
/// there would spike the REAL footprint past what the tracker reports.
/// Returns the bytes written; on a failed write the chunks already
/// placed stay in `out` (their blocks are owned and freed with it).
Result<int64_t> WriteBuildChunks(const RowBuffer& rows,
                                 const std::vector<uint64_t>& hashes,
                                 SpillDevice* device,
                                 std::vector<SpillFile>* out,
                                 int64_t* chunks_out) {
  int64_t bytes = 0;
  for (int64_t begin = 0; begin < rows.rows();
       begin += kProbeSpillChunkRows) {
    const int64_t end =
        std::min<int64_t>(rows.rows(), begin + kProbeSpillChunkRows);
    std::vector<uint8_t> blob;
    serde::AppendPod<int64_t>(&blob, end - begin);
    const auto* h = reinterpret_cast<const uint8_t*>(hashes.data());
    blob.insert(blob.end(), h + begin * sizeof(uint64_t),
                h + end * sizeof(uint64_t));
    rows.Serialize(nullptr, begin, end, &blob);
    SpillFile file;
    X100_ASSIGN_OR_RETURN(file, SpillFile::Write(device, blob));
    bytes += file.bytes();
    (*chunks_out)++;
    out->push_back(std::move(file));
  }
  return bytes;
}

/// Appends a reloaded chunk to `rows_out`/`hashes_out`.
Status AppendBuildChunk(const Schema& schema,
                        const std::vector<uint8_t>& blob, RowBuffer* rows_out,
                        std::vector<uint64_t>* hashes_out) {
  const Status corrupt =
      Status::IoError("corrupt join spill chunk: truncated blob");
  serde::Reader in{blob.data(), blob.size()};
  int64_t n;
  std::vector<uint64_t> hashes;
  if (!in.TakePod(&n) || n < 0 ||
      !in.TakePodVec(static_cast<size_t>(n), &hashes)) {
    return corrupt;
  }
  std::unique_ptr<RowBuffer> rb;
  X100_ASSIGN_OR_RETURN(
      rb, RowBuffer::Deserialize(schema, blob.data() + in.pos,
                                 in.remaining()));
  if (rb->rows() != n) {
    return Status::IoError("corrupt join spill chunk: row count mismatch");
  }
  hashes_out->insert(hashes_out->end(), hashes.begin(), hashes.end());
  rows_out->AppendFrom(*rb);
  return Status::OK();
}

/// The one bucket-table sizing rule: IndexPartition allocates with it
/// and IndexBytes estimates with it, so merge-time admission and
/// settle-time actuals can never drift apart on the index size.
uint64_t JoinBucketCount(int64_t n) {
  return std::max<uint64_t>(16, NextPow2(n * 2));
}

/// Resident footprint of a chained hash index over n rows (buckets +
/// next chain + kept hashes), for merge-time admission estimates.
int64_t IndexBytes(int64_t n) {
  return (static_cast<int64_t>(JoinBucketCount(n)) + 2 * n) *
         static_cast<int64_t>(sizeof(int64_t));
}
}  // namespace

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "inner";
    case JoinType::kLeftOuter: return "leftouter";
    case JoinType::kSemi: return "semi";
    case JoinType::kAnti: return "anti";
    case JoinType::kAntiNullAware: return "anti-nullaware";
  }
  return "?";
}

Schema JoinOutputSchema(const Schema& probe, const Schema& build,
                        JoinType type) {
  Schema out;
  for (const Field& f : probe.fields()) out.AddField(f);
  if (type == JoinType::kInner || type == JoinType::kLeftOuter) {
    for (const Field& f : build.fields()) {
      Field nf = f;
      if (type == JoinType::kLeftOuter) nf.nullable = true;
      out.AddField(nf);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JoinBuildState
// ---------------------------------------------------------------------------

JoinBuildState::JoinBuildState(std::vector<OperatorPtr> chains,
                               std::vector<int> build_keys, int radix_bits,
                               int64_t estimated_rows, bool allow_radix_resize)
    : chains_(std::move(chains)),
      build_keys_(std::move(build_keys)),
      radix_bits_(radix_bits < 0 ? 0 : radix_bits),
      estimated_rows_(estimated_rows),
      allow_radix_resize_(allow_radix_resize) {
  build_schema_ = chains_.front()->output_schema();
}

/// Resets a partition to the empty-but-probeable deferred shape: no
/// resident rows or charge, and a one-slot empty bucket table so a stray
/// Head() misses instead of faulting. Shared by the two merge-time defer
/// sites and the pair-phase release.
static void ResetPartitionToDeferred(JoinBuildState::Partition* part) {
  part->rows.reset();
  std::vector<uint64_t>().swap(part->hashes);
  std::vector<int64_t>().swap(part->next);
  part->buckets.assign(1, -1);
  part->bucket_mask = 0;
  part->mem.ReleaseAll();
}

void JoinBuildState::IndexPartition(Partition* part) {
  const int64_t n = part->rows->rows();
  part->buckets.assign(JoinBucketCount(n), -1);
  part->bucket_mask = part->buckets.size() - 1;
  part->next.assign(n, -1);
  for (int64_t r = 0; r < n; r++) {
    const uint64_t slot = part->hashes[r] & part->bucket_mask;
    part->next[r] = part->buckets[slot];
    part->buckets[slot] = r;
  }
}

Status JoinBuildState::Build(ExecContext* ctx) {
  TaskScheduler* sched =
      ctx->scheduler != nullptr ? ctx->scheduler : TaskScheduler::Global();
  const int W = static_cast<int>(chains_.size());
  const int P = num_partitions();

  // Per-worker, per-partition partials: rows are routed by the top hash
  // bits as they are drained, so the merge phase below has no
  // cross-partition (and no cross-worker) data dependencies at all.
  // Partition buffers allocate lazily on first touch — a build whose
  // hashes only reach a few partitions (or a tiny build the planner
  // could not predict) pays nothing for the empty ones.
  struct WorkerPartial {
    std::vector<std::unique_ptr<RowBuffer>> rows;    // one per partition
    std::vector<std::vector<uint64_t>> hashes;       // parallel to rows
    bool saw_null_key = false;
    MemoryReservation reserv;  // tracks this worker's partial footprint
    int64_t spill_bytes = 0, spill_chunks = 0, spill_rows = 0;
  };
  std::vector<WorkerPartial> partials(W);
  spilled_.clear();
  spilled_.resize(P);
  spilled_rows_.assign(P, 0);
  spilled_bytes_.assign(P, 0);

  // Phase 1 — drain pipeline: tasks drain the cloned chains (sharing one
  // morsel source underneath), hashing keys vectorized and scattering
  // rows into partition buffers. Rows with a NULL key can never match
  // any probe; they only matter through the has_null_key poison flag, so
  // they are dropped here instead of being stored unreachable.
  // Tagged with `this` so losers of the EnsureBuilt race can help.
  //
  // Memory governance: after every batch the worker grows its
  // reservation to its actual footprint. On failure it spills its
  // largest radix partition (the whole partition-so-far, one blob) and
  // retries; with spilling disabled the kResourceExhausted status fails
  // this task, which cancels the group and unwinds the build.
  X100_RETURN_IF_ERROR(RunPipelineTasks(
      sched, ctx->quota, ctx->cancel, W,
      [this, &partials, ctx, P](int w, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        WorkerPartial& part = partials[w];
        part.rows.resize(P);
        part.hashes.resize(P);
        part.reserv.Init(ctx->memory);
        auto footprint = [&part, P]() {
          int64_t b = 0;
          for (int p = 0; p < P; p++) {
            if (part.rows[p] != nullptr) {
              b += static_cast<int64_t>(part.rows[p]->MemoryBytes());
            }
            b += static_cast<int64_t>(part.hashes[p].capacity() *
                                      sizeof(uint64_t));
          }
          return b;
        };
        // Writes the worker's largest non-empty partition to disk and
        // frees it, returning the freed bytes; 0 when nothing (worth the
        // round trip) is left — totals under kMinSpillBytes make
        // GrowOrSpill force-admit the remainder instead of churning
        // through micro-spills. A failed spill WRITE (the device filling
        // up) is a real error and unwinds the pipeline.
        auto spill_one = [this, &part, ctx, P]() -> Result<int64_t> {
          int victim = -1;
          size_t best = 0;
          size_t spillable = 0;
          for (int p = 0; p < P; p++) {
            if (part.rows[p] == nullptr || part.rows[p]->rows() == 0) {
              continue;
            }
            const size_t b = part.rows[p]->MemoryBytes() +
                             part.hashes[p].capacity() * sizeof(uint64_t);
            spillable += b;
            if (victim < 0 || b > best) {
              best = b;
              victim = p;
            }
          }
          if (victim < 0 ||
              spillable < static_cast<size_t>(kMinSpillBytes)) {
            return int64_t{0};
          }
          const int64_t victim_rows = part.rows[victim]->rows();
          const std::vector<uint8_t> blob =
              SerializeBuildChunk(*part.rows[victim], part.hashes[victim]);
          SpillFile file;
          X100_ASSIGN_OR_RETURN(file,
                                SpillFile::Write(ctx->spill_device, blob));
          part.spill_bytes += file.bytes();
          part.spill_chunks++;
          part.spill_rows += victim_rows;
          {
            std::lock_guard<std::mutex> lock(spill_mu_);
            spilled_[victim].push_back(std::move(file));
            spilled_rows_[victim] += victim_rows;
            spilled_bytes_[victim] += static_cast<int64_t>(blob.size());
          }
          part.rows[victim].reset();
          std::vector<uint64_t>().swap(part.hashes[victim]);
          return static_cast<int64_t>(best);
        };
        auto ensure = [&]() -> Status {
          return GrowOrSpill(&part.reserv, ctx->spill_device != nullptr,
                             footprint, spill_one);
        };
        std::vector<uint64_t> hash_scratch(ctx->vector_size);
        RadixGroups<sel_t, uint64_t> groups(P);
        Operator* chain = chains_[w].get();
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
          const Batch& batch = **b;
          const int n = batch.ActiveRows();
          const sel_t* sel = batch.sel();
          bool first = true;
          for (int c : build_keys_) {
            hashk::HashColumn(*batch.column(c), n, sel,
                              hash_scratch.data(), !first, ctx->simd);
            first = false;
          }
          groups.Clear();
          for (int j = 0; j < n; j++) {
            const int i = sel ? sel[j] : j;
            bool null_key = false;
            for (int c : build_keys_) {
              null_key |= batch.column(c)->IsNull(i);
            }
            if (null_key) {
              part.saw_null_key = true;  // poison for NOT IN semantics
              continue;
            }
            groups.Add(PartitionOf(hash_scratch[j]), i, hash_scratch[j]);
          }
          const std::vector<const Vector*> cols = batch.columns();
          for (size_t p : groups.touched()) {
            const auto& g = groups.group(p);
            if (part.rows[p] == nullptr) {
              part.rows[p] = std::make_unique<RowBuffer>(build_schema_);
            }
            part.rows[p]->Append(cols, g.pos.data(), 0,
                                 static_cast<int>(g.pos.size()));
            part.hashes[p].insert(part.hashes[p].end(), g.tag.begin(),
                                  g.tag.end());
          }
          s = ensure();
        }
        chain->Close();
        if (part.spill_chunks > 0) {
          OperatorProfile prof;
          prof.op = "JoinBuildSpill";
          prof.rows = part.spill_rows;
          prof.spill_bytes = part.spill_bytes;
          prof.spills = part.spill_chunks;
          ctx->RecordOperator(std::move(prof));
        }
        return s;
      },
      /*help_tag=*/this));

  for (const WorkerPartial& p : partials) has_null_key_ |= p.saw_null_key;

  // Phase 1.5 — dynamic radix re-sizing: the drain just OBSERVED the
  // build cardinality; when it dwarfs the planner's scan-spine estimate
  // (kRadixResizeFactor, e.g. PDT-inserted rows invisible to base-table
  // counts) the tiny-build skip picked too few partitions — one huge
  // merge task, one un-spillable Grace partition. Refinement is
  // hierarchical (a partition under b1 bits splits exactly into
  // 2^(b2-b1) partitions under b2 bits), so one repartition fan-out (one
  // task per OLD partition, touching disjoint new partitions) re-buckets
  // resident partials in memory and splits spilled chunks through one
  // disk round trip.
  int64_t observed = 0;
  for (const WorkerPartial& wp : partials) {
    for (int p = 0; p < P; p++) {
      observed += static_cast<int64_t>(wp.hashes[p].size());
    }
  }
  for (int p = 0; p < P; p++) observed += spilled_rows_[p];
  if (allow_radix_resize_ && estimated_rows_ >= 0 &&
      observed >= kRadixResizeFactor * std::max<int64_t>(estimated_rows_, 1) &&
      RadixBitsForObserved(observed) > radix_bits_) {
    const int new_bits = RadixBitsForObserved(observed);
    const int P2 = 1 << new_bits;
    // Move every worker's old partials aside BEFORE the fan-out: old
    // partition q's buffers live at index q, which aliases NEW partition
    // q (a child of old partition q >> d) — splitting in place would
    // have task 0 writing child slots that still hold task 1's source.
    struct OldPartial {
      std::vector<std::unique_ptr<RowBuffer>> rows;
      std::vector<std::vector<uint64_t>> hashes;
    };
    std::vector<OldPartial> old_partials(W);
    for (int w = 0; w < W; w++) {
      old_partials[w].rows = std::move(partials[w].rows);
      old_partials[w].hashes = std::move(partials[w].hashes);
      partials[w].rows.clear();
      partials[w].rows.resize(P2);
      partials[w].hashes.clear();
      partials[w].hashes.resize(P2);
    }
    std::vector<std::vector<SpillFile>> old_spilled = std::move(spilled_);
    spilled_.clear();
    spilled_.resize(P2);
    spilled_rows_.assign(P2, 0);
    spilled_bytes_.assign(P2, 0);
    const int old_bits = radix_bits_;
    radix_bits_ = new_bits;  // PartitionOf now routes at the new width
    X100_RETURN_IF_ERROR(RunPipelineTasks(
        sched, ctx->quota, ctx->cancel, P,
        [this, &partials, &old_partials, &old_spilled, ctx, observed,
         old_bits, new_bits](int q, TaskGroup& group) -> Status {
          X100_RETURN_IF_ERROR(group.CheckCancel());
          const int64_t t0 = NowNs();
          // Old partition q refines into new partitions
          // [q << d, (q + 1) << d): every task reads only its own old
          // partition and writes only its own child range, so the
          // fan-out needs no locking.
          //
          // The repartition's transient duplication (an old partial
          // alive while its child copies grow; a reloaded chunk plus
          // its split halves) is force-charged as minimum working set —
          // the resize cannot proceed with less, and the tracker must
          // see the real footprint, not just the settled state. The
          // RAII release at task end returns it before the merge phase
          // reserves.
          MemoryReservation transient;
          transient.Init(ctx->memory);
          int64_t transient_hwm = 0;
          auto charge = [&transient, &transient_hwm](int64_t b) {
            if (b > transient_hwm) {
              transient_hwm = b;
              transient.ForceGrowTo(b);
            }
          };
          const int d = new_bits - old_bits;
          const size_t first_child = static_cast<size_t>(q) << d;
          // Appends src's rows to the child partitions' buffers
          // (out_rows[c] for child first_child + c), grouped a chunk of
          // rows at a time so the routing scratch stays small.
          RadixGroups<int64_t, uint64_t> groups(size_t{1} << d);
          auto split = [&](const RowBuffer& src,
                           const std::vector<uint64_t>& hashes,
                           std::unique_ptr<RowBuffer>* out_rows,
                           std::vector<uint64_t>* out_hashes) {
            for (int64_t begin = 0; begin < src.rows();
                 begin += kProbeSpillChunkRows) {
              const int64_t end =
                  std::min(src.rows(), begin + kProbeSpillChunkRows);
              groups.Clear();
              for (int64_t r = begin; r < end; r++) {
                groups.Add(PartitionOf(hashes[r]) - first_child, r,
                           hashes[r]);
              }
              for (size_t c : groups.touched()) {
                const auto& g = groups.group(c);
                if (out_rows[c] == nullptr) {
                  out_rows[c] = std::make_unique<RowBuffer>(build_schema_);
                }
                out_rows[c]->AppendFrom(src, g.pos.data(),
                                        static_cast<int64_t>(g.pos.size()));
                out_hashes[c].insert(out_hashes[c].end(), g.tag.begin(),
                                     g.tag.end());
              }
            }
          };
          int64_t moved = 0;
          for (size_t w = 0; w < old_partials.size(); w++) {
            std::unique_ptr<RowBuffer> src =
                std::move(old_partials[w].rows[q]);
            std::vector<uint64_t> src_hashes;
            src_hashes.swap(old_partials[w].hashes[q]);
            if (src == nullptr) continue;
            charge(static_cast<int64_t>(src->MemoryBytes()) * 2 +
                   static_cast<int64_t>(src_hashes.capacity() *
                                        sizeof(uint64_t)));
            WorkerPartial& wp = partials[w];
            split(*src, src_hashes, &wp.rows[first_child],
                  &wp.hashes[first_child]);
            moved += src->rows();
          }
          // Spilled chunks of q split through one reload: each child
          // slice is rewritten as its own chunk and the parent chunk is
          // freed (the device recycles its blocks).
          for (SpillFile& chunk : old_spilled[q]) {
            std::vector<uint8_t> blob;
            X100_ASSIGN_OR_RETURN(blob, chunk.ReadAll(ctx->cancel));
            charge(static_cast<int64_t>(blob.size()) * 3);
            RowBuffer rows(build_schema_);
            std::vector<uint64_t> hashes;
            X100_RETURN_IF_ERROR(
                AppendBuildChunk(build_schema_, blob, &rows, &hashes));
            std::vector<std::unique_ptr<RowBuffer>> children(size_t{1} << d);
            std::vector<std::vector<uint64_t>> child_hashes(size_t{1} << d);
            split(rows, hashes, children.data(), child_hashes.data());
            for (size_t c = 0; c < children.size(); c++) {
              if (children[c] == nullptr) continue;
              const std::vector<uint8_t> child_blob =
                  SerializeBuildChunk(*children[c], child_hashes[c]);
              SpillFile file;
              X100_ASSIGN_OR_RETURN(
                  file, SpillFile::Write(ctx->spill_device, child_blob));
              const size_t child_p = first_child + c;
              spilled_rows_[child_p] += children[c]->rows();
              spilled_bytes_[child_p] +=
                  static_cast<int64_t>(child_blob.size());
              spilled_[child_p].push_back(std::move(file));
              moved += children[c]->rows();
            }
            chunk.Free();
          }
          OperatorProfile prof;
          prof.op = "JoinBuildResize";
          prof.rows = moved;
          prof.batches = observed;  // the trigger, for post-mortems
          prof.open_ns = NowNs() - t0;
          ctx->RecordOperator(std::move(prof));
          return Status::OK();
        },
        /*help_tag=*/this));
  }
  const int PM = num_partitions();

  // Phase 2 — merge fan-out: each partition is concatenated and
  // hash-indexed by its own scheduler task; partitions share nothing, so
  // the old single-threaded barrier merge becomes an embarrassingly
  // parallel pipeline. Each task records its own profile entry (timed
  // from here: the chain operators already reported their drain time, so
  // these carry only the merge + index cost — and per-partition entries
  // expose partition skew via the profile's max column).
  //
  // Admission (the Grace probe decision point): the task first RESERVES
  // its estimated resident footprint. A partition that does not fit is
  // DEFERRED — its resident partials are shipped to disk next to its
  // drain-spilled chunks and the partition is joined later, pairwise
  // against the probe rows that hash to it — instead of force-charged,
  // which is what used to make memory_limit a fiction for the probe
  // phase. With spilling disabled the old guarantee stands: the table is
  // force-admitted resident (minimum working set of an in-memory join).
  partitions_.clear();
  partitions_.resize(PM);
  probe_spilled_.clear();
  probe_spilled_.resize(PM);
  return RunPipelineTasks(
      sched, ctx->quota, ctx->cancel, PM,
      [this, &partials, ctx](int p, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        const int64_t t0 = NowNs();
        Partition& part = partitions_[p];
        part.mem.Init(ctx->memory);
        int64_t est_rows = spilled_rows_[p];
        int64_t est_bytes = spilled_bytes_[p];
        for (WorkerPartial& wp : partials) {
          if (wp.rows[p] == nullptr) continue;
          est_rows += static_cast<int64_t>(wp.hashes[p].size());
          est_bytes += static_cast<int64_t>(wp.rows[p]->MemoryBytes()) +
                       static_cast<int64_t>(wp.hashes[p].capacity() *
                                            sizeof(uint64_t));
        }
        est_bytes += IndexBytes(est_rows);
        const bool can_defer =
            ctx->spill_device != nullptr && ctx->memory != nullptr;
        auto defer_partials = [this, &partials, ctx, p]() -> Status {
          int64_t bytes = 0, rows = 0, chunks = 0;
          for (WorkerPartial& wp : partials) {
            if (wp.rows[p] == nullptr || wp.rows[p]->rows() == 0) continue;
            int64_t written;
            X100_ASSIGN_OR_RETURN(
                written, WriteBuildChunks(*wp.rows[p], wp.hashes[p],
                                          ctx->spill_device, &spilled_[p],
                                          &chunks));
            bytes += written;
            rows += wp.rows[p]->rows();
            spilled_rows_[p] += wp.rows[p]->rows();
            spilled_bytes_[p] += written;
            wp.rows[p].reset();
            std::vector<uint64_t>().swap(wp.hashes[p]);
          }
          if (chunks > 0) {
            OperatorProfile prof;
            prof.op = "JoinBuildDefer";
            prof.rows = rows;
            prof.spill_bytes = bytes;
            prof.spills = chunks;
            ctx->RecordOperator(std::move(prof));
          }
          return Status::OK();
        };
        if (can_defer && est_rows > 0 && !part.mem.GrowTo(est_bytes).ok()) {
          X100_RETURN_IF_ERROR(defer_partials());
          ResetPartitionToDeferred(&part);
          part.deferred = true;
          any_deferred_.store(true, std::memory_order_relaxed);
          OperatorProfile prof;
          prof.op = "JoinBuildMerge";
          prof.rows = 0;
          prof.open_ns = NowNs() - t0;
          ctx->RecordOperator(std::move(prof));
          return Status::OK();
        }
        const int W = static_cast<int>(partials.size());
        if (W == 1 && spilled_[p].empty() &&
            partials[0].rows[p] != nullptr) {
          part.rows = std::move(partials[0].rows[p]);
          part.hashes = std::move(partials[0].hashes[p]);
        } else {
          part.rows = std::make_unique<RowBuffer>(build_schema_);
          for (WorkerPartial& wp : partials) {
            if (wp.rows[p] == nullptr) continue;
            part.rows->AppendFrom(*wp.rows[p]);
            part.hashes.insert(part.hashes.end(), wp.hashes[p].begin(),
                               wp.hashes[p].end());
          }
          for (SpillFile& file : spilled_[p]) {
            std::vector<uint8_t> blob;
            X100_ASSIGN_OR_RETURN(blob, file.ReadAll(ctx->cancel));
            X100_RETURN_IF_ERROR(AppendBuildChunk(
                build_schema_, blob, part.rows.get(), &part.hashes));
            file.Free();  // consumed: the device recycles the blocks now
          }
          spilled_[p].clear();
          spilled_rows_[p] = 0;
          spilled_bytes_[p] = 0;
        }
        const int64_t n = part.rows->rows();
        IndexPartition(&part);
        // Settle the estimate against the materialized footprint. If the
        // actual size no longer fits (allocator slack past the
        // estimate), the partition is serialized back out and deferred —
        // never force-charged — so resident partitions are always WITHIN
        // the budget. Without a spill device the old force-admit stands.
        const int64_t actual =
            static_cast<int64_t>(part.rows->MemoryBytes()) +
            static_cast<int64_t>((part.buckets.capacity() +
                                  part.next.capacity() +
                                  part.hashes.capacity()) *
                                 sizeof(int64_t));
        if (actual <= part.mem.charged()) {
          part.mem.ShrinkTo(actual);
        } else if (!can_defer) {
          part.mem.ForceGrowTo(actual);
        } else if (!part.mem.GrowTo(actual).ok()) {
          int64_t written, chunks = 0;
          X100_ASSIGN_OR_RETURN(
              written, WriteBuildChunks(*part.rows, part.hashes,
                                        ctx->spill_device, &spilled_[p],
                                        &chunks));
          OperatorProfile dprof;
          dprof.op = "JoinBuildDefer";
          dprof.rows = n;
          dprof.spill_bytes = written;
          dprof.spills = chunks;
          ctx->RecordOperator(std::move(dprof));
          spilled_rows_[p] = n;
          spilled_bytes_[p] = written;
          ResetPartitionToDeferred(&part);
          part.deferred = true;
          any_deferred_.store(true, std::memory_order_relaxed);
        }
        OperatorProfile prof;
        prof.op = "JoinBuildMerge";
        prof.rows = part.deferred ? 0 : n;
        prof.open_ns = NowNs() - t0;
        prof.mem_bytes = part.mem.charged();
        ctx->RecordOperator(std::move(prof));
        return Status::OK();
      },
      /*help_tag=*/this);
}

Status JoinBuildState::EnsureBuilt(ExecContext* ctx) {
  // Probes call this once per batch: after a successful build, skip the
  // mutex so concurrent probe clones never serialize on it.
  if (built_ok_.load(std::memory_order_acquire)) return Status::OK();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (state_ == State::kBuilt) return build_status_;
    if (chains_closed_) {
      return Status::Cancelled("join build side already closed");
    }
    if (state_ == State::kBuilding) {
      // Another pipeline worker is building. Stealing an ARBITRARY task
      // from this frame could inline-execute work that depends on a
      // barrier suspended beneath us — an unrecoverable self-deadlock —
      // but tasks tagged with THIS build (its drain chains and its
      // per-partition merge tasks) never wait on this build's own
      // completion, so running them here is safe and turns the waiters
      // into extra build workers: without this, sibling pipeline tasks
      // parked in EnsureBuilt would occupy the whole pool and serialize
      // the merge fan-out onto the builder's thread.
      TaskScheduler* sched = ctx->scheduler != nullptr
                                 ? ctx->scheduler
                                 : TaskScheduler::Global();
      while (state_ != State::kBuilt) {
        lock.unlock();
        if (!sched->RunOneTask(/*tag=*/this)) {
          lock.lock();
          if (state_ != State::kBuilt) {
            built_cv_.wait_for(lock, std::chrono::milliseconds(1));
          }
        } else {
          lock.lock();
        }
      }
      return build_status_;
    }
    state_ = State::kBuilding;
  }
  const Status s = Build(ctx);
  {
    std::lock_guard<std::mutex> lock(mu_);
    build_status_ = s;
    state_ = State::kBuilt;
  }
  if (s.ok()) built_ok_.store(true, std::memory_order_release);
  built_cv_.notify_all();
  return s;
}

void JoinBuildState::CloseChains() {
  std::lock_guard<std::mutex> lock(mu_);
  if (chains_closed_) return;
  if (state_ == State::kBuilding) return;  // build tasks own them right now
  chains_closed_ = true;
  for (OperatorPtr& c : chains_) {
    if (c) c->Close();
  }
}

bool JoinBuildState::FinishProber(
    std::vector<std::vector<SpillFile>> probe_chunks) {
  std::lock_guard<std::mutex> lock(probe_mu_);
  if (probe_spilled_.size() < probe_chunks.size()) {
    probe_spilled_.resize(probe_chunks.size());
  }
  for (size_t p = 0; p < probe_chunks.size(); p++) {
    for (SpillFile& f : probe_chunks[p]) {
      probe_spilled_[p].push_back(std::move(f));
    }
  }
  probers_finished_++;
  return probers_finished_ ==
         probers_registered_.load(std::memory_order_acquire);
}

std::vector<int> JoinBuildState::DeferredPairList() const {
  std::vector<int> pairs;
  for (size_t p = 0; p < partitions_.size(); p++) {
    if (partitions_[p].deferred && p < probe_spilled_.size() &&
        !probe_spilled_[p].empty()) {
      pairs.push_back(static_cast<int>(p));
    }
  }
  return pairs;
}

Result<int64_t> JoinBuildState::LoadDeferredPartition(
    int p, ExecContext* ctx, std::vector<std::vector<uint8_t>>* preloaded) {
  Partition& part = partitions_[p];
  part.rows = std::make_unique<RowBuffer>(build_schema_);
  part.hashes.clear();
  const bool use_preloaded =
      preloaded != nullptr && preloaded->size() == spilled_[p].size();
  for (size_t i = 0; i < spilled_[p].size(); i++) {
    std::vector<uint8_t> blob;
    if (use_preloaded) {
      blob = std::move((*preloaded)[i]);
    } else {
      X100_ASSIGN_OR_RETURN(blob, spilled_[p][i].ReadAll(ctx->cancel));
    }
    X100_RETURN_IF_ERROR(AppendBuildChunk(build_schema_, blob,
                                          part.rows.get(), &part.hashes));
  }
  IndexPartition(&part);
  const int64_t bytes =
      static_cast<int64_t>(part.rows->MemoryBytes()) +
      static_cast<int64_t>((part.buckets.capacity() + part.next.capacity() +
                            part.hashes.capacity()) *
                           sizeof(int64_t));
  // The pair IS the minimum working set of a deferred partition — it
  // cannot be subdivided further, so it is force-admitted (the
  // documented floor: limit + one pair + SpillForceAdmitSlack).
  part.mem.Init(ctx->memory);
  part.mem.ForceGrowTo(bytes);
  return bytes;
}

void JoinBuildState::ReleaseDeferredPartition(int p) {
  Partition& part = partitions_[p];
  ResetPartitionToDeferred(&part);
  for (SpillFile& f : spilled_[p]) f.Free();
  spilled_[p].clear();
  for (SpillFile& f : probe_spilled_[p]) f.Free();
  probe_spilled_[p].clear();
}

// ---------------------------------------------------------------------------
// JoinProber
// ---------------------------------------------------------------------------

void JoinProber::Init(JoinBuildState* state, std::vector<int> probe_keys,
                      JoinType type, const Schema* probe_schema,
                      const Schema* out_schema) {
  state_ = state;
  probe_keys_ = std::move(probe_keys);
  type_ = type;
  probe_schema_ = probe_schema;
  out_schema_ = out_schema;
}

Status JoinProber::Open(ExecContext* ctx) {
  out_ = std::make_unique<Batch>(*out_schema_, ctx->vector_size);
  probe_hashes_.resize(ctx->vector_size);
  simd_ = ctx->simd;
  prefetch_ = ctx->simd != SimdLevel::kScalar;
  probe_batch_ = nullptr;
  probe_pos_ = 0;
  chain_pos_ = -1;
  row_matched_ = false;
  eos_ = false;
  finished_ = false;
  pair_mode_ = false;
  return Status::OK();
}

void JoinProber::Close(ExecContext* ctx) {
  DropPairPrefetch();
  if (ctx != nullptr && pair_prefetch_issued_ > 0) {
    OperatorProfile prof;
    prof.op = "JoinPairPrefetch";
    prof.rows = pair_prefetch_adopted_;  // pairs whose IO was hidden
    prof.spills = pair_prefetch_issued_;
    ctx->RecordOperator(std::move(prof));
    pair_prefetch_issued_ = pair_prefetch_adopted_ = 0;
  }
  if (ctx != nullptr && probe_spill_chunks_ > 0) {
    OperatorProfile prof;
    prof.op = "JoinProbeSpill";
    prof.rows = probe_spill_rows_;
    prof.spill_bytes = probe_spill_bytes_;
    prof.spills = probe_spill_chunks_;
    ctx->RecordOperator(std::move(prof));
    probe_spill_bytes_ = probe_spill_chunks_ = probe_spill_rows_ = 0;
  }
  defer_rows_.clear();
  defer_chunks_.clear();
  defer_mem_.ReleaseAll();
  pair_mem_.ReleaseAll();
  pair_probe_rows_.reset();
}

bool JoinProber::ProbeKeyHasNull(const Batch& probe, int i) const {
  for (int c : probe_keys_) {
    if (probe.column(c)->IsNull(i)) return true;
  }
  return false;
}

bool JoinProber::KeysEqual(const Batch& probe, int probe_i,
                           const RowBuffer& rows, int64_t build_row) const {
  const std::vector<int>& bkeys = state_->build_keys();
  for (size_t k = 0; k < probe_keys_.size(); k++) {
    const Vector* pv = probe.column(probe_keys_[k]);
    const int bc = bkeys[k];
    switch (pv->type()) {
      case TypeId::kBool:
        if (pv->Data<uint8_t>()[probe_i] !=
            rows.Col<uint8_t>(bc)[build_row]) return false;
        break;
      case TypeId::kI8:
        if (pv->Data<int8_t>()[probe_i] !=
            rows.Col<int8_t>(bc)[build_row]) return false;
        break;
      case TypeId::kI16:
        if (pv->Data<int16_t>()[probe_i] !=
            rows.Col<int16_t>(bc)[build_row]) return false;
        break;
      case TypeId::kI32:
      case TypeId::kDate:
        if (pv->Data<int32_t>()[probe_i] !=
            rows.Col<int32_t>(bc)[build_row]) return false;
        break;
      case TypeId::kI64:
        if (pv->Data<int64_t>()[probe_i] !=
            rows.Col<int64_t>(bc)[build_row]) return false;
        break;
      case TypeId::kF64:
        if (pv->Data<double>()[probe_i] !=
            rows.Col<double>(bc)[build_row]) return false;
        break;
      case TypeId::kStr:
        if (pv->Data<StrRef>()[probe_i] !=
            rows.Col<StrRef>(bc)[build_row]) return false;
        break;
    }
  }
  return true;
}

void JoinProber::EmitPair(const Batch& probe, int probe_i,
                          const RowBuffer& build, int64_t build_row,
                          int out_i) {
  const int pcols = probe.num_columns();
  for (int c = 0; c < pcols; c++) {
    const Vector& src = *probe.column(c);
    Vector* dst = out_->column(c);
    dst->CopyFrom(src, probe_i, 1, out_i);
  }
  for (int c = 0; c < build.schema().num_fields(); c++) {
    build.GatherCell(c, build_row, out_->column(pcols + c), out_i);
  }
}

void JoinProber::EmitProbeOnly(const Batch& probe, int probe_i, int out_i,
                               bool null_build_side) {
  const int pcols = probe.num_columns();
  for (int c = 0; c < pcols; c++) {
    out_->column(c)->CopyFrom(*probe.column(c), probe_i, 1, out_i);
  }
  if (null_build_side) {
    for (int c = pcols; c < out_->num_columns(); c++) {
      out_->column(c)->SetNull(out_i);
    }
  }
}

// --- Grace probe-side spill ------------------------------------------------

Status JoinProber::DeferRow(int i, size_t partition) {
  if (defer_rows_.empty()) {
    defer_rows_.resize(state_->num_partitions());
    defer_chunks_.resize(state_->num_partitions());
  }
  if (defer_rows_[partition] == nullptr) {
    defer_rows_[partition] = std::make_unique<RowBuffer>(*probe_schema_);
  }
  defer_rows_[partition]->Append(probe_cols_, nullptr, i, 1);
  return Status::OK();
}

/// Writes partition `victim`'s deferred probe rows as chunks of at most
/// kProbeSpillChunkRows rows each (the pair phase reloads one chunk at a
/// time, so chunk size bounds the pair's probe-side working set) and
/// frees the buffer. Returns the resident bytes freed.
Result<int64_t> JoinProber::SpillDeferredPartition(ExecContext* ctx,
                                                   int victim) {
  RowBuffer& rows = *defer_rows_[victim];
  const int64_t freed = static_cast<int64_t>(rows.MemoryBytes());
  for (int64_t begin = 0; begin < rows.rows();
       begin += kProbeSpillChunkRows) {
    const int64_t end =
        std::min<int64_t>(rows.rows(), begin + kProbeSpillChunkRows);
    std::vector<uint8_t> blob;
    rows.Serialize(nullptr, begin, end, &blob);
    SpillFile file;
    X100_ASSIGN_OR_RETURN(file, SpillFile::Write(ctx->spill_device, blob));
    probe_spill_bytes_ += file.bytes();
    probe_spill_chunks_++;
    defer_chunks_[victim].push_back(std::move(file));
  }
  probe_spill_rows_ += rows.rows();
  defer_rows_[victim].reset();
  return freed;
}

Status JoinProber::EnsureDeferReservation(ExecContext* ctx) {
  if (defer_rows_.empty()) return Status::OK();
  defer_mem_.Init(ctx->memory);
  const auto footprint = [this]() {
    int64_t b = 0;
    for (const auto& rb : defer_rows_) {
      if (rb != nullptr) b += static_cast<int64_t>(rb->MemoryBytes());
    }
    return b;
  };
  // Same policy as the drain: spill the largest deferred buffer, floor
  // kMinSpillBytes so pressure from other operators cannot degrade this
  // into per-row chunks.
  const auto spill_some = [this, ctx]() -> Result<int64_t> {
    int victim = -1;
    size_t best = 0, spillable = 0;
    for (size_t p = 0; p < defer_rows_.size(); p++) {
      if (defer_rows_[p] == nullptr || defer_rows_[p]->rows() == 0) continue;
      const size_t b = defer_rows_[p]->MemoryBytes();
      spillable += b;
      if (victim < 0 || b > best) {
        best = b;
        victim = static_cast<int>(p);
      }
    }
    if (victim < 0 || spillable < static_cast<size_t>(kMinSpillBytes)) {
      return int64_t{0};
    }
    return SpillDeferredPartition(ctx, victim);
  };
  return GrowOrSpill(&defer_mem_, ctx->spill_device != nullptr, footprint,
                     spill_some);
}

Status JoinProber::SpillAllDeferred(ExecContext* ctx) {
  for (size_t p = 0; p < defer_rows_.size(); p++) {
    if (defer_rows_[p] == nullptr || defer_rows_[p]->rows() == 0) continue;
    Result<int64_t> r = SpillDeferredPartition(ctx, static_cast<int>(p));
    X100_RETURN_IF_ERROR(r.status());
  }
  defer_mem_.ReleaseAll();
  return Status::OK();
}

// --- Partition-pair streaming (last finisher) ------------------------------

Status JoinProber::StartPair(ExecContext* ctx) {
  const int p = pair_parts_[pair_idx_];
  pair_t0_ = NowNs();
  pair_rows_ = 0;
  has_adopted_probe_blob_ = false;
  adopted_probe_blob_.clear();
  // Adopt the read-ahead if it targeted this pair. Error parking rule:
  // a background read failure surfaces when a demand read actually needs
  // the bytes — and starting this pair IS that demand, so a real IO
  // error propagates here instead of being silently retried (a corrupt
  // spill chunk must fail the query whether read ahead or on demand).
  // Only a cancelled group falls back to the synchronous loads, whose
  // own cancel checks decide.
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<std::vector<uint8_t>>* preloaded = nullptr;
  if (next_pair_.part == p && next_pair_.tasks != nullptr) {
    const Status s = next_pair_.tasks->Wait();
    if (s.ok()) {
      blobs = std::move(next_pair_.build_blobs);
      preloaded = &blobs;
      if (next_pair_.has_probe_blob) {
        adopted_probe_blob_ = std::move(next_pair_.probe_blob);
        has_adopted_probe_blob_ = true;
      }
      pair_prefetch_adopted_++;
    } else if (!s.IsCancelled()) {
      DropPairPrefetch();
      return s;
    }
  }
  DropPairPrefetch();  // refund the budget: the blobs are demand-owned now
  X100_ASSIGN_OR_RETURN(pair_build_bytes_,
                        state_->LoadDeferredPartition(p, ctx, preloaded));
  pair_mem_.Init(ctx->memory);
  pair_mem_hwm_ = pair_build_bytes_;
  pair_chunk_ = 0;
  pair_row_ = 0;
  pair_probe_rows_.reset();
  if (pair_batch_ == nullptr) {
    pair_batch_ = std::make_unique<Batch>(*probe_schema_, ctx->vector_size);
  }
  // This pair is resident and about to probe — start the next pair's
  // spill reads behind it.
  MaybePrefetchNextPair(ctx);
  return Status::OK();
}

void JoinProber::MaybePrefetchNextPair(ExecContext* ctx) {
  if (pair_idx_ + 1 >= pair_parts_.size()) return;
  if (ctx->buffers == nullptr || ctx->scheduler == nullptr) return;
  if (!ctx->buffers->prefetch_enabled()) return;
  const int p = pair_parts_[pair_idx_ + 1];
  const std::vector<SpillFile>& build = state_->build_chunks(p);
  const std::vector<SpillFile>& probe = state_->probe_chunks(p);
  int64_t bytes = 0;
  for (const SpillFile& f : build) bytes += f.bytes();
  if (!probe.empty()) bytes += probe[0].bytes();
  if (bytes <= 0) return;
  // Ahead-of-demand bytes ride the buffer pool's read-ahead budget, not
  // the query memory limit — during the pair phase the resident pair
  // already sits at the documented memory floor, so a TryReserve there
  // would structurally never succeed. Refused charge = no prefetch.
  if (!ctx->buffers->TryChargePrefetchBytes(bytes)) return;
  next_pair_.part = p;
  next_pair_.charged_bytes = bytes;
  next_pair_.buffers = ctx->buffers;
  next_pair_.build_blobs.assign(build.size(), {});
  next_pair_.has_probe_blob = !probe.empty();
  next_pair_.probe_blob.clear();
  next_pair_.tasks =
      std::make_unique<TaskGroup>(ctx->scheduler, ctx->cancel);
  pair_prefetch_issued_++;
  PairPrefetch* pf = &next_pair_;
  CancellationToken* cancel = ctx->cancel;
  next_pair_.tasks->Spawn([this, pf, p, cancel]() -> Status {
    const std::vector<SpillFile>& bchunks = state_->build_chunks(p);
    for (size_t i = 0; i < bchunks.size(); i++) {
      X100_ASSIGN_OR_RETURN(pf->build_blobs[i], bchunks[i].ReadAll(cancel));
    }
    if (pf->has_probe_blob) {
      X100_ASSIGN_OR_RETURN(pf->probe_blob,
                            state_->probe_chunks(p)[0].ReadAll(cancel));
    }
    return Status::OK();
  });
}

void JoinProber::DropPairPrefetch() {
  if (next_pair_.tasks != nullptr) {
    next_pair_.tasks->Cancel();
    next_pair_.tasks->Wait();
    next_pair_.tasks.reset();
  }
  if (next_pair_.charged_bytes > 0 && next_pair_.buffers != nullptr) {
    next_pair_.buffers->ReleasePrefetchBytes(next_pair_.charged_bytes);
  }
  next_pair_.part = -1;
  next_pair_.charged_bytes = 0;
  next_pair_.buffers = nullptr;
  next_pair_.build_blobs.clear();
  next_pair_.probe_blob.clear();
  next_pair_.has_probe_blob = false;
}

Status JoinProber::FinishPair(ExecContext* ctx) {
  const int p = pair_parts_[pair_idx_];
  OperatorProfile prof;
  prof.op = "JoinProbePair";
  prof.rows = pair_rows_;
  prof.open_ns = NowNs() - pair_t0_;
  prof.mem_bytes = pair_mem_hwm_;
  ctx->RecordOperator(std::move(prof));
  state_->ReleaseDeferredPartition(p);
  pair_mem_.ShrinkTo(0);
  pair_probe_rows_.reset();
  return Status::OK();
}

Result<bool> JoinProber::NextPairChunk(ExecContext* ctx) {
  const int p = pair_parts_[pair_idx_];
  const std::vector<SpillFile>& chunks = state_->probe_chunks(p);
  pair_probe_rows_.reset();
  pair_mem_.ShrinkTo(0);
  if (pair_chunk_ >= chunks.size()) return false;
  std::vector<uint8_t> blob;
  if (pair_chunk_ == 0 && has_adopted_probe_blob_) {
    blob = std::move(adopted_probe_blob_);
    has_adopted_probe_blob_ = false;
    adopted_probe_blob_.clear();
  } else {
    X100_ASSIGN_OR_RETURN(blob, chunks[pair_chunk_].ReadAll(ctx->cancel));
  }
  std::unique_ptr<RowBuffer> rb;
  X100_ASSIGN_OR_RETURN(
      rb, RowBuffer::Deserialize(*probe_schema_, blob.data(), blob.size()));
  pair_probe_rows_ = std::move(rb);
  pair_chunk_++;
  pair_row_ = 0;
  const int64_t b = static_cast<int64_t>(pair_probe_rows_->MemoryBytes());
  pair_mem_.ForceGrowTo(b);  // one bounded chunk: pair working set
  if (pair_build_bytes_ + b > pair_mem_hwm_) {
    pair_mem_hwm_ = pair_build_bytes_ + b;
  }
  return true;
}

Result<Batch*> JoinProber::NextProbeBatch(Operator* child, ExecContext* ctx) {
  if (!pair_mode_) {
    Batch* b;
    X100_ASSIGN_OR_RETURN(b, child->Next());
    if (b != nullptr) {
      // Budget check one batch behind: the rows deferred from the batch
      // just processed are covered before the next one grows the
      // buffers further (the final batch settles in SpillAllDeferred).
      if (state_->any_deferred()) {
        X100_RETURN_IF_ERROR(EnsureDeferReservation(ctx));
      }
      return b;
    }
    // Probe child exhausted. With deferred partitions, this prober's
    // chunks are handed to the shared state; the LAST prober to arrive
    // owns the pair phase — every other prober has already returned
    // end-of-stream to its sink, so the pairs have exactly one owner
    // and stream through this prober's (arbitrary, sinks merge anyway)
    // chain.
    if (finished_ || !state_->any_deferred()) return nullptr;
    finished_ = true;
    X100_RETURN_IF_ERROR(SpillAllDeferred(ctx));
    const bool last = state_->FinishProber(std::move(defer_chunks_));
    defer_chunks_.clear();
    defer_rows_.clear();
    if (!last) return nullptr;
    pair_parts_ = state_->DeferredPairList();
    if (pair_parts_.empty()) return nullptr;
    pair_mode_ = true;
    pair_idx_ = 0;
    X100_RETURN_IF_ERROR(StartPair(ctx));
  }
  while (true) {
    X100_RETURN_IF_ERROR(ctx->CheckCancel());
    if (pair_probe_rows_ != nullptr &&
        pair_row_ < pair_probe_rows_->rows()) {
      const int n = static_cast<int>(std::min<int64_t>(
          ctx->vector_size, pair_probe_rows_->rows() - pair_row_));
      pair_batch_->Reset();
      for (int c = 0; c < probe_schema_->num_fields(); c++) {
        Vector* col = pair_batch_->column(c);
        for (int r = 0; r < n; r++) {
          pair_probe_rows_->GatherCell(c, pair_row_ + r, col, r);
        }
      }
      pair_batch_->set_rows(n);
      pair_row_ += n;
      pair_rows_ += n;
      return pair_batch_.get();
    }
    bool more;
    X100_ASSIGN_OR_RETURN(more, NextPairChunk(ctx));
    if (!more) {
      X100_RETURN_IF_ERROR(FinishPair(ctx));
      pair_idx_++;
      if (pair_idx_ >= pair_parts_.size()) return nullptr;
      X100_RETURN_IF_ERROR(StartPair(ctx));
    }
  }
}

Result<Batch*> JoinProber::Next(Operator* child, ExecContext* ctx) {
  while (true) {
    if (eos_) return nullptr;
    X100_RETURN_IF_ERROR(ctx->CheckCancel());
    out_->Reset();
    int filled = 0;

    while (filled < ctx->vector_size) {
      if (probe_batch_ == nullptr) {
        X100_RETURN_IF_ERROR(ctx->CheckCancel());
        X100_ASSIGN_OR_RETURN(probe_batch_, NextProbeBatch(child, ctx));
        if (probe_batch_ == nullptr) {
          eos_ = true;
          break;
        }
        probe_cols_ = probe_batch_->columns();
        probe_pos_ = 0;
        chain_pos_ = -1;
        row_matched_ = false;
        // Hash all live probe keys for this batch.
        const int n = probe_batch_->ActiveRows();
        const sel_t* sel = probe_batch_->sel();
        bool first = true;
        for (int c : probe_keys_) {
          hashk::HashColumn(*probe_batch_->column(c), n, sel,
                            probe_hashes_.data(), !first, simd_);
          first = false;
        }
        // Prime the prefetch window: the whole batch's hashes are known,
        // so the first rows' bucket heads can start their trip from DRAM
        // before the probe loop touches them.
        if (prefetch_) {
          const int w = n < kPrefetchDistance ? n : kPrefetchDistance;
          for (int j = 0; j < w; j++) {
            state_->partition(probe_hashes_[j])
                .PrefetchBucket(probe_hashes_[j]);
          }
        }
      }

      const int n = probe_batch_->ActiveRows();
      const sel_t* sel = probe_batch_->sel();
      bool batch_done = true;
      while (probe_pos_ < n) {
        // Keep the in-flight window full: hint the bucket head the loop
        // will need kPrefetchDistance rows from now (resumed rows re-hint
        // harmlessly — prefetch is advisory).
        if (prefetch_ && probe_pos_ + kPrefetchDistance < n) {
          const uint64_t ph = probe_hashes_[probe_pos_ + kPrefetchDistance];
          state_->partition(ph).PrefetchBucket(ph);
        }
        const int i = sel ? sel[probe_pos_] : probe_pos_;
        const bool key_null = ProbeKeyHasNull(*probe_batch_, i);

        // Grace routing: a non-NULL-keyed row whose partition stayed on
        // disk cannot be probed now — it is buffered (and spilled) for
        // the partition-pair phase. NULL-keyed rows never need the
        // table, so every flavor's NULL semantics resolve immediately.
        if (!pair_mode_ && !key_null && state_->any_deferred() &&
            chain_pos_ < 0 && !row_matched_ &&
            state_->partition_deferred(
                state_->PartitionOf(probe_hashes_[probe_pos_]))) {
          X100_RETURN_IF_ERROR(
              DeferRow(i, state_->PartitionOf(probe_hashes_[probe_pos_])));
          probe_pos_++;
          continue;
        }

        if (type_ == JoinType::kSemi || type_ == JoinType::kAnti ||
            type_ == JoinType::kAntiNullAware) {
          bool matched = false;
          if (!key_null) {
            const uint64_t h = probe_hashes_[probe_pos_];
            const JoinBuildState::Partition& part = state_->partition(h);
            int64_t node = part.Head(h);
            while (node >= 0) {
              if (part.hashes[node] == h &&
                  KeysEqual(*probe_batch_, i, *part.rows, node)) {
                matched = true;
                break;
              }
              node = part.next[node];
            }
          }
          bool emit;
          switch (type_) {
            case JoinType::kSemi:
              emit = matched;
              break;
            case JoinType::kAnti:
              // NOT EXISTS: NULL keys never match, so the row survives.
              emit = !matched;
              break;
            case JoinType::kAntiNullAware:
            default:
              // NOT IN: any NULL in the build side or the probe key makes
              // the predicate non-TRUE -> drop.
              emit = !matched && !key_null && !state_->has_null_key();
              break;
          }
          if (emit) {
            EmitProbeOnly(*probe_batch_, i, filled, false);
            filled++;
          }
          probe_pos_++;
          if (filled >= ctx->vector_size) {
            batch_done = probe_pos_ >= n;
            break;
          }
          continue;
        }

        // Inner / left outer: walk (or resume) the chain. The partition
        // is a pure function of the probe hash, so a resumed row lands
        // back in the partition its chain_pos_ refers to.
        const uint64_t h = probe_hashes_[probe_pos_];
        const JoinBuildState::Partition& part = state_->partition(h);
        if (chain_pos_ < 0 && !row_matched_) {
          chain_pos_ = key_null ? -1 : part.Head(h);
        }
        bool overflowed = false;
        while (chain_pos_ >= 0) {
          const int64_t node = chain_pos_;
          chain_pos_ = part.next[node];
          if (part.hashes[node] == h &&
              KeysEqual(*probe_batch_, i, *part.rows, node)) {
            EmitPair(*probe_batch_, i, *part.rows, node, filled);
            filled++;
            row_matched_ = true;
            if (filled >= ctx->vector_size) {
              overflowed = true;
              break;
            }
          }
        }
        if (overflowed) {
          batch_done = false;
          break;
        }
        if (type_ == JoinType::kLeftOuter && !row_matched_) {
          EmitProbeOnly(*probe_batch_, i, filled, true);
          filled++;
        }
        probe_pos_++;
        chain_pos_ = -1;
        row_matched_ = false;
        if (filled >= ctx->vector_size) {
          batch_done = probe_pos_ >= n;
          break;
        }
      }
      if (probe_pos_ >= n && batch_done) probe_batch_ = nullptr;
      if (filled >= ctx->vector_size) break;
    }

    if (filled == 0) {
      if (eos_) return nullptr;
      continue;  // batch produced no output; pull the next one
    }
    out_->set_rows(filled);
    return out_.get();
  }
}

// ---------------------------------------------------------------------------
// JoinProbeOp (pipeline worker)
// ---------------------------------------------------------------------------

JoinProbeOp::JoinProbeOp(OperatorPtr probe, JoinBuildStatePtr state,
                         std::vector<int> probe_keys, JoinType type)
    : probe_child_(std::move(probe)),
      state_(std::move(state)),
      type_(type) {
  state_->RegisterProber();
  out_schema_ = JoinOutputSchema(probe_child_->output_schema(),
                                 state_->schema(), type_);
  prober_.Init(state_.get(), std::move(probe_keys), type_,
               &probe_child_->output_schema(), &out_schema_);
}

Status JoinProbeOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  X100_RETURN_IF_ERROR(probe_child_->Open(ctx));
  return prober_.Open(ctx);
}

void JoinProbeOp::CloseImpl() {
  if (probe_child_) probe_child_->Close();
  if (state_) state_->CloseChains();
  prober_.Close(ctx_);
}

Result<Batch*> JoinProbeOp::NextImpl() {
  X100_RETURN_IF_ERROR(state_->EnsureBuilt(ctx_));
  return prober_.Next(probe_child_.get(), ctx_);
}

}  // namespace x100
