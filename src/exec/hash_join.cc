#include "exec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>

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

/// Appends every row of `table` (rows + hashes) to `run`.
Status SpillTable(const HashTable& table, SpillDevice* device, SpillRun* run) {
  return run->Append(device, table.size(),
                     [&table](int64_t begin, int64_t end,
                              std::vector<uint8_t>* out) {
                       table.Serialize(begin, end, out);
                     });
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

/// Shared by the two merge-time defer sites, the last prober's release
/// and the pair-phase release: no resident rows or charge, and an empty
/// indexed table.
void JoinBuildState::ResetPartition(Partition* part) const {
  part->table = NewTable();
  part->table->BuildIndex();
  part->mem.ReleaseAll();
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
    std::vector<std::unique_ptr<HashTable>> tables;  // one per partition
    std::vector<SpillRun> spilled;                   // one per partition
    bool saw_null_key = false;
    MemoryReservation reserv;  // tracks this worker's partial footprint
    std::vector<uint64_t> hashes;       // one vector's key hashes
    RadixGroups<sel_t, uint64_t> groups;  // one vector's rows by partition
  };
  std::vector<WorkerPartial> partials(W);
  for (WorkerPartial& part : partials) {
    part.tables.resize(P);
    part.spilled.resize(P);
    part.reserv.Init(ctx->memory);
    part.hashes.resize(ctx->vector_size);
    part.groups = RadixGroups<sel_t, uint64_t>(P);
  }

  // Phase 1 — drain pipeline: the cloned chains (sharing one morsel
  // source underneath) are drained with their keys hashed vectorized and
  // their rows scattered into partition buffers. Rows with a NULL key can
  // never match any probe; they only matter through the has_null_key
  // poison flag, so they are dropped here instead of being stored
  // unreachable.
  //
  // Memory governance: after every batch the worker grows its
  // reservation to its actual footprint. On failure GrowOrSpill spills
  // radix partitions to the worker's runs by the one victim rule and
  // retries; with spilling disabled the kResourceExhausted status fails
  // the chain, which cancels the others and unwinds the build.
  X100_RETURN_IF_ERROR(DrainChains(
      ctx, Borrow(chains_),
      [this, &partials, ctx, P](int w, Batch& batch) -> Result<bool> {
        WorkerPartial& part = partials[w];
        const int n = batch.ActiveRows();
        const sel_t* sel = batch.sel();
        bool first = true;
        for (int c : build_keys_) {
          hashk::HashColumn(*batch.column(c), n, sel, part.hashes.data(),
                            !first, ctx->simd);
          first = false;
        }
        part.groups.Clear();
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
          part.groups.Add(PartitionOf(part.hashes[j]), i, part.hashes[j]);
        }
        const std::vector<const Vector*> cols = batch.columns();
        for (size_t p : part.groups.touched()) {
          const auto& g = part.groups.group(p);
          if (part.tables[p] == nullptr) part.tables[p] = NewTable();
          part.tables[p]->Append(cols, g.pos.data(), 0,
                                 static_cast<int>(g.pos.size()),
                                 g.tag.data());
        }
        X100_RETURN_IF_ERROR(GrowOrSpill(
            &part.reserv, ctx->spill_device != nullptr, P,
            [&part](size_t p) {
              const HashTable* t = part.tables[p].get();
              return t == nullptr
                         ? SpillPart{}
                         : SpillPart{static_cast<int64_t>(t->MemoryBytes()),
                                     t->size() > 0};
            },
            [&part, ctx](size_t p) -> Status {
              X100_RETURN_IF_ERROR(SpillTable(
                  *part.tables[p], ctx->spill_device, &part.spilled[p]));
              part.tables[p].reset();
              return Status::OK();
            }));
        return true;
      },
      [&partials, ctx](int w) -> Status {
        ctx->RecordSpill("JoinBuildSpill", partials[w].spilled.data(),
                         partials[w].spilled.size());
        return Status::OK();
      }));

  spilled_.clear();
  spilled_.resize(P);
  for (WorkerPartial& wp : partials) {
    has_null_key_ |= wp.saw_null_key;
    for (int p = 0; p < P; p++) spilled_[p].Splice(std::move(wp.spilled[p]));
  }

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
    for (const auto& t : wp.tables) {
      if (t != nullptr) observed += t->size();
    }
  }
  for (const SpillRun& run : spilled_) observed += run.rows();
  if (allow_radix_resize_ && estimated_rows_ >= 0 &&
      observed >= kRadixResizeFactor * std::max<int64_t>(estimated_rows_, 1) &&
      RadixBitsForObserved(observed) > radix_bits_) {
    const int new_bits = RadixBitsForObserved(observed);
    const int P2 = 1 << new_bits;
    // Move every worker's old partials aside BEFORE the fan-out: old
    // partition q's buffers live at index q, which aliases NEW partition
    // q (a child of old partition q >> d) — splitting in place would
    // have task 0 writing child slots that still hold task 1's source.
    std::vector<std::vector<std::unique_ptr<HashTable>>> old_tables(W);
    for (int w = 0; w < W; w++) {
      old_tables[w] = std::move(partials[w].tables);
      partials[w].tables.clear();
      partials[w].tables.resize(P2);
    }
    std::vector<SpillRun> old_spilled = std::move(spilled_);
    spilled_.clear();
    spilled_.resize(P2);
    const int old_bits = radix_bits_;
    radix_bits_ = new_bits;  // PartitionOf now routes at the new width
    X100_RETURN_IF_ERROR(RunPipelineTasks(
        sched, ctx->quota, ctx->cancel, P,
        [this, &partials, &old_tables, &old_spilled, ctx, observed,
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
          // Appends src's rows to the child partitions' tables
          // (out[c] for child first_child + c), grouped a chunk of rows at
          // a time so the routing scratch stays small.
          RadixGroups<int64_t, uint64_t> groups(size_t{1} << d);
          auto split = [&](const HashTable& src,
                           std::unique_ptr<HashTable>* out) {
            for (int64_t begin = 0; begin < src.size();
                 begin += kSpillChunkRows) {
              const int64_t end =
                  std::min(src.size(), begin + kSpillChunkRows);
              groups.Clear();
              for (int64_t r = begin; r < end; r++) {
                groups.Add(PartitionOf(src.hash(r)) - first_child, r,
                           src.hash(r));
              }
              for (size_t c : groups.touched()) {
                const auto& g = groups.group(c);
                if (out[c] == nullptr) out[c] = NewTable();
                out[c]->AppendFrom(src, g.pos.data(),
                                   static_cast<int64_t>(g.pos.size()));
              }
            }
          };
          int64_t moved = 0;
          for (size_t w = 0; w < old_tables.size(); w++) {
            const std::unique_ptr<HashTable> src = std::move(old_tables[w][q]);
            if (src == nullptr) continue;
            charge(static_cast<int64_t>(src->MemoryBytes()) * 2);
            split(*src, &partials[w].tables[first_child]);
            moved += src->size();
          }
          // Old partition q's run splits through one reload per chunk:
          // each child slice is appended to its child's run and the
          // parent chunk is freed (the device recycles its blocks). The
          // rewrites are spill writes of their own ("JoinBuildSpill").
          SpillRun& old_run = old_spilled[q];
          std::vector<SpillRun> written(size_t{1} << d);
          for (size_t i = 0; i < old_run.chunks(); i++) {
            std::vector<uint8_t> blob;
            X100_ASSIGN_OR_RETURN(blob, old_run.Take(i, ctx->cancel));
            charge(static_cast<int64_t>(blob.size()) * 3);
            HashTable reloaded(build_schema_, build_keys_);
            X100_RETURN_IF_ERROR(
                reloaded.AppendSerialized(blob.data(), blob.size()));
            std::vector<std::unique_ptr<HashTable>> children(written.size());
            split(reloaded, children.data());
            for (size_t c = 0; c < children.size(); c++) {
              if (children[c] == nullptr) continue;
              X100_RETURN_IF_ERROR(
                  SpillTable(*children[c], ctx->spill_device, &written[c]));
              moved += children[c]->size();
            }
          }
          ctx->RecordSpill("JoinBuildSpill", written.data(), written.size());
          for (size_t c = 0; c < written.size(); c++) {
            spilled_[first_child + c].Splice(std::move(written[c]));
          }
          OperatorProfile prof;
          prof.op = "JoinBuildResize";
          prof.rows = moved;
          prof.batches = observed;  // the trigger, for post-mortems
          prof.open_ns = NowNs() - t0;
          ctx->RecordOperator(std::move(prof));
          return Status::OK();
        }));
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
  // Each partition's rows are charged once. Before the fan-out every
  // worker's charge for its partition-p partial moves into partition p's
  // reservation (serially: a reservation has one writer), and the merge
  // consumes the partials, so the merged table inherits their charge.
  //
  // Admission (the Grace probe decision point): the task first RESERVES
  // its estimated resident footprint, which asks only for what is not
  // charged yet (the spilled chunks and the index). A partition that
  // does not fit is DEFERRED — its resident partials are shipped to disk
  // next to its drain-spilled chunks and the partition is joined later,
  // pairwise against the probe rows that hash to it — instead of
  // force-charged, which is what used to make memory_limit a fiction for
  // the probe phase. With spilling disabled the old guarantee stands:
  // the table is force-admitted resident (minimum working set of an
  // in-memory join).
  partitions_.clear();
  partitions_.resize(PM);
  probe_spilled_.clear();
  probe_spilled_.resize(PM);
  for (int p = 0; p < PM; p++) {
    partitions_[p].mem.Init(ctx->memory);
    for (WorkerPartial& wp : partials) {
      if (wp.tables[p] == nullptr) continue;
      partitions_[p].mem.Adopt(
          &wp.reserv, static_cast<int64_t>(wp.tables[p]->MemoryBytes()));
    }
  }
  return RunPipelineTasks(
      sched, ctx->quota, ctx->cancel, PM,
      [this, &partials, ctx](int p, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        const int64_t t0 = NowNs();
        Partition& part = partitions_[p];
        SpillRun& run = spilled_[p];
        int64_t est_rows = run.rows();
        int64_t est_bytes = run.bytes();
        for (WorkerPartial& wp : partials) {
          if (wp.tables[p] == nullptr) continue;
          est_rows += wp.tables[p]->size();
          est_bytes += static_cast<int64_t>(wp.tables[p]->MemoryBytes());
        }
        est_bytes += HashTable::IndexBytes(est_rows);
        const bool can_defer =
            ctx->spill_device != nullptr && ctx->memory != nullptr;
        // Leaves the partition on disk: `tables` (null ones skipped) are
        // appended to its run and freed, and a "JoinBuildDefer" entry
        // reports what they wrote.
        const auto defer =
            [this, ctx, &part, &run](
                const std::vector<std::unique_ptr<HashTable>*>& tables)
            -> Status {
          SpillRun written;
          for (std::unique_ptr<HashTable>* t : tables) {
            if (*t == nullptr) continue;
            X100_RETURN_IF_ERROR(
                SpillTable(**t, ctx->spill_device, &written));
            t->reset();
          }
          ctx->RecordSpill("JoinBuildDefer", &written, 1);
          run.Splice(std::move(written));
          ResetPartition(&part);
          part.deferred = true;
          any_deferred_.store(true, std::memory_order_relaxed);
          return Status::OK();
        };
        if (can_defer && est_rows > 0 && !part.mem.GrowTo(est_bytes).ok()) {
          std::vector<std::unique_ptr<HashTable>*> resident;
          for (WorkerPartial& wp : partials) resident.push_back(&wp.tables[p]);
          X100_RETURN_IF_ERROR(defer(resident));
          OperatorProfile prof;
          prof.op = "JoinBuildMerge";
          prof.rows = 0;
          prof.open_ns = NowNs() - t0;
          ctx->RecordOperator(std::move(prof));
          return Status::OK();
        }
        // The table starts as the first partial and takes the others in
        // worker order, then the run's chunks; each partial is freed as
        // soon as it is appended.
        for (WorkerPartial& wp : partials) {
          std::unique_ptr<HashTable>& partial = wp.tables[p];
          if (partial == nullptr) continue;
          if (part.table == nullptr) {
            part.table = std::move(partial);
          } else {
            part.table->AppendFrom(*partial);
            partial.reset();
          }
        }
        if (part.table == nullptr) part.table = NewTable();
        for (size_t i = 0; i < run.chunks(); i++) {
          std::vector<uint8_t> blob;
          X100_ASSIGN_OR_RETURN(blob, run.Take(i, ctx->cancel));
          X100_RETURN_IF_ERROR(
              part.table->AppendSerialized(blob.data(), blob.size()));
        }
        run.Free();
        const int64_t n = part.table->size();
        part.table->BuildIndex();
        // Settle the estimate against the materialized footprint. If the
        // actual size no longer fits (allocator slack past the
        // estimate), the partition is written back out and deferred —
        // never force-charged — so resident partitions are always WITHIN
        // the budget. Without a spill device the old force-admit stands.
        const int64_t actual = static_cast<int64_t>(part.table->MemoryBytes());
        if (actual <= part.mem.charged()) {
          part.mem.ShrinkTo(actual);
        } else if (!can_defer) {
          part.mem.ForceGrowTo(actual);
        } else if (!part.mem.GrowTo(actual).ok()) {
          X100_RETURN_IF_ERROR(defer({&part.table}));
        }
        OperatorProfile prof;
        prof.op = "JoinBuildMerge";
        prof.rows = part.deferred ? 0 : n;
        prof.open_ns = NowNs() - t0;
        prof.mem_bytes = part.mem.charged();
        ctx->RecordOperator(std::move(prof));
        return Status::OK();
      });
}

Status JoinBuildState::EnsureBuilt(ExecContext* ctx) {
  if (!built_) {
    built_ = true;
    build_status_ = Build(ctx);
  }
  return build_status_;
}

bool JoinBuildState::FinishProber(std::vector<SpillRun> probe_runs) {
  std::lock_guard<std::mutex> lock(probe_mu_);
  if (probe_spilled_.size() < probe_runs.size()) {
    probe_spilled_.resize(probe_runs.size());
  }
  for (size_t p = 0; p < probe_runs.size(); p++) {
    probe_spilled_[p].Splice(std::move(probe_runs[p]));
  }
  probers_finished_++;
  if (probers_finished_ !=
      probers_registered_.load(std::memory_order_acquire)) {
    return false;
  }
  // Every other prober has returned end-of-stream and holds copies of
  // what it emitted; the pairs read only deferred partitions.
  for (Partition& part : partitions_) {
    if (!part.deferred) ResetPartition(&part);
  }
  return true;
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
  part.table = NewTable();
  const SpillRun& run = spilled_[p];
  const bool use_preloaded =
      preloaded != nullptr && preloaded->size() == run.chunks();
  for (size_t i = 0; i < run.chunks(); i++) {
    std::vector<uint8_t> blob;
    if (use_preloaded) {
      blob = std::move((*preloaded)[i]);
    } else {
      X100_ASSIGN_OR_RETURN(blob, run.Read(i, ctx->cancel));
    }
    X100_RETURN_IF_ERROR(
        part.table->AppendSerialized(blob.data(), blob.size()));
  }
  part.table->BuildIndex();
  const int64_t bytes = static_cast<int64_t>(part.table->MemoryBytes());
  // The pair IS the minimum working set of a deferred partition — it
  // cannot be subdivided further, so it is force-admitted (the
  // documented floor: limit + one pair + SpillForceAdmitSlack).
  part.mem.Init(ctx->memory);
  part.mem.ForceGrowTo(bytes);
  return bytes;
}

void JoinBuildState::ReleaseDeferredPartition(int p) {
  ResetPartition(&partitions_[p]);
  spilled_[p].Free();
  probe_spilled_[p].Free();
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
  out_probe_.resize(ctx->vector_size);
  out_table_.resize(ctx->vector_size);
  out_row_.resize(ctx->vector_size);
  live_sel_.resize(ctx->vector_size);
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
  // A prober that never finished still reports what it wrote.
  if (ctx != nullptr) RecordProbeSpill(ctx);
  defer_rows_.clear();
  defer_runs_.clear();
  defer_mem_.ReleaseAll();
  pair_mem_.ReleaseAll();
  pair_probe_rows_.reset();
}

bool JoinProber::ProbeKeyHasNull(int i) const {
  for (const Vector* v : probe_key_vecs_) {
    if (v->IsNull(i)) return true;
  }
  return false;
}

void JoinProber::Materialize(int begin, int end) {
  const int pcols = probe_batch_->num_columns();
  for (int c = 0; c < pcols; c++) {
    out_->column(c)->CopyFrom(*probe_batch_->column(c), begin, end - begin,
                              begin, out_probe_.data());
  }
  // Build columns (inner, left outer): one gather per run of rows from
  // one partition's table; a run of left-outer padding is NULL.
  for (int from = begin; from < end && pcols < out_->num_columns();) {
    const HashTable* table = out_table_[from];
    int to = from + 1;
    while (to < end && out_table_[to] == table) to++;
    for (int c = pcols; c < out_->num_columns(); c++) {
      Vector* dst = out_->column(c);
      if (table == nullptr) {
        for (int j = from; j < to; j++) dst->SetNull(j);
      } else {
        table->rows().Gather(c - pcols, out_row_.data(), from, to - from, dst,
                             from);
      }
    }
    from = to;
  }
}

// --- Grace probe-side spill ------------------------------------------------

void JoinProber::DeferRows() {
  const size_t P = static_cast<size_t>(state_->num_partitions());
  if (defer_rows_.empty()) {
    defer_rows_.resize(P);
    defer_runs_.resize(P);
    defer_groups_ = RadixGroups<sel_t, uint64_t>(P);
  }
  defer_groups_.Clear();
  int kept = 0;
  for (int j = 0; j < probe_n_; j++) {
    const int i = probe_sel_ ? probe_sel_[j] : j;
    const size_t p = state_->PartitionOf(probe_hashes_[j]);
    if (state_->partition_deferred(p) && !ProbeKeyHasNull(i)) {
      defer_groups_.Add(p, static_cast<sel_t>(i), probe_hashes_[j]);
      continue;
    }
    live_sel_[kept] = static_cast<sel_t>(i);
    probe_hashes_[kept++] = probe_hashes_[j];
  }
  if (kept == probe_n_) return;
  for (size_t p : defer_groups_.touched()) {
    const auto& g = defer_groups_.group(p);
    if (defer_rows_[p] == nullptr) {
      defer_rows_[p] = std::make_unique<RowBuffer>(*probe_schema_);
    }
    defer_rows_[p]->Append(probe_cols_, g.pos.data(), 0,
                           static_cast<int>(g.pos.size()));
  }
  probe_sel_ = live_sel_.data();
  probe_n_ = kept;
}

Status JoinProber::SpillDeferred(ExecContext* ctx, bool flush) {
  if (defer_rows_.empty()) return Status::OK();
  defer_mem_.Init(ctx->memory);
  const auto spill = [this, ctx](size_t p) -> Status {
    const RowBuffer& rows = *defer_rows_[p];
    X100_RETURN_IF_ERROR(defer_runs_[p].Append(
        ctx->spill_device, rows.rows(),
        [&rows](int64_t begin, int64_t end, std::vector<uint8_t>* out) {
          rows.Serialize(nullptr, begin, end, out);
        }));
    defer_rows_[p].reset();
    return Status::OK();
  };
  if (flush) {
    for (size_t p = 0; p < defer_rows_.size(); p++) {
      if (defer_rows_[p] != nullptr) X100_RETURN_IF_ERROR(spill(p));
    }
    defer_mem_.ReleaseAll();
    return Status::OK();
  }
  return GrowOrSpill(
      &defer_mem_, ctx->spill_device != nullptr, defer_rows_.size(),
      [this](size_t p) {
        const RowBuffer* rb = defer_rows_[p].get();
        return rb == nullptr
                   ? SpillPart{}
                   : SpillPart{static_cast<int64_t>(rb->MemoryBytes()),
                               rb->rows() > 0};
      },
      spill);
}

void JoinProber::RecordProbeSpill(ExecContext* ctx) const {
  ctx->RecordSpill("JoinProbeSpill", defer_runs_.data(), defer_runs_.size());
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
  const SpillRun& build = state_->build_run(p);
  const SpillRun& probe = state_->probe_run(p);
  int64_t bytes = build.bytes();
  if (!probe.empty()) bytes += probe.chunk_bytes(0);
  if (bytes <= 0) return;
  // Ahead-of-demand bytes ride the buffer pool's read-ahead budget, not
  // the query memory limit — during the pair phase the resident pair
  // already sits at the documented memory floor, so a TryReserve there
  // would structurally never succeed. Refused charge = no prefetch.
  if (!ctx->buffers->TryChargePrefetchBytes(bytes)) return;
  next_pair_.part = p;
  next_pair_.charged_bytes = bytes;
  next_pair_.buffers = ctx->buffers;
  next_pair_.build_blobs.assign(build.chunks(), {});
  next_pair_.has_probe_blob = !probe.empty();
  next_pair_.probe_blob.clear();
  next_pair_.tasks =
      std::make_unique<TaskGroup>(ctx->scheduler, ctx->cancel);
  pair_prefetch_issued_++;
  PairPrefetch* pf = &next_pair_;
  CancellationToken* cancel = ctx->cancel;
  next_pair_.tasks->Spawn([this, pf, p, cancel]() -> Status {
    const SpillRun& build = state_->build_run(p);
    for (size_t i = 0; i < build.chunks(); i++) {
      X100_ASSIGN_OR_RETURN(pf->build_blobs[i], build.Read(i, cancel));
    }
    if (pf->has_probe_blob) {
      X100_ASSIGN_OR_RETURN(pf->probe_blob,
                            state_->probe_run(p).Read(0, cancel));
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
  const SpillRun& run = state_->probe_run(p);
  pair_probe_rows_.reset();
  pair_mem_.ShrinkTo(0);
  if (pair_chunk_ >= run.chunks()) return false;
  std::vector<uint8_t> blob;
  if (pair_chunk_ == 0 && has_adopted_probe_blob_) {
    blob = std::move(adopted_probe_blob_);
    has_adopted_probe_blob_ = false;
    adopted_probe_blob_.clear();
  } else {
    X100_ASSIGN_OR_RETURN(blob, run.Read(pair_chunk_, ctx->cancel));
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
      // buffers further (the final batch settles in the flush below).
      if (state_->any_deferred()) {
        X100_RETURN_IF_ERROR(SpillDeferred(ctx, /*flush=*/false));
      }
      return b;
    }
    // Probe child exhausted. This prober's runs (if any) are handed to
    // the shared state; the LAST prober to arrive frees the resident
    // table and owns the pair phase — every other prober has already
    // returned end-of-stream to its sink, so the pairs have exactly one
    // owner and stream through this prober's (arbitrary, sinks merge
    // anyway) chain.
    if (finished_) return nullptr;
    finished_ = true;
    X100_RETURN_IF_ERROR(SpillDeferred(ctx, /*flush=*/true));
    RecordProbeSpill(ctx);
    const bool last = state_->FinishProber(std::move(defer_runs_));
    defer_runs_.clear();
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
        pair_probe_rows_->Gather(c, nullptr, pair_row_, n,
                                 pair_batch_->column(c), 0);
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
        probe_key_vecs_.clear();
        for (int c : probe_keys_) {
          probe_key_vecs_.push_back(probe_batch_->column(c));
        }
        probe_pos_ = 0;
        chain_pos_ = -1;
        row_matched_ = false;
        // Hash all live probe keys for this batch.
        probe_n_ = probe_batch_->ActiveRows();
        probe_sel_ = probe_batch_->sel();
        bool first = true;
        for (int c : probe_keys_) {
          hashk::HashColumn(*probe_batch_->column(c), probe_n_, probe_sel_,
                            probe_hashes_.data(), !first, simd_);
          first = false;
        }
        // Grace routing: a non-NULL-keyed row whose partition stayed on
        // disk cannot be probed now — it is buffered (and spilled) for
        // the partition-pair phase. NULL-keyed rows never need the
        // table, so every flavor's NULL semantics resolve immediately.
        if (!pair_mode_ && state_->any_deferred()) DeferRows();
        // Prime the prefetch window: the whole batch's hashes are known,
        // so the first rows' bucket heads can start their trip from DRAM
        // before the probe loop touches them.
        if (prefetch_) {
          const int n = probe_n_;
          const int w = n < kPrefetchDistance ? n : kPrefetchDistance;
          for (int j = 0; j < w; j++) {
            state_->table(probe_hashes_[j]).PrefetchBucket(probe_hashes_[j]);
          }
        }
      }

      const int n = probe_n_;
      const sel_t* sel = probe_sel_;
      const int begin = filled;
      bool batch_done = true;
      while (probe_pos_ < n) {
        // Keep the in-flight window full: hint the bucket head the loop
        // will need kPrefetchDistance rows from now (resumed rows re-hint
        // harmlessly — prefetch is advisory).
        if (prefetch_ && probe_pos_ + kPrefetchDistance < n) {
          const uint64_t ph = probe_hashes_[probe_pos_ + kPrefetchDistance];
          state_->table(ph).PrefetchBucket(ph);
        }
        const int i = sel ? sel[probe_pos_] : probe_pos_;
        const bool key_null = ProbeKeyHasNull(i);

        if (type_ == JoinType::kSemi || type_ == JoinType::kAnti ||
            type_ == JoinType::kAntiNullAware) {
          bool matched = false;
          if (!key_null) {
            const uint64_t h = probe_hashes_[probe_pos_];
            const HashTable& table = state_->table(h);
            matched = table.Find(table.Head(h), h, probe_key_vecs_, i) >= 0;
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
          if (emit) Emit(&filled, i, nullptr, -1);
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
        const HashTable& table = state_->table(h);
        if (chain_pos_ < 0 && !row_matched_) {
          chain_pos_ = key_null ? -1 : table.Head(h);
        }
        bool overflowed = false;
        while (chain_pos_ >= 0) {
          const int64_t node = table.Find(chain_pos_, h, probe_key_vecs_, i);
          chain_pos_ = node < 0 ? -1 : table.Next(node);
          if (node < 0) break;
          Emit(&filled, i, &table, node);
          row_matched_ = true;
          if (filled >= ctx->vector_size) {
            overflowed = true;
            break;
          }
        }
        if (overflowed) {
          batch_done = false;
          break;
        }
        if (type_ == JoinType::kLeftOuter && !row_matched_) {
          Emit(&filled, i, nullptr, -1);
        }
        probe_pos_++;
        chain_pos_ = -1;
        row_matched_ = false;
        if (filled >= ctx->vector_size) {
          batch_done = probe_pos_ >= n;
          break;
        }
      }
      // The next probe batch may reuse this one's vectors: materialize
      // first.
      Materialize(begin, filled);
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
  X100_RETURN_IF_ERROR(state_->EnsureBuilt(ctx));
  X100_RETURN_IF_ERROR(probe_child_->Open(ctx));
  return prober_.Open(ctx);
}

void JoinProbeOp::CloseImpl() {
  if (probe_child_) probe_child_->Close();
  prober_.Close(ctx_);
}

Result<Batch*> JoinProbeOp::NextImpl() {
  return prober_.Next(probe_child_.get(), ctx_);
}

}  // namespace x100
