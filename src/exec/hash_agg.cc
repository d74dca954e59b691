#include "exec/hash_agg.h"

#include <chrono>

#include "common/hash.h"
#include "common/pod_serde.h"
#include "common/task_scheduler.h"
#include "primitives/hash_kernels.h"

namespace x100 {

namespace {

/// Every column of `schema`: a group table's keys are its whole rows.
std::vector<int> AllColumns(const Schema& schema) {
  std::vector<int> cols(schema.num_fields());
  for (int c = 0; c < schema.num_fields(); c++) cols[c] = c;
  return cols;
}

/// Calls `fn` on each array `a` keeps (GroupTable::Accum), in spill
/// order: i64, f64, count.
template <typename A, typename Fn>
void ForEachArray(A& a, Fn fn) {
  if (a.has_i64) fn(a.i64);
  if (a.has_f64) fn(a.f64);
  fn(a.count);
}

}  // namespace

// ---------------------------------------------------------------------------
// GroupTable
// ---------------------------------------------------------------------------

GroupTable::GroupTable(const Schema& key_schema, std::vector<AggKind> kinds,
                       std::vector<TypeId> in_types)
    : GroupTable(key_schema, std::move(kinds), std::move(in_types),
                 /*indexed=*/true) {}

GroupTable::GroupTable(const Schema& key_schema, std::vector<AggKind> kinds,
                       std::vector<TypeId> in_types, bool indexed)
    : kinds_(std::move(kinds)), keys_(key_schema, AllColumns(key_schema)) {
  if (indexed) keys_.BuildIndex();
  accums_.resize(kinds_.size());
  for (size_t a = 0; a < accums_.size(); a++) {
    Accum& acc = accums_[a];
    acc.in_type = in_types[a];
    const bool f64_sum = (kinds_[a] == AggKind::kSum ||
                          kinds_[a] == AggKind::kAvg) &&
                         acc.in_type == TypeId::kF64;
    acc.has_i64 = kinds_[a] != AggKind::kCount && !f64_sum;
    acc.has_f64 = kinds_[a] != AggKind::kCount;
  }
}

Result<uint32_t> GroupTable::FinishNewGroup() {
  const int64_t gid = keys_.size() - 1;  // key row appended by the caller
  if (gid >= static_cast<int64_t>(UINT32_MAX)) {
    return Status::ResourceExhausted("too many groups");
  }
  for (Accum& a : accums_) {
    ForEachArray(a, [](auto& v) { v.push_back(0); });
  }
  return static_cast<uint32_t>(gid);
}

Result<uint32_t> GroupTable::FindOrAdd(
    const std::vector<const Vector*>& key_vecs, int row, uint64_t hash) {
  const int64_t g = keys_.Find(keys_.Head(hash), hash, key_vecs, row);
  if (g >= 0) return static_cast<uint32_t>(g);
  keys_.Append(key_vecs, nullptr, row, 1, &hash);
  return FinishNewGroup();
}

size_t GroupTable::MemoryBytes() const {
  size_t b = keys_.MemoryBytes();
  for (const Accum& a : accums_) {
    b += a.i64.capacity() * sizeof(int64_t) +
         a.f64.capacity() * sizeof(double) +
         a.count.capacity() * sizeof(int64_t);
  }
  return b;
}

void GroupTable::Serialize(int64_t begin, int64_t end,
                           std::vector<uint8_t>* out) const {
  // [i64 groups][u64 hashes][per accum: the arrays it keeps][key
  // RowBuffer].
  serde::AppendPod<int64_t>(out, end - begin);
  for (int64_t g = begin; g < end; g++) {
    serde::AppendPod<uint64_t>(out, keys_.hash(g));
  }
  const auto slice = [&](const auto& v) {
    const auto* p = reinterpret_cast<const uint8_t*>(v.data() + begin);
    out->insert(out->end(), p, p + (end - begin) * sizeof(v[0]));
  };
  for (const Accum& a : accums_) ForEachArray(a, slice);
  keys_.rows().Serialize(nullptr, begin, end, out);
}

Result<std::unique_ptr<GroupTable>> GroupTable::Deserialize(
    const Schema& key_schema, std::vector<AggKind> kinds,
    std::vector<TypeId> in_types, const uint8_t* data, size_t size) {
  const Status corrupt = Status::IoError("corrupt agg spill chunk");
  serde::Reader in{data, size};
  int64_t groups;
  std::vector<uint64_t> hashes;
  if (!in.TakePod(&groups) || groups < 0 ||
      !in.TakePodVec(static_cast<size_t>(groups), &hashes)) {
    return corrupt;
  }
  std::unique_ptr<GroupTable> t(new GroupTable(
      key_schema, std::move(kinds), std::move(in_types), /*indexed=*/false));
  const size_t n = hashes.size();
  bool whole = true;
  for (Accum& a : t->accums_) {
    ForEachArray(a, [&](auto& v) { whole = whole && in.TakePodVec(n, &v); });
  }
  if (!whole) return corrupt;
  std::unique_ptr<RowBuffer> keys;
  X100_ASSIGN_OR_RETURN(
      keys, RowBuffer::Deserialize(key_schema, data + in.pos, in.remaining()));
  if (keys->rows() != groups) return corrupt;
  t->keys_.AppendRows(*keys, hashes.data());
  return t;
}

void GroupTable::EnsureGlobalGroup() {
  if (keys_.size() > 0) return;
  const uint64_t hash = 0;
  keys_.Append({}, nullptr, 0, 1, &hash);
  (void)FinishNewGroup();
}

Status GroupTable::MergeFrom(const GroupTable& src) {
  for (int64_t g = 0; g < src.num_groups(); g++) {
    int64_t node = keys_.Find(src.keys_, g);
    if (node < 0) {
      keys_.AppendFrom(src.keys_, &g, 1);
      auto gid = FinishNewGroup();
      X100_RETURN_IF_ERROR(gid.status());
      node = *gid;
    }
    for (size_t a = 0; a < accums_.size(); a++) {
      Accum& d = accums_[a];
      const Accum& s = src.accums_[a];
      switch (kinds_[a]) {
        case AggKind::kCount:
          d.count[node] += s.count[g];
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          if (d.has_i64) d.i64[node] = agg::WrapAdd(d.i64[node], s.i64[g]);
          d.f64[node] += s.f64[g];
          d.count[node] += s.count[g];
          break;
        case AggKind::kMin:
        case AggKind::kMax: {
          if (s.count[g] == 0) break;
          const bool take =
              d.count[node] == 0 ||
              (d.in_type == TypeId::kF64
                   ? (kinds_[a] == AggKind::kMin ? s.f64[g] < d.f64[node]
                                                 : s.f64[g] > d.f64[node])
                   : (kinds_[a] == AggKind::kMin ? s.i64[g] < d.i64[node]
                                                 : s.i64[g] > d.i64[node]));
          if (take) {
            d.i64[node] = s.i64[g];
            d.f64[node] = s.f64[g];
          }
          d.count[node] += s.count[g];
          break;
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AggBinding
// ---------------------------------------------------------------------------

Status AggBinding::Bind(const Schema& in,
                        const std::vector<ProjectItem>& group_by,
                        const std::vector<AggItem>& aggs) {
  for (const ProjectItem& g : group_by) {
    ExprPtr bound;
    X100_ASSIGN_OR_RETURN(bound, BindExpr(g.expr, in));
    key_schema.AddField(Field(g.name, bound->type, bound->nullable));
    out_schema.AddField(Field(g.name, bound->type, bound->nullable));
    bound_keys.push_back(std::move(bound));
  }
  for (const AggItem& a : aggs) {
    TypeId in_type = TypeId::kI64;
    if (a.input != nullptr) {
      ExprPtr bound;
      X100_ASSIGN_OR_RETURN(bound, BindExpr(a.input, in));
      if (a.kind != AggKind::kCount && bound->type == TypeId::kStr) {
        return Status::NotImplemented("string aggregates not supported");
      }
      in_type = bound->type;
      bound_aggs.push_back(std::move(bound));
    } else {
      if (a.kind != AggKind::kCount) {
        return Status::InvalidArgument("only COUNT(*) may omit its input");
      }
      bound_aggs.push_back(nullptr);
    }
    TypeId out_type;
    switch (a.kind) {
      case AggKind::kCount: out_type = TypeId::kI64; break;
      case AggKind::kAvg: out_type = TypeId::kF64; break;
      case AggKind::kSum:
        out_type = in_type == TypeId::kF64 ? TypeId::kF64 : TypeId::kI64;
        break;
      default: out_type = in_type; break;
    }
    // Aggregates over empty groups / all-NULL inputs yield NULL (except
    // COUNT), hence nullable.
    out_schema.AddField(Field(a.name, out_type, a.kind != AggKind::kCount));
    in_types.push_back(in_type);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AggWorkerState
// ---------------------------------------------------------------------------

Status AggWorkerState::Prepare(const std::vector<ExprPtr>& bound_keys,
                               const std::vector<ExprPtr>& bound_aggs,
                               const Schema& key_schema,
                               const std::vector<AggItem>& aggs,
                               const std::vector<TypeId>& in_types,
                               int vector_size, int radix_bits,
                               SimdLevel simd) {
  simd_ = simd;
  key_progs_.clear();
  agg_progs_.clear();
  for (const ExprPtr& bound : bound_keys) {
    auto prog = ExprProgram::Compile(bound, vector_size, simd);
    X100_RETURN_IF_ERROR(prog.status());
    key_progs_.push_back(std::move(prog).value());
  }
  for (const ExprPtr& bound : bound_aggs) {
    if (bound == nullptr) {
      agg_progs_.push_back(nullptr);
      continue;
    }
    auto prog = ExprProgram::Compile(bound, vector_size, simd);
    X100_RETURN_IF_ERROR(prog.status());
    agg_progs_.push_back(std::move(prog).value());
  }
  // Keyless aggregation has exactly one global group — nothing to
  // partition.
  radix_bits_ = bound_keys.empty() || radix_bits < 0 ? 0 : radix_bits;
  kinds_.clear();
  for (const AggItem& a : aggs) kinds_.push_back(a.kind);
  key_schema_ = key_schema;
  in_types_ = in_types;
  tables_.clear();
  for (int p = 0; p < num_partitions(); p++) {
    tables_.push_back(
        std::make_unique<GroupTable>(key_schema, kinds_, in_types));
  }
  if (key_progs_.empty()) tables_[0]->EnsureGlobalGroup();
  spilled_.clear();
  spilled_.resize(num_partitions());
  reserv_.ReleaseAll();
  gids_.resize(vector_size);
  groups_ = RadixGroups<sel_t, uint32_t>(num_partitions());
  hashes_.resize(vector_size);
  return Status::OK();
}

Status AggWorkerState::EnsureReservation(ExecContext* ctx) {
  reserv_.Init(ctx->memory);
  // A spilled partition starts over with a fresh table; the barrier merge
  // folds its run back via MergeFrom, so a group split across chunks
  // recombines exactly. One spill writes each group to one chunk, so the
  // fold order of every group is the order of the spill events.
  const auto spill = [this, ctx](size_t p) -> Status {
    const GroupTable& t = *tables_[p];
    X100_RETURN_IF_ERROR(spilled_[p].Append(
        ctx->spill_device, t.num_groups(),
        [&t](int64_t begin, int64_t end, std::vector<uint8_t>* out) {
          t.Serialize(begin, end, out);
        }));
    tables_[p] = std::make_unique<GroupTable>(key_schema_, kinds_, in_types_);
    if (key_progs_.empty()) tables_[p]->EnsureGlobalGroup();
    return Status::OK();
  };
  return GrowOrSpill(
      &reserv_, ctx->spill_device != nullptr, tables_.size(),
      [this](size_t p) {
        return SpillPart{static_cast<int64_t>(tables_[p]->MemoryBytes()),
                         tables_[p]->num_groups() > 0};
      },
      spill);
}

Status AggWorkerState::MergeSpilled(int partition, GroupTable* dst,
                                    CancellationToken* cancel) const {
  if (partition >= static_cast<int>(spilled_.size())) return Status::OK();
  const SpillRun& run = spilled_[partition];
  for (size_t i = 0; i < run.chunks(); i++) {
    std::vector<uint8_t> blob;
    X100_ASSIGN_OR_RETURN(blob, run.Read(i, cancel));
    std::unique_ptr<GroupTable> chunk;
    X100_ASSIGN_OR_RETURN(
        chunk, GroupTable::Deserialize(key_schema_, kinds_, in_types_,
                                       blob.data(), blob.size()));
    X100_RETURN_IF_ERROR(dst->MergeFrom(*chunk));
  }
  return Status::OK();
}

void AggWorkerState::RecordSpillProfile(ExecContext* ctx) const {
  ctx->RecordSpill("AggSpill", spilled_.data(), spilled_.size());
}

std::unique_ptr<GroupTable> AggWorkerState::TakeTable(
    int partition, MemoryReservation* charge) {
  charge->Adopt(&reserv_,
                static_cast<int64_t>(tables_[partition]->MemoryBytes()));
  return std::move(tables_[partition]);
}

Status AggWorkerState::Consume(Batch& in, ExecContext* ctx,
                               const std::vector<AggItem>& aggs) {
  const int n = in.ActiveRows();
  const sel_t* sel = in.sel();

  // 1) Evaluate key expressions, hash them, resolve group ids.
  std::vector<const Vector*> key_vecs;
  for (auto& prog : key_progs_) {
    const Vector* v;
    X100_ASSIGN_OR_RETURN(v, prog->Eval(in));
    key_vecs.push_back(v);
  }
  if (!key_vecs.empty()) {
    bool first = true;
    for (const Vector* v : key_vecs) {
      hashk::HashColumn(*v, n, sel, hashes_.data(), !first, simd_);
      first = false;
    }
    // Group lookup with a software-prefetch window: all n hashes are
    // already known, so while resolving row j the bucket head of row
    // j + kPrefetchDistance is hinted into cache — the dependent loads
    // of the chain walk overlap instead of serializing on DRAM misses.
    const bool prefetch = simd_ != SimdLevel::kScalar;
    if (prefetch) {
      const int w = n < kPrefetchDistance ? n : kPrefetchDistance;
      for (int j = 0; j < w; j++) {
        tables_[RadixPartitionOf(hashes_[j], radix_bits_)]->PrefetchBucket(
            hashes_[j]);
      }
    }
    groups_.Clear();
    for (int j = 0; j < n; j++) {
      if (prefetch && j + kPrefetchDistance < n) {
        const uint64_t ph = hashes_[j + kPrefetchDistance];
        tables_[RadixPartitionOf(ph, radix_bits_)]->PrefetchBucket(ph);
      }
      const int i = sel ? sel[j] : j;
      // Route to the radix partition named by the top hash bits: group
      // ids are partition-local, so each partition merges without ever
      // seeing another partition's keys.
      const size_t p = RadixPartitionOf(hashes_[j], radix_bits_);
      uint32_t gid;
      X100_ASSIGN_OR_RETURN(
          gid, tables_[p]->FindOrAdd(key_vecs, i, hashes_[j]));
      if (radix_bits_ == 0) {
        gids_[j] = gid;
      } else {
        groups_.Add(p, i, gid);
      }
    }
  }

  // 2) Fold each aggregate's input vector into the accumulators with the
  // aggr_* update kernels (primitives/agg_kernels.h): keyless vectors
  // take the SIMD fast paths, grouped ones the shared scalar loop. With
  // radix partitioning, each touched partition's rows fold into its own
  // table through that partition's selection and group ids; a group
  // lives in one partition, so its rows fold in input order.
  for (size_t a = 0; a < aggs.size(); a++) {
    const Vector* v = nullptr;
    if (aggs[a].input != nullptr) {
      X100_ASSIGN_OR_RETURN(v, agg_progs_[a]->Eval(in));
    }
    const auto fold = [&](GroupTable::Accum& acc, int m, const sel_t* s,
                          const uint32_t* gid) {
      if (v == nullptr) {  // COUNT(*)
        agg::UpdateCountStar(m, gid, acc.count.data());
        return;
      }
      agg::UpdateAccum(aggs[a].kind, acc.in_type, m, s, gid,
                       v->has_nulls() ? v->nulls() : nullptr, v->RawData(),
                       acc.i64.data(), acc.f64.data(), acc.count.data(),
                       simd_);
    };
    if (radix_bits_ == 0) {
      fold(tables_[0]->accum(a), n, sel,
           key_progs_.empty() ? nullptr : gids_.data());
      continue;
    }
    for (size_t p : groups_.touched()) {
      const auto& g = groups_.group(p);
      fold(tables_[p]->accum(a), static_cast<int>(g.pos.size()),
           g.pos.data(), g.tag.data());
    }
  }

  // Memory governance, checked once per batch (group ids stay valid
  // within the batch; a spill swaps tables only between batches).
  return EnsureReservation(ctx);
}

// ---------------------------------------------------------------------------
// Emit
// ---------------------------------------------------------------------------

namespace {

Result<Batch*> EmitGroupBatch(GroupTable* t,
                              const std::vector<AggItem>& aggs, int nkeys,
                              int vector_size, int64_t* emit_pos,
                              Batch* out) {
  if (*emit_pos >= t->num_groups()) return nullptr;
  out->Reset();
  const int n = static_cast<int>(
      std::min<int64_t>(vector_size, t->num_groups() - *emit_pos));
  for (int k = 0; k < nkeys; k++) {
    t->keys().Gather(k, nullptr, *emit_pos, n, out->column(k), 0);
  }
  for (int j = 0; j < n; j++) {
    const int64_t g = *emit_pos + j;
    for (size_t a = 0; a < aggs.size(); a++) {
      Vector* dst = out->column(nkeys + static_cast<int>(a));
      const GroupTable::Accum& acc = t->accum(a);
      const AggItem& item = aggs[a];
      if (item.kind == AggKind::kCount) {
        dst->Data<int64_t>()[j] = acc.count[g];
        continue;
      }
      if (acc.count[g] == 0) {
        dst->SetNull(j);  // SQL: aggregate over no (non-NULL) inputs
        continue;
      }
      switch (item.kind) {
        case AggKind::kSum:
          if (dst->type() == TypeId::kF64) {
            dst->Data<double>()[j] = acc.f64[g];
          } else {
            dst->Data<int64_t>()[j] = acc.i64[g];
          }
          break;
        case AggKind::kAvg:
          dst->Data<double>()[j] =
              acc.f64[g] / static_cast<double>(acc.count[g]);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          switch (dst->type()) {
            case TypeId::kF64: dst->Data<double>()[j] = acc.f64[g]; break;
            case TypeId::kI64: dst->Data<int64_t>()[j] = acc.i64[g]; break;
            case TypeId::kI32:
            case TypeId::kDate:
              dst->Data<int32_t>()[j] = static_cast<int32_t>(acc.i64[g]);
              break;
            case TypeId::kI16:
              dst->Data<int16_t>()[j] = static_cast<int16_t>(acc.i64[g]);
              break;
            case TypeId::kI8:
            case TypeId::kBool:
              dst->Data<int8_t>()[j] = static_cast<int8_t>(acc.i64[g]);
              break;
            default:
              return Status::Internal("unexpected min/max type");
          }
          break;
        case AggKind::kCount:
          break;
      }
      if (dst->has_nulls()) dst->MutableNulls()[j] = 0;
    }
  }
  *emit_pos += n;
  out->set_rows(n);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// HashAggOp (pipeline sink)
// ---------------------------------------------------------------------------

HashAggOp::HashAggOp(std::vector<OperatorPtr> chains,
                     std::vector<ProjectItem> group_by,
                     std::vector<AggItem> aggs, int radix_bits)
    : chains_(std::move(chains)),
      group_items_(std::move(group_by)),
      agg_items_(std::move(aggs)),
      radix_bits_(radix_bits < 0 ? 0 : radix_bits) {
  // Bind at construction so output_schema() precedes Open.
  init_status_ = chains_.empty()
                     ? Status::InvalidArgument(
                           "aggregation needs >= 1 worker chain")
                     : binding_.Bind(chains_[0]->output_schema(),
                                     group_items_, agg_items_);
  // A keyless aggregation has one global group; partitioning it is
  // meaningless (and the workers force bits to 0 anyway).
  if (init_status_.ok() && binding_.bound_keys.empty()) radix_bits_ = 0;
}

Status HashAggOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  X100_RETURN_IF_ERROR(init_status_);
  // Worker chains are NOT opened here: each is opened, drained and closed
  // by its pipeline task so the whole chain runs on one pool thread.
  out_ = std::make_unique<Batch>(binding_.out_schema, ctx->vector_size);
  return Status::OK();
}

void HashAggOp::CloseImpl() {
  // Chains were closed by their tasks after Consume's barrier; a
  // Close before the pipeline ever ran (error in a sibling operator)
  // closes them here on the caller.
  for (OperatorPtr& c : chains_) {
    if (c) c->Close();
  }
}

Status HashAggOp::Consume() {
  TaskScheduler* sched =
      ctx_->scheduler != nullptr ? ctx_->scheduler : TaskScheduler::Global();
  const int W = static_cast<int>(chains_.size());
  const int P = 1 << radix_bits_;
  workers_.clear();
  for (int w = 0; w < W; w++) {
    auto ws = std::make_unique<AggWorkerState>();
    X100_RETURN_IF_ERROR(ws->Prepare(binding_.bound_keys,
                                     binding_.bound_aggs,
                                     binding_.key_schema, agg_items_,
                                     binding_.in_types, ctx_->vector_size,
                                     radix_bits_, ctx_->simd));
    workers_.push_back(std::move(ws));
  }

  X100_RETURN_IF_ERROR(DrainChains(
      ctx_, Borrow(chains_),
      [this](int w, Batch& b) -> Result<bool> {
        X100_RETURN_IF_ERROR(workers_[w]->Consume(b, ctx_, agg_items_));
        return true;
      },
      [this](int w) -> Status {
        workers_[w]->RecordSpillProfile(ctx_);
        return Status::OK();
      }));

  // Merge fan-out: one scheduler task per radix partition folds that
  // partition's per-worker tables into the final table — partitions hold
  // disjoint key sets, so the tasks share nothing. Every worker's tables
  // are taken first, each with its charge (serially: a worker's
  // reservation has one writer). The final table IS worker 0's (never
  // copied), so one chain merges only its spilled chunks and the fold
  // order — worker 0, its chunks, then workers 1..N-1 each followed by
  // its chunks — matches a fold into an empty table group for group.
  // Each task records an "AggMerge" profile entry (rows = merged groups)
  // so merge cost and partition skew are visible.
  struct Partial {
    std::unique_ptr<GroupTable> table;
    MemoryReservation mem;
  };
  std::vector<std::vector<Partial>> partials(P);  // [partition][worker]
  final_.clear();
  final_mem_.clear();
  final_mem_.resize(P);
  for (int p = 0; p < P; p++) {
    partials[p].resize(W);
    for (int w = 0; w < W; w++) {
      Partial& part = partials[p][w];
      part.mem.Init(ctx_->memory);
      part.table = workers_[w]->TakeTable(p, &part.mem);
    }
    final_.push_back(std::move(partials[p][0].table));
    final_mem_[p] = std::move(partials[p][0].mem);
  }
  // A keyless aggregation still emits its single global row on empty
  // input.
  if (binding_.bound_keys.empty()) final_[0]->EnsureGlobalGroup();
  X100_RETURN_IF_ERROR(RunPipelineTasks(
      sched, ctx_->quota, ctx_->cancel, P,
      [this, &partials](int p, TaskGroup& group) -> Status {
        X100_RETURN_IF_ERROR(group.CheckCancel());
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t w = 0; w < workers_.size(); w++) {
          // A worker's table and its charge go as soon as it is folded.
          Partial& part = partials[p][w];
          if (part.table != nullptr) {
            X100_RETURN_IF_ERROR(final_[p]->MergeFrom(*part.table));
            part.table.reset();
            part.mem.ReleaseAll();
          }
          // Merge-on-reload: chunks this worker spilled for partition p
          // rejoin the fold right after its live table.
          X100_RETURN_IF_ERROR(
              workers_[w]->MergeSpilled(p, final_[p].get(), ctx_->cancel));
          // The merged partition must be resident to emit; the drain
          // phase is what spilling bounds. Released once the partition
          // is emitted.
          final_mem_[p].ForceGrowTo(
              static_cast<int64_t>(final_[p]->MemoryBytes()));
        }
        OperatorProfile prof;
        prof.op = "AggMerge";
        prof.rows = final_[p]->num_groups();
        prof.open_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        ctx_->RecordOperator(std::move(prof));
        return Status::OK();
      }));
  workers_.clear();
  return Status::OK();
}

Result<Batch*> HashAggOp::NextImpl() {
  if (!consumed_) {
    X100_RETURN_IF_ERROR(Consume());
    consumed_ = true;
  }
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  // Stream partitions in order. A partition's table and charge go once
  // its last batch has been returned (the batches hold copies), so an
  // operator above drains under a budget the emitted groups no longer
  // hold.
  while (emit_part_ < static_cast<int>(final_.size())) {
    Batch* b;
    X100_ASSIGN_OR_RETURN(
        b, EmitGroupBatch(final_[emit_part_].get(), agg_items_,
                          binding_.key_schema.num_fields(),
                          ctx_->vector_size, &emit_pos_, out_.get()));
    if (b != nullptr) return b;
    final_[emit_part_].reset();
    final_mem_[emit_part_].ReleaseAll();
    emit_part_++;
    emit_pos_ = 0;
  }
  return nullptr;
}

}  // namespace x100
