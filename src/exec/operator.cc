#include "exec/operator.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/task_scheduler.h"
#include "storage/spill_file.h"

namespace x100 {

namespace {
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The operator currently inside a public Open/Next on this thread. A
// child's public entry points charge their elapsed time to the caller's
// child_ns, which is how exclusive (self) time is derived without the
// base class knowing the tree shape. A sink opens its chains on its own
// thread and each chain is then pulled and closed by one task, so nesting
// stays thread-local: every chain's Open (a join probe's includes its
// build) is the sink's child, and so is a lone chain's pull, which runs on
// the sink's own thread; a sink over several chains accrues child_ns only
// for the chains its waiting thread pulls inline, so its exclusive time
// includes the cross-thread wait. Likewise the probe clone whose Open runs
// a build books the build's barrier wait as its own time.
thread_local Operator* g_profiling_caller = nullptr;
}  // namespace

std::vector<Operator*> Borrow(const std::vector<OperatorPtr>& ops) {
  std::vector<Operator*> out;
  for (const OperatorPtr& op : ops) out.push_back(op.get());
  return out;
}

Status DrainChains(ExecContext* ctx, const std::vector<Operator*>& chains,
                   const std::function<Result<bool>(int, Batch&)>& consume,
                   const std::function<Status(int)>& finish) {
  Status s;
  for (size_t w = 0; s.ok() && w < chains.size(); w++) {
    s = ctx->CheckCancel();
    if (s.ok()) s = chains[w]->Open(ctx);
  }
  if (s.ok()) {
    TaskScheduler* sched =
        ctx->scheduler != nullptr ? ctx->scheduler : TaskScheduler::Global();
    s = RunPipelineTasks(
        sched, ctx->quota, ctx->cancel, static_cast<int>(chains.size()),
        [&](int w, TaskGroup& group) -> Status {
          Operator* chain = chains[w];
          Status st = group.CheckCancel();
          while (st.ok()) {
            auto batch = chain->Next();
            if (!batch.ok()) {
              st = batch.status();
              break;
            }
            if (*batch == nullptr) break;
            auto more = consume(w, **batch);
            if (!more.ok()) {
              st = more.status();
              break;
            }
            if (!*more) break;
            st = group.CheckCancel();
          }
          chain->Close();
          if (st.ok() && finish) st = finish(w);
          return st;
        });
  }
  // On success every item closed its chain. A failure can leave chains
  // that no item closed: unopened ones, or ones whose item never ran.
  if (!s.ok()) {
    for (Operator* chain : chains) chain->Close();
  }
  return s;
}

Result<QueryResult> CollectChains(const std::vector<Operator*>& chains,
                                  ExecContext* ctx, int64_t limit) {
  if (chains.empty()) {
    return Status::InvalidArgument("no chain to collect");
  }
  // Each chain converts its own rows; with a limit, rows are claimed from
  // one shared count, so the chains together convert at most `limit`.
  std::vector<QueryResult> parts(chains.size());
  std::atomic<int64_t> claimed{0};
  X100_RETURN_IF_ERROR(DrainChains(
      ctx, chains, [&](int w, Batch& b) -> Result<bool> {
        QueryResult& part = parts[w];
        int64_t n = b.ActiveRows();
        bool more = true;
        if (limit >= 0) {
          const int64_t before = claimed.fetch_add(n);
          n = std::max<int64_t>(0, std::min(n, limit - before));
          more = before + b.ActiveRows() < limit;
        }
        const sel_t* sel = b.sel();
        part.batches++;
        for (int64_t j = 0; j < n; j++) {
          const int i = sel ? sel[j] : static_cast<int>(j);
          std::vector<Value> row;
          row.reserve(b.num_columns());
          for (int c = 0; c < b.num_columns(); c++) {
            row.push_back(b.column(c)->GetValue(i));
          }
          part.rows.push_back(std::move(row));
        }
        return more;
      }));
  QueryResult result = std::move(parts[0]);
  result.schema = chains[0]->output_schema();
  // Sized once: growing it chain by chain would reallocate while every
  // row is alive.
  size_t total = result.rows.size();
  for (size_t w = 1; w < parts.size(); w++) total += parts[w].rows.size();
  result.rows.reserve(total);
  for (size_t w = 1; w < parts.size(); w++) {
    result.batches += parts[w].batches;
    std::move(parts[w].rows.begin(), parts[w].rows.end(),
              std::back_inserter(result.rows));
  }
  return result;
}

Result<QueryResult> CollectRows(Operator* op, ExecContext* ctx) {
  return CollectChains({op}, ctx);
}

void ExecContext::RecordSpill(const char* op, const SpillRun* runs,
                              size_t n) {
  OperatorProfile prof;
  prof.op = op;
  for (size_t i = 0; i < n; i++) {
    prof.rows += runs[i].rows();
    prof.spill_bytes += runs[i].bytes();
    prof.spills += static_cast<int64_t>(runs[i].chunks());
  }
  if (prof.spills > 0) RecordOperator(std::move(prof));
}

Status Operator::Open(ExecContext* ctx) {
  profile_ctx_ = ctx;
  prof_flushed_ = false;
  Operator* caller = g_profiling_caller;
  g_profiling_caller = this;
  const int64_t t0 = NowNs();
  Status s = OpenImpl(ctx);
  const int64_t elapsed = NowNs() - t0;
  g_profiling_caller = caller;
  prof_.open_ns += elapsed;
  if (caller != nullptr) caller->prof_.child_ns += elapsed;
  return s;
}

Result<Batch*> Operator::Next() {
  Operator* caller = g_profiling_caller;
  g_profiling_caller = this;
  const int64_t t0 = NowNs();
  auto r = NextImpl();
  const int64_t elapsed = NowNs() - t0;
  g_profiling_caller = caller;
  prof_.next_ns += elapsed;
  if (caller != nullptr) caller->prof_.child_ns += elapsed;
  if (r.ok() && *r != nullptr) {
    prof_.batches++;
    prof_.rows += (*r)->ActiveRows();
  }
  return r;
}

void Operator::Close() {
  CloseImpl();
  if (profile_ctx_ != nullptr && !prof_flushed_) {
    prof_flushed_ = true;
    prof_.op = name();
    profile_ctx_->RecordOperator(prof_);
  }
}

}  // namespace x100
