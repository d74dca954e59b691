#include "exec/operator.h"

#include <chrono>

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
// base class knowing the tree shape. Pipeline worker chains each run on
// one pool thread, so nesting stays thread-local; an operator whose
// children run on *other* threads (exchange consumer, a breaker over
// several chains) accrues no child_ns and its exclusive time includes
// the cross-thread wait. A breaker's lone chain is charged to the
// breaker through ChainProfileScope.
thread_local Operator* g_profiling_caller = nullptr;
}  // namespace

Operator::ChainProfileScope::ChainProfileScope(Operator* sink)
    : saved_(g_profiling_caller) {
  if (sink != nullptr) g_profiling_caller = sink;
}

Operator::ChainProfileScope::~ChainProfileScope() {
  g_profiling_caller = saved_;
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
