#include "engine/query_executor.h"

#include <algorithm>
#include <chrono>

namespace x100 {

Result<RootChains> QueryExecutor::Build(const AlgebraPtr& plan,
                                        ExecContext* ctx) {
  PlannerContext pc;
  pc.db = db_;
  pc.exec = ctx;
  // Pipeline decomposition happens here, not in the rewriter: breaker
  // factories clone their input chains `parallelism` ways (see
  // engine/physical_plan.h).
  pc.parallelism = std::max(1, db_->config().max_parallelism);
  pc.radix_bits =
      EffectiveRadixBits(db_->config().radix_bits, pc.parallelism);
  pc.configured_radix_bits = db_->config().radix_bits;
  // Root dispatch handles what the factories cannot: a bare LIMIT and the
  // probe clones of a join at the plan root.
  return BuildRootChains(plan, &pc, planner_);
}

Result<QueryResult> QueryExecutor::Execute(AlgebraPtr plan,
                                           const std::string& text,
                                           CancellationToken* cancel) {
  Rewriter rewriter;
  auto rewritten = rewriter.Rewrite(std::move(plan));
  X100_RETURN_IF_ERROR(rewritten.status());
  last_stats_ = rewriter.stats();
  return RunRewritten(*rewritten, text, cancel);
}

Result<QueryResult> QueryExecutor::RunRewritten(const AlgebraPtr& plan,
                                                const std::string& text,
                                                CancellationToken* cancel,
                                                int64_t qid) {
  // Admission control: this query's pipelines draw task slots from one
  // quota, so a single wide query cannot flood the shared pool. The
  // quota's limit is the query's CURRENT share of the global budget,
  // retargeted by the adaptive controller as queries come and go
  // (common/adaptive_quota.h); holding the shared_ptr is the
  // registration. query_task_quota < 0 = unlimited, no quota at all.
  std::shared_ptr<TaskQuota> quota;
  if (db_->config().query_task_quota >= 0) {
    quota = db_->quota_controller()->Register();
  }
  // Memory governance: the query charges a child tracker rolling up into
  // the Database's process-wide budget; the limit is re-read from the
  // config here so tests/benches can sweep it between queries. The
  // tracker must outlive the operator tree (declared before `root`):
  // JoinBuildState and the breaker operators hold reservations until
  // they are destroyed.
  db_->memory()->set_limit(
      Database::ResolvedMemoryLimit(db_->config().memory_limit));
  db_->queries()->set_history_cap(db_->config().query_history_cap);
  db_->buffers()->set_capacity_bytes(
      Database::ResolvedBufferPoolBytes(db_->config().buffer_pool_bytes));
  db_->buffers()->set_prefetch_budget_bytes(
      db_->config().prefetch_budget_bytes);
  MemoryTracker query_memory(/*limit=*/0, db_->memory());
  ExecContext ctx;
  ctx.vector_size = db_->config().vector_size;
  ctx.simd = ResolveSimdLevel(db_->config().simd_level);
  ctx.cancel = cancel;
  ctx.events = db_->events();
  ctx.scheduler = db_->scheduler();
  ctx.quota = quota.get();
  ctx.memory = &query_memory;
  ctx.buffers = db_->buffers();
  if (db_->config().enable_spill) {
    // A configured-but-unusable spill path (missing directory, no
    // permission) fails the query here, loudly — silently falling back
    // to in-RAM spilling would defeat the point of the knob.
    auto device = db_->spill_device();
    X100_RETURN_IF_ERROR(device.status());
    ctx.spill_device = *device;
  }

  if (qid < 0) {
    qid = db_->queries()->Begin(text.empty() ? "<algebra query>" : text);
  } else {
    db_->queries()->MarkRunning(qid);
  }
  db_->events()->Info("query " + std::to_string(qid) + " started");

  const auto t0 = std::chrono::steady_clock::now();
  RootChains root;
  {
    auto built = Build(plan, &ctx);
    if (!built.ok()) {
      db_->queries()->Finish(qid, built.status(), 0);
      return built.status();
    }
    root = std::move(built).value();
  }
  auto result = CollectChains(Borrow(root.chains), &ctx, root.limit);
  const Status status = result.ok() ? Status::OK() : result.status();

  // The drain closed every chain it ran, so their operators have flushed
  // their metrics; snapshot them for the result and the query listing.
  QueryProfile profile = ctx.TakeProfile();
  profile.simd = SimdLevelName(ctx.simd);
  profile.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (result.ok()) result->profile = profile;

  db_->queries()->Finish(qid, status, ctx.tuples_scanned.load(),
                         std::move(profile));
  db_->events()->Info("query " + std::to_string(qid) + " " +
                      (status.ok() ? "finished" : status.ToString()));
  db_->counters()->Add("queries.total", 1);
  if (!status.ok()) db_->counters()->Add("queries.failed", 1);
  // Storage-layer gauges for the monitoring surface: buffer pool state
  // and cumulative device traffic as of this query's completion.
  BufferManager* bm = db_->buffers();
  Counters* counters = db_->counters();
  counters->Set("buffer.hits", bm->hits());
  counters->Set("buffer.misses", bm->misses());
  counters->Set("buffer.evictions", bm->evictions());
  counters->Set("buffer.single_flight_waits", bm->single_flight_waits());
  counters->Set("buffer.prefetch_issued", bm->prefetch_issued());
  counters->Set("buffer.prefetch_hits", bm->prefetch_hits());
  counters->Set("buffer.prefetch_wasted", bm->prefetch_wasted());
  counters->Set("buffer.prefetch_inflight", bm->prefetch_inflight());
  counters->Set("buffer.bytes_cached", bm->bytes_cached());
  counters->Set("buffer.pinned_bytes", bm->pinned_bytes());
  counters->Set("buffer.peak_bytes", bm->peak_bytes());
  counters->Set("device.blocks_read", bm->device()->blocks_read());
  counters->Set("device.bytes_read", bm->device()->bytes_read());
  counters->Set("device.bytes_written", bm->device()->bytes_written());
  return result;
}

}  // namespace x100
