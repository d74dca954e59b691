// QueryExecutor: X100 algebra -> vectorized operator tree -> result, with
// rewriting, monitoring, per-operator profiling and cancellation. Operator
// construction is delegated to a pluggable PhysicalPlanner registry
// (engine/physical_plan.h) — the executor itself contains no per-node-kind
// dispatch.
#ifndef X100_ENGINE_QUERY_EXECUTOR_H_
#define X100_ENGINE_QUERY_EXECUTOR_H_

#include <memory>
#include <string>

#include "algebra/algebra.h"
#include "engine/database.h"
#include "engine/physical_plan.h"
#include "rewriter/rewriter.h"

namespace x100 {

class QueryExecutor {
 public:
  explicit QueryExecutor(Database* db)
      : db_(db), planner_(&PhysicalPlanner::Default()) {}

  /// Builds the root chains for a (rewritten) plan. `ctx` must outlive the
  /// returned operators.
  Result<RootChains> Build(const AlgebraPtr& plan, ExecContext* ctx);

  /// Full path: rewrite (honoring config parallelism) -> build -> execute
  /// -> collect, registered in the query listing. `text` is the monitoring
  /// label. A non-null `cancel` enables external cancellation. The result
  /// carries the per-operator QueryProfile.
  Result<QueryResult> Execute(AlgebraPtr plan, const std::string& text = "",
                              CancellationToken* cancel = nullptr);

  /// Execution of an ALREADY-REWRITTEN plan — the prepared-statement /
  /// plan-cache path (engine/plan_cache.h): the rewrite was done once at
  /// Prepare, every execution starts here. `plan` is borrowed and not
  /// mutated, so one cached plan serves concurrent executions; physical
  /// Build still happens per call (fresh scan-spine estimates, per-query
  /// PlannerContext). `qid` >= 0 reuses a pre-registered query-listing
  /// entry (async submissions register as kQueued at admission) and flips
  /// it to kRunning; -1 registers a fresh entry.
  Result<QueryResult> RunRewritten(const AlgebraPtr& plan,
                                   const std::string& text,
                                   CancellationToken* cancel = nullptr,
                                   int64_t qid = -1);

  const RewriteStats& last_rewrite_stats() const { return last_stats_; }

  /// Swaps in a custom physical planner (must outlive the executor).
  void set_planner(const PhysicalPlanner* planner) { planner_ = planner; }
  const PhysicalPlanner* planner() const { return planner_; }

 private:
  Database* db_;
  const PhysicalPlanner* planner_;
  RewriteStats last_stats_;
};

}  // namespace x100

#endif  // X100_ENGINE_QUERY_EXECUTOR_H_
