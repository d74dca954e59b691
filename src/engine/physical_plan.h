// Physical planner: an extensible registry mapping algebra node kinds to
// operator factories, and the pipeline decomposition that makes every
// query morsel-parallel (docs/ARCHITECTURE.md, docs/EXECUTION.md).
//
// The seed built operator trees through a monolithic if/else chain inside
// QueryExecutor::Build, so every new operator meant editing the engine.
// Factories are now registered per AlgebraNode::Kind; QueryExecutor only
// dispatches. Embedders can copy the default planner and override or add
// factories (e.g. a different ORDER BY operator) without touching engine
// code.
//
// Pipeline decomposition (replacing the exchange-centric rewrite): the
// factories for pipeline breakers (Aggr, Join build sides, Order) build
// PlannerContext::parallelism *clones* of their streaming input chain, or
// one chain when the input cannot be cloned. Clones of one logical scan
// share a MorselSource (dynamic block-group handout) and clones of one
// logical join share a JoinBuildState (table built once, probed by all),
// both keyed by algebra-node identity in PlannerContext. The resulting
// sinks — HashAggOp, SortOp, the join build, the plan root — drain their
// chains through one loop (DrainChains in exec/operator.h), each chain on
// one thread, with per-worker state merged at TaskGroup barriers; one
// chain is the serial case, drained on the calling thread.
//
// PlannerContext carries the per-build shared state: the database (table
// lookup), the ExecContext (threaded into scans so they report into
// tuples_scanned/groups_skipped and the query profile), and the
// clone-sharing maps above.
#ifndef X100_ENGINE_PHYSICAL_PLAN_H_
#define X100_ENGINE_PHYSICAL_PLAN_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "exec/scan.h"
#include "storage/morsel.h"

namespace x100 {

class Database;

/// Build-scoped state shared across one plan's factory invocations.
struct PlannerContext {
  Database* db = nullptr;
  ExecContext* exec = nullptr;
  /// Pipeline width: the number of worker chains a breaker factory clones
  /// from a streaming input.
  int parallelism = 1;
  /// Effective radix bits for pipeline-breaker merges (already resolved
  /// against the pipeline width via EffectiveRadixBits — 0 disables
  /// partitioning). Threaded into JoinBuildState / HashAggOp so
  /// their barrier merges fan out over 2^radix_bits partition tasks.
  int radix_bits = 0;
  /// The raw EngineConfig::radix_bits value. Auto (-1) lets the join
  /// factory apply the tiny-build cutoff (RadixBitsForBuild): a build
  /// whose scan spine bounds it under kTinyBuildRows skips partitioning
  /// instead of paying ~2^radix_bits empty buffers per worker. Explicit
  /// settings pass through untouched.
  int configured_radix_bits = -1;
  /// True while building one of the N clones of a pipeline (set by
  /// BuildPipelineChains): scans then draw from a shared MorselSource,
  /// and a breaker inside (a join's build side) runs one chain.
  bool cloning = false;
  /// Clone sharing by algebra-node identity: the same logical scan / join
  /// built N times resolves to one MorselSource / JoinBuildState.
  std::map<const AlgebraNode*, MorselSourcePtr> scan_sources;
  std::map<const AlgebraNode*, JoinBuildStatePtr> join_states;
};

class PhysicalPlanner {
 public:
  /// Builds the operator for `node`; recurse into children via
  /// `planner->Build(child, pc)`.
  using Factory = std::function<Result<OperatorPtr>(
      const AlgebraPtr& node, PlannerContext* pc,
      const PhysicalPlanner* planner)>;

  /// Registers (or replaces) the factory for `kind`.
  void Register(AlgebraNode::Kind kind, Factory factory);
  bool Has(AlgebraNode::Kind kind) const;

  /// Dispatches to the registered factory; Unimplemented for unknown
  /// kinds.
  Result<OperatorPtr> Build(const AlgebraPtr& node, PlannerContext* pc) const;

  /// The built-in operator set. Copy it to customize:
  ///   PhysicalPlanner mine = PhysicalPlanner::Default();
  ///   mine.Register(AlgebraNode::Kind::kOrder, my_sort_factory);
  static const PhysicalPlanner& Default();

 private:
  std::map<AlgebraNode::Kind, Factory> factories_;
};

/// Extracts MinMax-pushable conjuncts from a predicate: `col OP const` and
/// the flipped `const OP col` (the seed silently dropped the latter).
/// Exposed for tests.
void ExtractScanPushdown(const ExprPtr& pred, const Schema& schema,
                         std::vector<ScanPredicate>* out);

/// Builds a ScanOp for a kScan node, with optional MinMax pushdown
/// predicate and morsel-source sharing through `pc`. Used by the scan and
/// select factories.
Result<OperatorPtr> BuildScanOp(const AlgebraNode& node, PlannerContext* pc,
                                const ExprPtr& pushdown_pred);

/// True if `node` is a streaming chain a pipeline can clone per worker:
/// Select/Project over a Scan, with any number of Joins probed along the
/// way (each join's build side becomes its own pipeline). Pipeline
/// breakers (Aggr, Order) are not clonable. Exposed for tests.
bool IsClonablePipeline(const AlgebraPtr& node);

/// Builds `n` operator clones of the streaming chain `node`, sharing
/// morsel sources and join build states through `pc`. Exposed for tests
/// and custom planner factories.
Result<std::vector<OperatorPtr>> BuildPipelineChains(
    const AlgebraPtr& node, int n, PlannerContext* pc,
    const PhysicalPlanner* planner);

/// The plan root's chains: the root is a sink like HashAggOp and SortOp,
/// drained by QueryExecutor into the result (CollectChains).
struct RootChains {
  std::vector<OperatorPtr> chains;
  /// A bare LIMIT at the root: the drain stops once this many rows have
  /// arrived. -1 = no limit.
  int64_t limit = -1;
};

/// Entry point for a whole plan. A keyless Order at the root (a LIMIT
/// without ORDER BY) becomes the drain's row limit instead of a sort.
/// When the rest of the root is a clonable streaming chain containing a
/// join (a bare join, or Select/Project links over one — no Aggr/Order
/// sink above it to parallelize into), it runs as `parallelism` clones;
/// without this a root-level join gets a parallel build but a serial
/// probe. Otherwise the root is one chain, built by planner->Build. Used
/// by QueryExecutor.
Result<RootChains> BuildRootChains(const AlgebraPtr& root,
                                   PlannerContext* pc,
                                   const PhysicalPlanner* planner);

}  // namespace x100

#endif  // X100_ENGINE_PHYSICAL_PLAN_H_
