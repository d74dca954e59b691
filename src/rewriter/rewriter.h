// The Vectorwise rewriter — a rule-based rewriting system over the X100
// algebra (paper §"X100 rewriter": "a column-oriented rewriter module
// inside the X100 system … a rule-based rewriting system").
//
// Rules implemented (each maps to a paper work item):
//  * FunctionExpansion   — §"Many Functions": "Some functions were
//    implemented in the rewriter phase, by simplifying them or expressing
//    as combinations of other functions." (BETWEEN, COALESCE, LEFT, RIGHT,
//    SIGN, integer ABS, NOT LIKE, date_trunc…)
//  * ConstantFolding     — evaluate constant subtrees at rewrite time.
//  * PredicateSimplify   — boolean identities (AND true, OR false, NOT NOT).
//  * AntiJoinNullRule    — §"NULL intricacies": NOT-IN joins with nullable
//    keys become null-aware anti joins; non-nullable keys downgrade to the
//    cheaper plain anti join.
//
// §"Multi-core" parallelized Vectorwise with a rewriter rule inserting
// Xchg operators. Parallelism is no longer a rewrite: the physical planner
// decomposes every plan into morsel-parallel pipelines whose breakers are
// the sinks (engine/physical_plan.h).
//
// The NULL two-column decomposition of §"NULLs" lives structurally in the
// executor (ExprProgram evaluates values NULL-obliviously and ORs
// indicator columns) — see DESIGN.md §5.
#ifndef X100_REWRITER_REWRITER_H_
#define X100_REWRITER_REWRITER_H_

#include <map>
#include <string>

#include "algebra/algebra.h"

namespace x100 {

/// Rewrite statistics: rule name -> number of applications (reported by
/// bench_e11 and the monitoring example).
using RewriteStats = std::map<std::string, int64_t>;

class Rewriter {
 public:
  struct Options {
    bool expand_functions = true;
    bool fold_constants = true;
    bool simplify_predicates = true;
    bool rewrite_anti_joins = true;
  };

  Rewriter() = default;
  explicit Rewriter(Options opts) : opts_(opts) {}

  /// Applies all enabled rules; returns the rewritten plan.
  Result<AlgebraPtr> Rewrite(AlgebraPtr plan);

  const RewriteStats& stats() const { return stats_; }

  // Individual passes (exposed for tests and E12).
  Result<ExprPtr> ExpandFunctions(ExprPtr e);
  ExprPtr FoldConstants(ExprPtr e);
  ExprPtr SimplifyPredicate(ExprPtr e);

 private:
  Result<AlgebraPtr> RewriteNode(AlgebraPtr node);
  Result<ExprPtr> RewriteExpr(ExprPtr e);

  Options opts_;
  RewriteStats stats_;
};

}  // namespace x100

#endif  // X100_REWRITER_REWRITER_H_
