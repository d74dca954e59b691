// X100 algebra: the plan language the cross compiler targets and the
// rewriter transforms (Figure 1: "Vectorwise Rewriter" sits between the
// cross compiler and vectorized execution).
#ifndef X100_ALGEBRA_ALGEBRA_H_
#define X100_ALGEBRA_ALGEBRA_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/select_project.h"

namespace x100 {

struct AlgebraNode;
using AlgebraPtr = std::shared_ptr<AlgebraNode>;

/// One node of an X100 algebra plan. Column references are by name; the
/// plan builder (engine/query_executor) resolves them bottom-up.
struct AlgebraNode {
  enum class Kind : uint8_t {
    kScan,     // table: name, optional column subset (empty = all)
    kSelect,   // predicate
    kProject,  // items
    kAggr,     // group_by + aggs
    kJoin,     // children[0] = build/right, children[1] = probe/left
    kOrder,    // order_keys (+ optional limit)
  };

  Kind kind;
  std::vector<AlgebraPtr> children;

  // kScan
  std::string table;
  std::vector<std::string> scan_columns;  // empty = all columns

  // kSelect
  ExprPtr predicate;

  // kProject
  std::vector<ProjectItem> items;

  // kAggr
  std::vector<ProjectItem> group_by;
  std::vector<AggItem> aggs;

  // kJoin — keys by column name on each side.
  JoinType join_type = JoinType::kInner;
  std::vector<std::string> build_keys;
  std::vector<std::string> probe_keys;
  /// Set by the AntiJoinNullRule: the NOT IN key may produce NULLs.
  bool null_aware_candidate = false;

  // kOrder
  struct OrderKey {
    std::string column;
    bool ascending = true;
  };
  std::vector<OrderKey> order_keys;
  int64_t limit = -1;

  std::string ToString(int indent = 0) const;
};

AlgebraPtr ScanNode(std::string table, std::vector<std::string> cols = {});
AlgebraPtr SelectNode(AlgebraPtr child, ExprPtr pred);
AlgebraPtr ProjectNode(AlgebraPtr child, std::vector<ProjectItem> items);
AlgebraPtr AggrNode(AlgebraPtr child, std::vector<ProjectItem> group_by,
                    std::vector<AggItem> aggs);
AlgebraPtr JoinNode(AlgebraPtr build, AlgebraPtr probe, JoinType type,
                    std::vector<std::string> build_keys,
                    std::vector<std::string> probe_keys);
AlgebraPtr OrderNode(AlgebraPtr child,
                     std::vector<AlgebraNode::OrderKey> keys,
                     int64_t limit = -1);

/// Deep copy: expressions included, so the copy can be rewritten without
/// touching the original.
AlgebraPtr CloneAlgebra(const AlgebraPtr& node);

}  // namespace x100

#endif  // X100_ALGEBRA_ALGEBRA_H_
