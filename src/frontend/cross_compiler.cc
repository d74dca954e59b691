// The cross compiler: Ingres-like relational plans -> X100 algebra, with
// scan column pruning.
#include <set>

#include "frontend/frontend.h"

namespace x100 {

namespace {

void CollectColumns(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColRef && e->name != "*") {
    out->insert(e->name);
  }
  for (const ExprPtr& a : e->args) CollectColumns(a, out);
}

/// Gathers every column referenced above the relation node.
void CollectPlanColumns(const RelPtr& node, std::set<std::string>* out) {
  CollectColumns(node->qualification, out);
  for (const auto& t : node->targets) CollectColumns(t.expr, out);
  for (const auto& b : node->by_list) CollectColumns(b.expr, out);
  for (const auto& a : node->agg_funcs) CollectColumns(a.input, out);
  for (const auto& k : node->sort_keys) out->insert(k.column);
  for (const RelPtr& c : node->children) CollectPlanColumns(c, out);
}

/// True if the relation's rows leave the plan whole (SELECT *: no
/// projection or aggregation above the relation).
bool OutputsRelationRows(const RelPtr& node) {
  if (node->kind == RelNode::Kind::kProject ||
      node->kind == RelNode::Kind::kAggregate) {
    return false;
  }
  return node->children.empty() || OutputsRelationRows(node->children[0]);
}

/// The narrowest fixed-width column of `schema` (the first column when
/// every column is a string).
std::string NarrowestColumn(const Schema& schema) {
  const Field* best = &schema.field(0);
  for (const Field& f : schema.fields()) {
    if (f.type != TypeId::kStr &&
        (best->type == TypeId::kStr ||
         TypeWidth(f.type) < TypeWidth(best->type))) {
      best = &f;
    }
  }
  return best->name;
}

}  // namespace

Result<AlgebraPtr> CrossCompiler::CompileNode(const RelPtr& node) {
  switch (node->kind) {
    case RelNode::Kind::kRelation:
      return ScanNode(node->relation);
    case RelNode::Kind::kRestrict: {
      AlgebraPtr child;
      X100_ASSIGN_OR_RETURN(child, CompileNode(node->children[0]));
      return SelectNode(std::move(child), node->qualification);
    }
    case RelNode::Kind::kProject: {
      AlgebraPtr child;
      X100_ASSIGN_OR_RETURN(child, CompileNode(node->children[0]));
      std::vector<ProjectItem> items;
      for (const ProjectItem& t : node->targets) {
        items.push_back({t.name, CloneExpr(t.expr)});
      }
      return ProjectNode(std::move(child), std::move(items));
    }
    case RelNode::Kind::kAggregate: {
      AlgebraPtr child;
      X100_ASSIGN_OR_RETURN(child, CompileNode(node->children[0]));
      std::vector<ProjectItem> keys;
      for (const ProjectItem& b : node->by_list) {
        keys.push_back({b.name, CloneExpr(b.expr)});
      }
      std::vector<AggItem> aggs;
      for (const AggItem& a : node->agg_funcs) {
        aggs.push_back(
            {a.kind, a.input ? CloneExpr(a.input) : nullptr, a.name});
      }
      return AggrNode(std::move(child), std::move(keys), std::move(aggs));
    }
    case RelNode::Kind::kSort: {
      AlgebraPtr child;
      X100_ASSIGN_OR_RETURN(child, CompileNode(node->children[0]));
      std::vector<AlgebraNode::OrderKey> keys;
      for (const RelNode::SortKey& k : node->sort_keys) {
        keys.push_back({k.column, k.ascending});
      }
      return OrderNode(std::move(child), std::move(keys), node->limit);
    }
  }
  return Status::Internal("unknown RelNode kind");
}

Result<AlgebraPtr> CrossCompiler::Compile(const RelPtr& plan) {
  AlgebraPtr out;
  X100_ASSIGN_OR_RETURN(out, CompileNode(plan));

  // Column pruning: find the relation leaf and restrict its scan to the
  // columns the rest of the plan references.
  std::set<std::string> referenced;
  CollectPlanColumns(plan, &referenced);
  const RelPtr* rel = &plan;
  while ((*rel)->kind != RelNode::Kind::kRelation) {
    rel = &(*rel)->children[0];
  }
  AlgebraPtr* scan = &out;
  while ((*scan)->kind != AlgebraNode::Kind::kScan) {
    scan = &(*scan)->children[0];
  }
  // A plan that references no column and outputs no relation row (say
  // COUNT(*)) needs only the row count: it scans one narrow column.
  const bool count_only = referenced.empty() && !OutputsRelationRows(plan);
  if ((!referenced.empty() || count_only) && resolver_ != nullptr) {
    Schema schema;
    X100_ASSIGN_OR_RETURN(schema, resolver_((*rel)->relation));
    std::vector<std::string> cols;
    for (const Field& f : schema.fields()) {
      if (referenced.count(f.name)) cols.push_back(f.name);
    }
    if (count_only && schema.num_fields() > 0) {
      cols.push_back(NarrowestColumn(schema));
    }
    if (!cols.empty()) (*scan)->scan_columns = std::move(cols);
  }
  return out;
}

}  // namespace x100
