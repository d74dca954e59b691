#include "algebra/algebra.h"

namespace x100 {

AlgebraPtr ScanNode(std::string table, std::vector<std::string> cols) {
  auto n = std::make_shared<AlgebraNode>();
  n->kind = AlgebraNode::Kind::kScan;
  n->table = std::move(table);
  n->scan_columns = std::move(cols);
  return n;
}

AlgebraPtr SelectNode(AlgebraPtr child, ExprPtr pred) {
  auto n = std::make_shared<AlgebraNode>();
  n->kind = AlgebraNode::Kind::kSelect;
  n->children = {std::move(child)};
  n->predicate = std::move(pred);
  return n;
}

AlgebraPtr ProjectNode(AlgebraPtr child, std::vector<ProjectItem> items) {
  auto n = std::make_shared<AlgebraNode>();
  n->kind = AlgebraNode::Kind::kProject;
  n->children = {std::move(child)};
  n->items = std::move(items);
  return n;
}

AlgebraPtr AggrNode(AlgebraPtr child, std::vector<ProjectItem> group_by,
                    std::vector<AggItem> aggs) {
  auto n = std::make_shared<AlgebraNode>();
  n->kind = AlgebraNode::Kind::kAggr;
  n->children = {std::move(child)};
  n->group_by = std::move(group_by);
  n->aggs = std::move(aggs);
  return n;
}

AlgebraPtr JoinNode(AlgebraPtr build, AlgebraPtr probe, JoinType type,
                    std::vector<std::string> build_keys,
                    std::vector<std::string> probe_keys) {
  auto n = std::make_shared<AlgebraNode>();
  n->kind = AlgebraNode::Kind::kJoin;
  n->children = {std::move(build), std::move(probe)};
  n->join_type = type;
  n->build_keys = std::move(build_keys);
  n->probe_keys = std::move(probe_keys);
  return n;
}

AlgebraPtr OrderNode(AlgebraPtr child,
                     std::vector<AlgebraNode::OrderKey> keys, int64_t limit) {
  auto n = std::make_shared<AlgebraNode>();
  n->kind = AlgebraNode::Kind::kOrder;
  n->children = {std::move(child)};
  n->order_keys = std::move(keys);
  n->limit = limit;
  return n;
}

AlgebraPtr CloneAlgebra(const AlgebraPtr& node) {
  auto copy = std::make_shared<AlgebraNode>(*node);
  for (auto& c : copy->children) c = CloneAlgebra(c);
  if (copy->predicate) copy->predicate = CloneExpr(copy->predicate);
  for (auto& item : copy->items) item.expr = CloneExpr(item.expr);
  for (auto& item : copy->group_by) item.expr = CloneExpr(item.expr);
  for (auto& agg : copy->aggs) {
    if (agg.input) agg.input = CloneExpr(agg.input);
  }
  return copy;
}

std::string AlgebraNode::ToString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string s = pad;
  switch (kind) {
    case Kind::kScan:
      s += "Scan(" + table + ")";
      break;
    case Kind::kSelect:
      s += "Select(" + predicate->ToString() + ")";
      break;
    case Kind::kProject: {
      s += "Project(";
      for (size_t i = 0; i < items.size(); i++) {
        if (i) s += ", ";
        s += items[i].name + "=" + items[i].expr->ToString();
      }
      s += ")";
      break;
    }
    case Kind::kAggr: {
      s += "Aggr(keys=[";
      for (size_t i = 0; i < group_by.size(); i++) {
        if (i) s += ", ";
        s += group_by[i].name;
      }
      s += "], aggs=[";
      for (size_t i = 0; i < aggs.size(); i++) {
        if (i) s += ", ";
        s += std::string(AggKindName(aggs[i].kind)) + ":" + aggs[i].name;
      }
      s += "])";
      break;
    }
    case Kind::kJoin:
      s += std::string("Join[") + JoinTypeName(join_type) + "]";
      break;
    case Kind::kOrder:
      s += limit >= 0 ? "TopN(" + std::to_string(limit) + ")" : "Order";
      break;
  }
  for (const AlgebraPtr& c : children) {
    s += "\n" + c->ToString(indent + 1);
  }
  return s;
}

}  // namespace x100
