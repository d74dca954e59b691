#include "rewriter/rewriter.h"

namespace x100 {

namespace {

bool IsConst(const ExprPtr& e) {
  return e->kind == Expr::Kind::kConst && !e->constant.is_null();
}
bool IsBoolConst(const ExprPtr& e, bool value) {
  return IsConst(e) && e->constant.type() == TypeId::kBool &&
         e->constant.AsBool() == value;
}

}  // namespace

Result<ExprPtr> Rewriter::ExpandFunctions(ExprPtr e) {
  if (e->kind != Expr::Kind::kCall) return e;
  for (auto& a : e->args) {
    X100_ASSIGN_OR_RETURN(a, ExpandFunctions(a));
  }
  const std::string& fn = e->fn;
  auto bump = [&](const char* rule) { stats_[rule]++; };

  if (fn == "between" || fn == "not_between") {
    if (e->args.size() != 3) {
      return Status::InvalidArgument("between expects 3 arguments");
    }
    bump("expand.between");
    ExprPtr in = And(Ge(CloneExpr(e->args[0]), e->args[1]),
                     Le(e->args[0], e->args[2]));
    return fn == "between" ? in : Not(in);
  }
  if (fn == "coalesce") {
    if (e->args.size() < 2) {
      return Status::InvalidArgument("coalesce expects >= 2 arguments");
    }
    bump("expand.coalesce");
    // Right-fold: coalesce(a, b, c) = if isnotnull(a) a else coalesce(b, c).
    ExprPtr acc = e->args.back();
    for (int i = static_cast<int>(e->args.size()) - 2; i >= 0; i--) {
      acc = Call("ifthenelse", {Call("isnotnull", {CloneExpr(e->args[i])}),
                                e->args[i], acc});
    }
    return acc;
  }
  if (fn == "left") {
    bump("expand.left");
    return Call("substring",
                {e->args[0], Lit(Value::I32(1)), e->args[1]});
  }
  if (fn == "right") {
    bump("expand.right");
    // substring(s, length(s) - n + 1, n)
    ExprPtr start = Add(Sub(Call("length", {CloneExpr(e->args[0])}),
                            CloneExpr(e->args[1])),
                        Lit(Value::I32(1)));
    return Call("substring", {e->args[0], start, e->args[1]});
  }
  if (fn == "sign") {
    bump("expand.sign");
    return Call("ifthenelse",
                {Lt(CloneExpr(e->args[0]), Lit(Value::I64(0))),
                 Lit(Value::I64(-1)),
                 Call("ifthenelse", {Gt(e->args[0], Lit(Value::I64(0))),
                                     Lit(Value::I64(1)),
                                     Lit(Value::I64(0))})});
  }
  if (fn == "abs") {
    bump("expand.abs");
    return Call("ifthenelse",
                {Lt(CloneExpr(e->args[0]), Lit(Value::I64(0))),
                 Call("neg", {CloneExpr(e->args[0])}), e->args[0]});
  }
  if (fn == "date_trunc_month") {
    bump("expand.date_trunc");
    return Call("trunc_month", {e->args[0]});
  }
  return e;
}

ExprPtr Rewriter::FoldConstants(ExprPtr e) {
  if (e->kind != Expr::Kind::kCall) return e;
  for (auto& a : e->args) a = FoldConstants(a);
  bool all_const = !e->args.empty();
  for (const auto& a : e->args) all_const &= IsConst(a);
  if (!all_const) return e;

  const std::string& fn = e->fn;
  auto lit = [&](Value v) {
    stats_["fold.constant"]++;
    return Lit(std::move(v));
  };
  const Value& a = e->args[0]->constant;
  const bool numeric2 =
      e->args.size() == 2 && IsNumericType(a.type()) &&
      IsNumericType(e->args[1]->constant.type());
  if (numeric2) {
    const Value& b = e->args[1]->constant;
    const bool flt = a.type() == TypeId::kF64 || b.type() == TypeId::kF64;
    if (fn == "add") {
      return flt ? lit(Value::F64(a.AsF64() + b.AsF64()))
                 : lit(Value::I64(a.AsI64() + b.AsI64()));
    }
    if (fn == "sub") {
      return flt ? lit(Value::F64(a.AsF64() - b.AsF64()))
                 : lit(Value::I64(a.AsI64() - b.AsI64()));
    }
    if (fn == "mul") {
      return flt ? lit(Value::F64(a.AsF64() * b.AsF64()))
                 : lit(Value::I64(a.AsI64() * b.AsI64()));
    }
    if (fn == "div" && ((flt && b.AsF64() != 0) || (!flt && b.AsI64() != 0))) {
      return flt ? lit(Value::F64(a.AsF64() / b.AsF64()))
                 : lit(Value::I64(a.AsI64() / b.AsI64()));
    }
    if (fn == "eq") return lit(Value::Bool(a.AsF64() == b.AsF64()));
    if (fn == "ne") return lit(Value::Bool(a.AsF64() != b.AsF64()));
    if (fn == "lt") return lit(Value::Bool(a.AsF64() < b.AsF64()));
    if (fn == "le") return lit(Value::Bool(a.AsF64() <= b.AsF64()));
    if (fn == "gt") return lit(Value::Bool(a.AsF64() > b.AsF64()));
    if (fn == "ge") return lit(Value::Bool(a.AsF64() >= b.AsF64()));
  }
  if (e->args.size() == 2 && a.type() == TypeId::kStr &&
      e->args[1]->constant.type() == TypeId::kStr) {
    const Value& b = e->args[1]->constant;
    if (fn == "concat") return lit(Value::Str(a.AsStr() + b.AsStr()));
    if (fn == "eq") return lit(Value::Bool(a.AsStr() == b.AsStr()));
    if (fn == "ne") return lit(Value::Bool(a.AsStr() != b.AsStr()));
  }
  if (e->args.size() == 1 && a.type() == TypeId::kStr) {
    if (fn == "length") {
      return lit(Value::I32(static_cast<int32_t>(a.AsStr().size())));
    }
    if (fn == "upper" || fn == "lower") {
      std::string s = a.AsStr();
      for (char& c : s) {
        c = fn == "upper" ? static_cast<char>(toupper(c))
                          : static_cast<char>(tolower(c));
      }
      return lit(Value::Str(std::move(s)));
    }
  }
  if (e->args.size() == 2 && a.type() == TypeId::kBool &&
      e->args[1]->constant.type() == TypeId::kBool) {
    if (fn == "and") return lit(Value::Bool(a.AsBool() && e->args[1]->constant.AsBool()));
    if (fn == "or") return lit(Value::Bool(a.AsBool() || e->args[1]->constant.AsBool()));
  }
  if (e->args.size() == 1 && a.type() == TypeId::kBool && fn == "not") {
    return lit(Value::Bool(!a.AsBool()));
  }
  return e;
}

ExprPtr Rewriter::SimplifyPredicate(ExprPtr e) {
  if (e->kind != Expr::Kind::kCall) return e;
  for (auto& a : e->args) a = SimplifyPredicate(a);
  auto bump = [&] { stats_["simplify.predicate"]++; };
  if (e->fn == "and") {
    if (IsBoolConst(e->args[0], true)) { bump(); return e->args[1]; }
    if (IsBoolConst(e->args[1], true)) { bump(); return e->args[0]; }
    if (IsBoolConst(e->args[0], false) || IsBoolConst(e->args[1], false)) {
      bump();
      return Lit(Value::Bool(false));
    }
  }
  if (e->fn == "or") {
    if (IsBoolConst(e->args[0], false)) { bump(); return e->args[1]; }
    if (IsBoolConst(e->args[1], false)) { bump(); return e->args[0]; }
    if (IsBoolConst(e->args[0], true) || IsBoolConst(e->args[1], true)) {
      bump();
      return Lit(Value::Bool(true));
    }
  }
  if (e->fn == "not" && e->args[0]->kind == Expr::Kind::kCall &&
      e->args[0]->fn == "not") {
    bump();
    return e->args[0]->args[0];
  }
  return e;
}

Result<ExprPtr> Rewriter::RewriteExpr(ExprPtr e) {
  if (e == nullptr) return e;
  if (opts_.expand_functions) {
    X100_ASSIGN_OR_RETURN(e, ExpandFunctions(std::move(e)));
  }
  if (opts_.fold_constants) e = FoldConstants(std::move(e));
  if (opts_.simplify_predicates) e = SimplifyPredicate(std::move(e));
  return e;
}

Result<AlgebraPtr> Rewriter::RewriteNode(AlgebraPtr node) {
  for (auto& c : node->children) {
    X100_ASSIGN_OR_RETURN(c, RewriteNode(c));
  }
  if (node->predicate) {
    X100_ASSIGN_OR_RETURN(node->predicate, RewriteExpr(node->predicate));
  }
  for (auto& item : node->items) {
    X100_ASSIGN_OR_RETURN(item.expr, RewriteExpr(item.expr));
  }
  for (auto& item : node->group_by) {
    X100_ASSIGN_OR_RETURN(item.expr, RewriteExpr(item.expr));
  }
  for (auto& agg : node->aggs) {
    if (agg.input) {
      X100_ASSIGN_OR_RETURN(agg.input, RewriteExpr(agg.input));
    }
  }
  // §"NULL intricacies": pick the anti-join flavor. The cross compiler
  // marks NOT IN joins as null-aware candidates; when the key cannot be
  // NULL the cheaper plain anti join is safe.
  if (opts_.rewrite_anti_joins && node->kind == AlgebraNode::Kind::kJoin &&
      node->join_type == JoinType::kAntiNullAware &&
      !node->null_aware_candidate) {
    node->join_type = JoinType::kAnti;
    stats_["antijoin.downgrade"]++;
  }
  return node;
}

Result<AlgebraPtr> Rewriter::Rewrite(AlgebraPtr plan) {
  return RewriteNode(std::move(plan));
}

}  // namespace x100
