#include "volcano/volcano.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace x100 {
namespace volcano {

namespace {

// ---------------------------------------------------------------------------
// Scalar expression nodes (one virtual call per tuple per node — the
// conventional interpretation cost E1/E2 quantify).
// ---------------------------------------------------------------------------

class ColNode : public VExpr {
 public:
  explicit ColNode(int col) : col_(col) {}
  Result<Value> Eval(const Row& row) const override { return row[col_]; }

 private:
  int col_;
};

class ConstNode : public VExpr {
 public:
  explicit ConstNode(Value v) : v_(std::move(v)) {}
  Result<Value> Eval(const Row&) const override { return v_; }

 private:
  Value v_;
};

enum class BinOp { kAdd, kSub, kMul, kDiv, kMod, kEq, kNe, kLt, kLe, kGt, kGe };

class BinNode : public VExpr {
 public:
  BinNode(BinOp op, TypeId type, VExprPtr l, VExprPtr r)
      : op_(op), type_(type), l_(std::move(l)), r_(std::move(r)) {}

  Result<Value> Eval(const Row& row) const override {
    Value a, b;
    X100_ASSIGN_OR_RETURN(a, l_->Eval(row));
    X100_ASSIGN_OR_RETURN(b, r_->Eval(row));
    // Per-tuple NULL branch — strict semantics.
    if (a.is_null() || b.is_null()) {
      return Value::Null(op_ >= BinOp::kEq ? TypeId::kBool : type_);
    }
    const bool flt = type_ == TypeId::kF64;
    switch (op_) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul: {
        if (flt) {
          const double x = a.AsF64(), y = b.AsF64();
          return Value::F64(op_ == BinOp::kAdd   ? x + y
                            : op_ == BinOp::kSub ? x - y
                                                 : x * y);
        }
        int64_t r;
        bool ovf;
        // Per-tuple overflow branch — the naive scheme of E7.
        if (op_ == BinOp::kAdd) {
          ovf = __builtin_add_overflow(a.AsI64(), b.AsI64(), &r);
        } else if (op_ == BinOp::kSub) {
          ovf = __builtin_sub_overflow(a.AsI64(), b.AsI64(), &r);
        } else {
          ovf = __builtin_mul_overflow(a.AsI64(), b.AsI64(), &r);
        }
        if (ovf) return Status::Overflow("integer overflow");
        return MakeInt(r);
      }
      case BinOp::kDiv: {
        if (flt) {
          if (b.AsF64() == 0) return Status::DivisionByZero("x/0");
          return Value::F64(a.AsF64() / b.AsF64());
        }
        if (b.AsI64() == 0) return Status::DivisionByZero("x/0");
        if (a.AsI64() == std::numeric_limits<int64_t>::min() &&
            b.AsI64() == -1) {
          return Status::Overflow("integer overflow in div");
        }
        return MakeInt(a.AsI64() / b.AsI64());
      }
      case BinOp::kMod: {
        if (b.AsI64() == 0) return Status::DivisionByZero("x%0");
        return MakeInt(a.AsI64() % b.AsI64());
      }
      default: {
        int cmp;
        if (type_ == TypeId::kStr) {
          cmp = a.AsStr().compare(b.AsStr());
        } else if (flt) {
          cmp = a.AsF64() < b.AsF64() ? -1 : a.AsF64() > b.AsF64() ? 1 : 0;
        } else {
          cmp = a.AsI64() < b.AsI64() ? -1 : a.AsI64() > b.AsI64() ? 1 : 0;
        }
        bool res = false;
        switch (op_) {
          case BinOp::kEq: res = cmp == 0; break;
          case BinOp::kNe: res = cmp != 0; break;
          case BinOp::kLt: res = cmp < 0; break;
          case BinOp::kLe: res = cmp <= 0; break;
          case BinOp::kGt: res = cmp > 0; break;
          case BinOp::kGe: res = cmp >= 0; break;
          default: break;
        }
        return Value::Bool(res);
      }
    }
  }

 private:
  Value MakeInt(int64_t v) const {
    switch (type_) {
      case TypeId::kI8: return Value::I8(static_cast<int8_t>(v));
      case TypeId::kI16: return Value::I16(static_cast<int16_t>(v));
      case TypeId::kI32: return Value::I32(static_cast<int32_t>(v));
      case TypeId::kDate: return Value::Date(static_cast<int32_t>(v));
      default: return Value::I64(v);
    }
  }
  BinOp op_;
  TypeId type_;
  VExprPtr l_, r_;
};

class LogicalNode : public VExpr {
 public:
  enum class Kind { kAnd, kOr, kNot };
  LogicalNode(Kind kind, VExprPtr l, VExprPtr r)
      : kind_(kind), l_(std::move(l)), r_(std::move(r)) {}

  Result<Value> Eval(const Row& row) const override {
    Value a;
    X100_ASSIGN_OR_RETURN(a, l_->Eval(row));
    if (kind_ == Kind::kNot) {
      if (a.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(!a.AsBool());
    }
    // Three-valued logic with short circuit.
    if (kind_ == Kind::kAnd && !a.is_null() && !a.AsBool()) {
      return Value::Bool(false);
    }
    if (kind_ == Kind::kOr && !a.is_null() && a.AsBool()) {
      return Value::Bool(true);
    }
    Value b;
    X100_ASSIGN_OR_RETURN(b, r_->Eval(row));
    if (kind_ == Kind::kAnd) {
      if (!b.is_null() && !b.AsBool()) return Value::Bool(false);
      if (a.is_null() || b.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(true);
    }
    if (!b.is_null() && b.AsBool()) return Value::Bool(true);
    if (a.is_null() || b.is_null()) return Value::Null(TypeId::kBool);
    return Value::Bool(false);
  }

 private:
  Kind kind_;
  VExprPtr l_, r_;
};

class CastNode : public VExpr {
 public:
  CastNode(TypeId to, VExprPtr in) : to_(to), in_(std::move(in)) {}
  Result<Value> Eval(const Row& row) const override {
    Value v;
    X100_ASSIGN_OR_RETURN(v, in_->Eval(row));
    if (v.is_null()) return Value::Null(to_);
    switch (to_) {
      case TypeId::kF64: return Value::F64(v.AsF64());
      case TypeId::kI64: return Value::I64(v.AsI64());
      case TypeId::kI32: return Value::I32(static_cast<int32_t>(v.AsI64()));
      default: return v;
    }
  }

 private:
  TypeId to_;
  VExprPtr in_;
};

class DateFnNode : public VExpr {
 public:
  DateFnNode(std::string fn, VExprPtr in)
      : fn_(std::move(fn)), in_(std::move(in)) {}
  Result<Value> Eval(const Row& row) const override {
    Value v;
    X100_ASSIGN_OR_RETURN(v, in_->Eval(row));
    if (v.is_null()) return Value::Null(TypeId::kI32);
    const int32_t d = static_cast<int32_t>(v.AsI64());
    if (fn_ == "year") return Value::I32(DateYear(d));
    if (fn_ == "month") return Value::I32(DateMonth(d));
    if (fn_ == "day") return Value::I32(DateDay(d));
    return Status::NotImplemented("volcano date fn " + fn_);
  }

 private:
  std::string fn_;
  VExprPtr in_;
};

}  // namespace

Result<VExprPtr> CompileScalar(const ExprPtr& e) {
  if (!e->bound) return Status::InvalidArgument("expression not bound");
  switch (e->kind) {
    case Expr::Kind::kColRef:
      return VExprPtr(new ColNode(e->col));
    case Expr::Kind::kConst:
      return VExprPtr(new ConstNode(e->constant));
    case Expr::Kind::kCall:
      break;
  }
  auto bin = [&](BinOp op) -> Result<VExprPtr> {
    VExprPtr l, r;
    X100_ASSIGN_OR_RETURN(l, CompileScalar(e->args[0]));
    X100_ASSIGN_OR_RETURN(r, CompileScalar(e->args[1]));
    // Comparison nodes need the operand type, arithmetic the result type.
    const TypeId t =
        op >= BinOp::kEq ? e->args[0]->type : e->type;
    return VExprPtr(new BinNode(op, t, std::move(l), std::move(r)));
  };
  const std::string& fn = e->fn;
  if (fn == "add") return bin(BinOp::kAdd);
  if (fn == "sub") return bin(BinOp::kSub);
  if (fn == "mul") return bin(BinOp::kMul);
  if (fn == "div") return bin(BinOp::kDiv);
  if (fn == "mod") return bin(BinOp::kMod);
  if (fn == "eq") return bin(BinOp::kEq);
  if (fn == "ne") return bin(BinOp::kNe);
  if (fn == "lt") return bin(BinOp::kLt);
  if (fn == "le") return bin(BinOp::kLe);
  if (fn == "gt") return bin(BinOp::kGt);
  if (fn == "ge") return bin(BinOp::kGe);
  if (fn == "and" || fn == "or" || fn == "not") {
    VExprPtr l, r;
    X100_ASSIGN_OR_RETURN(l, CompileScalar(e->args[0]));
    if (fn != "not") {
      X100_ASSIGN_OR_RETURN(r, CompileScalar(e->args[1]));
    }
    const LogicalNode::Kind k = fn == "and"  ? LogicalNode::Kind::kAnd
                                : fn == "or" ? LogicalNode::Kind::kOr
                                             : LogicalNode::Kind::kNot;
    return VExprPtr(new LogicalNode(k, std::move(l), std::move(r)));
  }
  if (fn.rfind("cast_", 0) == 0) {
    VExprPtr in;
    X100_ASSIGN_OR_RETURN(in, CompileScalar(e->args[0]));
    return VExprPtr(new CastNode(e->type, std::move(in)));
  }
  if (fn == "year" || fn == "month" || fn == "day") {
    VExprPtr in;
    X100_ASSIGN_OR_RETURN(in, CompileScalar(e->args[0]));
    return VExprPtr(new DateFnNode(fn, std::move(in)));
  }
  return Status::NotImplemented("volcano scalar fn: " + fn);
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

Status VSelect::Open() {
  X100_RETURN_IF_ERROR(child_->Open());
  ExprPtr bound;
  X100_ASSIGN_OR_RETURN(bound, BindExpr(predicate_, child_->output_schema()));
  X100_ASSIGN_OR_RETURN(compiled_, CompileScalar(bound));
  return Status::OK();
}

Result<bool> VSelect::Next(Row* out) {
  while (true) {
    bool has;
    X100_ASSIGN_OR_RETURN(has, child_->Next(out));
    if (!has) return false;
    Value v;
    X100_ASSIGN_OR_RETURN(v, compiled_->Eval(*out));
    if (!v.is_null() && v.AsBool()) return true;
  }
}

Status VProject::Open() {
  X100_RETURN_IF_ERROR(child_->Open());
  schema_ = Schema();
  compiled_.clear();
  for (const VProjectItem& item : items_) {
    ExprPtr bound;
    X100_ASSIGN_OR_RETURN(bound, BindExpr(item.expr,
                                          child_->output_schema()));
    schema_.AddField(Field(item.name, bound->type, bound->nullable));
    VExprPtr c;
    X100_ASSIGN_OR_RETURN(c, CompileScalar(bound));
    compiled_.push_back(std::move(c));
  }
  return Status::OK();
}

Result<bool> VProject::Next(Row* out) {
  bool has;
  X100_ASSIGN_OR_RETURN(has, child_->Next(&input_));
  if (!has) return false;
  out->clear();
  out->reserve(compiled_.size());
  for (const VExprPtr& c : compiled_) {
    Value v;
    X100_ASSIGN_OR_RETURN(v, c->Eval(input_));
    out->push_back(std::move(v));
  }
  return true;
}

namespace {
/// Canonical byte key for hash maps over Values.
std::string KeyOf(const Row& row, const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) {
    const Value& v = row[c];
    if (v.is_null()) {
      key += "\x01N";
      continue;
    }
    switch (v.type()) {
      case TypeId::kF64: {
        const double d = v.AsF64();
        key.append(reinterpret_cast<const char*>(&d), sizeof(d));
        break;
      }
      case TypeId::kStr:
        key += v.AsStr();
        break;
      default: {
        const int64_t i = v.AsI64();
        key.append(reinterpret_cast<const char*>(&i), sizeof(i));
        break;
      }
    }
    key += '\x02';
  }
  return key;
}
}  // namespace

Status VHashAgg::Open() {
  X100_RETURN_IF_ERROR(child_->Open());
  schema_ = Schema();
  key_exprs_.clear();
  agg_exprs_.clear();
  for (const VProjectItem& g : group_items_) {
    ExprPtr bound;
    X100_ASSIGN_OR_RETURN(bound, BindExpr(g.expr, child_->output_schema()));
    schema_.AddField(Field(g.name, bound->type, bound->nullable));
    VExprPtr c;
    X100_ASSIGN_OR_RETURN(c, CompileScalar(bound));
    key_exprs_.push_back(std::move(c));
  }
  for (const VAggItem& a : agg_items_) {
    TypeId out = TypeId::kI64;
    if (a.input != nullptr) {
      ExprPtr bound;
      X100_ASSIGN_OR_RETURN(bound, BindExpr(a.input,
                                            child_->output_schema()));
      VExprPtr c;
      X100_ASSIGN_OR_RETURN(c, CompileScalar(bound));
      agg_exprs_.push_back(std::move(c));
      out = a.kind == AggKind::kAvg
                ? TypeId::kF64
                : (a.kind == AggKind::kSum && bound->type != TypeId::kF64
                       ? TypeId::kI64
                       : bound->type);
      if (a.kind == AggKind::kCount) out = TypeId::kI64;
    } else {
      agg_exprs_.push_back(nullptr);
    }
    schema_.AddField(Field(a.name, out, a.kind != AggKind::kCount));
  }
  consumed_ = false;
  emit_ = 0;
  groups_.clear();
  index_.clear();
  return Status::OK();
}

Status VHashAgg::Consume() {
  Row row;
  Row keys(key_exprs_.size());
  while (true) {
    bool has;
    X100_ASSIGN_OR_RETURN(has, child_->Next(&row));
    if (!has) break;
    for (size_t k = 0; k < key_exprs_.size(); k++) {
      Value v;
      X100_ASSIGN_OR_RETURN(v, key_exprs_[k]->Eval(row));
      keys[k] = std::move(v);
    }
    std::vector<int> all(keys.size());
    for (size_t k = 0; k < keys.size(); k++) all[k] = static_cast<int>(k);
    const std::string key = KeyOf(keys, all);
    auto [it, inserted] = index_.try_emplace(key, groups_.size());
    if (inserted) {
      GroupState gs;
      gs.keys = keys;
      gs.f64.assign(agg_items_.size(), 0);
      gs.i64.assign(agg_items_.size(), 0);
      gs.count.assign(agg_items_.size(), 0);
      groups_.push_back(std::move(gs));
    }
    GroupState& gs = groups_[it->second];
    for (size_t a = 0; a < agg_items_.size(); a++) {
      const VAggItem& item = agg_items_[a];
      if (item.input == nullptr) {
        gs.count[a]++;
        continue;
      }
      Value v;
      X100_ASSIGN_OR_RETURN(v, agg_exprs_[a]->Eval(row));
      if (v.is_null()) continue;
      switch (item.kind) {
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          gs.f64[a] += v.AsF64();
          if (v.type() != TypeId::kF64) gs.i64[a] += v.AsI64();
          break;
        case AggKind::kMin:
          if (gs.count[a] == 0 || v.AsF64() < gs.f64[a]) {
            gs.f64[a] = v.AsF64();
            gs.i64[a] = v.type() == TypeId::kF64 ? 0 : v.AsI64();
          }
          break;
        case AggKind::kMax:
          if (gs.count[a] == 0 || v.AsF64() > gs.f64[a]) {
            gs.f64[a] = v.AsF64();
            gs.i64[a] = v.type() == TypeId::kF64 ? 0 : v.AsI64();
          }
          break;
      }
      gs.count[a]++;
    }
  }
  // Global aggregate over empty input: one group.
  if (group_items_.empty() && groups_.empty()) {
    GroupState gs;
    gs.f64.assign(agg_items_.size(), 0);
    gs.i64.assign(agg_items_.size(), 0);
    gs.count.assign(agg_items_.size(), 0);
    groups_.push_back(std::move(gs));
  }
  consumed_ = true;
  return Status::OK();
}

Result<bool> VHashAgg::Next(Row* out) {
  if (!consumed_) X100_RETURN_IF_ERROR(Consume());
  if (emit_ >= groups_.size()) return false;
  const GroupState& gs = groups_[emit_++];
  *out = gs.keys;
  for (size_t a = 0; a < agg_items_.size(); a++) {
    const VAggItem& item = agg_items_[a];
    const TypeId out_t =
        schema_.field(static_cast<int>(group_items_.size() + a)).type;
    if (item.kind == AggKind::kCount) {
      out->push_back(Value::I64(gs.count[a]));
      continue;
    }
    if (gs.count[a] == 0) {
      out->push_back(Value::Null(out_t));
      continue;
    }
    switch (item.kind) {
      case AggKind::kSum:
        out->push_back(out_t == TypeId::kF64 ? Value::F64(gs.f64[a])
                                             : Value::I64(gs.i64[a]));
        break;
      case AggKind::kAvg:
        out->push_back(
            Value::F64(gs.f64[a] / static_cast<double>(gs.count[a])));
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (out_t == TypeId::kF64) {
          out->push_back(Value::F64(gs.f64[a]));
        } else if (out_t == TypeId::kDate) {
          out->push_back(Value::Date(static_cast<int32_t>(gs.i64[a])));
        } else if (out_t == TypeId::kI32) {
          out->push_back(Value::I32(static_cast<int32_t>(gs.i64[a])));
        } else {
          out->push_back(Value::I64(gs.i64[a]));
        }
        break;
      case AggKind::kCount:
        break;
    }
  }
  return true;
}

Status VHashJoin::Open() {
  X100_RETURN_IF_ERROR(build_->Open());
  X100_RETURN_IF_ERROR(probe_->Open());
  schema_ = Schema();
  for (const Field& f : probe_->output_schema().fields()) {
    schema_.AddField(f);
  }
  for (const Field& f : build_->output_schema().fields()) {
    schema_.AddField(f);
  }
  Row row;
  while (true) {
    bool has;
    X100_ASSIGN_OR_RETURN(has, build_->Next(&row));
    if (!has) break;
    bool null_key = false;
    for (int c : build_keys_) null_key |= row[c].is_null();
    if (null_key) continue;
    table_.emplace(KeyOf(row, build_keys_), row);
  }
  probing_ = false;
  return Status::OK();
}

Result<bool> VHashJoin::Next(Row* out) {
  while (true) {
    if (!probing_) {
      bool has;
      X100_ASSIGN_OR_RETURN(has, probe_->Next(&probe_row_));
      if (!has) return false;
      bool null_key = false;
      for (int c : probe_keys_) null_key |= probe_row_[c].is_null();
      if (null_key) continue;
      range_ = table_.equal_range(KeyOf(probe_row_, probe_keys_));
      probing_ = true;
    }
    if (range_.first == range_.second) {
      probing_ = false;
      continue;
    }
    *out = probe_row_;
    for (const Value& v : range_.first->second) out->push_back(v);
    ++range_.first;
    return true;
  }
}

Status VSort::Open() {
  X100_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  emit_ = 0;
  Row row;
  while (true) {
    bool has;
    X100_ASSIGN_OR_RETURN(has, child_->Next(&row));
    if (!has) break;
    rows_.push_back(row);
  }
  auto cmp = [&](const Row& a, const Row& b) {
    for (const Key& k : keys_) {
      const Value& x = a[k.col];
      const Value& y = b[k.col];
      int c = 0;
      if (x.is_null() || y.is_null()) {
        c = x.is_null() == y.is_null() ? 0 : (x.is_null() ? 1 : -1);
      } else if (x.type() == TypeId::kStr) {
        c = x.AsStr().compare(y.AsStr());
      } else {
        // The engine's order: NaN after every number (and before NULL).
        const double dx = x.AsF64(), dy = y.AsF64();
        const bool xn = std::isnan(dx), yn = std::isnan(dy);
        c = xn || yn ? (xn == yn ? 0 : (xn ? 1 : -1))
                     : (dx < dy ? -1 : dx > dy ? 1 : 0);
      }
      if (!k.ascending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  };
  if (limit_ >= 0 && limit_ < static_cast<int64_t>(rows_.size())) {
    std::partial_sort(rows_.begin(), rows_.begin() + limit_, rows_.end(),
                      cmp);
    rows_.resize(limit_);
  } else {
    std::stable_sort(rows_.begin(), rows_.end(), cmp);
  }
  return Status::OK();
}

Result<bool> VSort::Next(Row* out) {
  if (emit_ >= rows_.size()) return false;
  *out = rows_[emit_++];
  return true;
}

Result<std::vector<Row>> Collect(VOperator* op) {
  X100_RETURN_IF_ERROR(op->Open());
  std::vector<Row> out;
  Row row;
  while (true) {
    auto has = op->Next(&row);
    if (!has.ok()) {
      op->Close();
      return has.status();
    }
    if (!*has) break;
    out.push_back(row);
  }
  op->Close();
  return out;
}

}  // namespace volcano
}  // namespace x100
