#include "exec/expression.h"

#include <algorithm>
#include <cstring>

#include "simd/simd_kernels.h"

namespace x100 {

namespace {

/// Fills a register with a constant (broadcast), used when no val-shaped
/// kernel exists for an argument position. The constant is written once
/// (ValueToCell) and its cell's bytes are copied to every other slot, so
/// a string is one heap copy that every slot shares.
void BroadcastConst(const Value& v, int n, Vector* out) {
  if (n <= 0) return;
  auto* d = static_cast<uint8_t*>(out->RawData());
  ValueToCell(v, out->type(), d, out->heap());
  const size_t total = static_cast<size_t>(n) * TypeWidth(out->type());
  for (size_t done = TypeWidth(out->type()); done < total; done *= 2) {
    std::memcpy(d + done, d, std::min(done, total - done));
  }
}

}  // namespace

Result<std::unique_ptr<ExprProgram>> ExprProgram::Compile(const ExprPtr& e,
                                                          int vector_size,
                                                          SimdLevel simd) {
  if (!e->bound) {
    return Status::InvalidArgument("expression not bound: " + e->ToString());
  }
  EnsureKernelsRegistered();
  auto prog = std::unique_ptr<ExprProgram>(new ExprProgram());
  prog->vector_size_ = vector_size;
  prog->simd_ = simd;
  prog->out_type_ = e->type;
  prog->nullable_ = e->nullable;
  X100_ASSIGN_OR_RETURN(prog->result_, prog->CompileNode(e));
  prog->result_nullable_ = e->nullable;
  prog->passthrough_ =
      std::make_unique<Vector>(e->type, vector_size);
  return prog;
}

Result<ExprProgram::ArgRef> ExprProgram::CompileNode(const ExprPtr& e) {
  switch (e->kind) {
    case Expr::Kind::kColRef:
      return ArgRef{ArgRef::Src::kInputCol, e->col};
    case Expr::Kind::kConst: {
      if (e->constant.is_null()) {
        return Status::InvalidArgument(
            "NULL literal reached the compiler (rewriter fold missing)");
      }
      auto slot = std::make_unique<ConstSlot>();
      slot->value = e->constant;
      switch (e->type) {
        case TypeId::kF64:
          slot->f64 = e->constant.AsF64();
          slot->ptr = &slot->f64;
          break;
        case TypeId::kStr:
          slot->str_storage = e->constant.AsStr();
          slot->str = StrRef(slot->str_storage);
          slot->ptr = &slot->str;
          break;
        default:
          slot->i64 = e->constant.AsI64();
          slot->ptr = &slot->i64;  // little-endian: narrower reads alias
          break;
      }
      consts_.push_back(std::move(slot));
      return ArgRef{ArgRef::Src::kConst,
                    static_cast<int>(consts_.size()) - 1};
    }
    case Expr::Kind::kCall:
      break;
  }

  // isnull / isnotnull materialize the indicator column — they are the
  // bridge from the two-column representation back into value space.
  if (e->fn == "isnull" || e->fn == "isnotnull") {
    ArgRef arg;
    X100_ASSIGN_OR_RETURN(arg, CompileNode(e->args[0]));
    Step step;
    step.is_isnull = true;
    step.negate_isnull = e->fn == "isnotnull";
    step.args = {arg};
    step.out_type = TypeId::kBool;
    regs_.push_back(std::make_unique<Vector>(TypeId::kBool, vector_size_));
    step.out_reg = static_cast<int>(regs_.size()) - 1;
    steps_.push_back(std::move(step));
    return ArgRef{ArgRef::Src::kReg, steps_.back().out_reg};
  }

  std::vector<ArgRef> args;
  std::vector<ArgSig> sigs;
  for (const ExprPtr& a : e->args) {
    ArgRef r;
    X100_ASSIGN_OR_RETURN(r, CompileNode(a));
    args.push_back(r);
    sigs.push_back(ArgSig{a->type, r.src == ArgRef::Src::kConst});
  }

  auto* reg = PrimitiveRegistry::Get();
  MapEntry entry = reg->FindMap("map", e->fn, sigs, simd_);
  if (entry.fn == nullptr) {
    // Fall back to all-vector shapes, broadcasting constants.
    bool changed = false;
    for (size_t i = 0; i < args.size(); i++) {
      if (!sigs[i].is_const) continue;
      Step bc;
      bc.args = {args[i]};
      bc.out_type = e->args[i]->type;
      regs_.push_back(
          std::make_unique<Vector>(e->args[i]->type, vector_size_));
      bc.out_reg = static_cast<int>(regs_.size()) - 1;
      steps_.push_back(std::move(bc));
      args[i] = ArgRef{ArgRef::Src::kReg, steps_.back().out_reg};
      sigs[i].is_const = false;
      changed = true;
    }
    if (changed) entry = reg->FindMap("map", e->fn, sigs, simd_);
    if (entry.fn == nullptr) {
      return Status::NotFound("no kernel for " +
                              BuildSignature("map", e->fn, sigs));
    }
  }

  Step step;
  step.fn = entry.fn;
  step.args = args;
  step.out_type = entry.out_type;
  for (size_t i = 0; i < args.size(); i++) {
    if (e->args[i]->nullable) step.null_sources.push_back(args[i]);
  }
  regs_.push_back(std::make_unique<Vector>(entry.out_type, vector_size_));
  step.out_reg = static_cast<int>(regs_.size()) - 1;
  steps_.push_back(std::move(step));
  return ArgRef{ArgRef::Src::kReg, steps_.back().out_reg};
}

const void* ExprProgram::ResolveData(const ArgRef& a, Batch& batch) const {
  switch (a.src) {
    case ArgRef::Src::kInputCol: return batch.column(a.index)->RawData();
    case ArgRef::Src::kReg: return regs_[a.index]->RawData();
    case ArgRef::Src::kConst: return consts_[a.index]->ptr;
  }
  return nullptr;
}

const uint8_t* ExprProgram::ResolveNulls(const ArgRef& a,
                                         Batch& batch) const {
  switch (a.src) {
    case ArgRef::Src::kInputCol: {
      const Vector* v = batch.column(a.index);
      return v->has_nulls() ? v->nulls() : nullptr;
    }
    case ArgRef::Src::kReg: {
      const Vector* v = regs_[a.index].get();
      return v->has_nulls() ? v->nulls() : nullptr;
    }
    case ArgRef::Src::kConst:
      return nullptr;
  }
  return nullptr;
}

Result<const Vector*> ExprProgram::Eval(Batch& batch) {
  const int n = batch.ActiveRows();
  const sel_t* sel = batch.sel();
  const int rows = batch.rows();

  for (auto& r : regs_) {
    if (r->heap()) r->heap()->Reset();
    r->ClearNulls();
  }

  for (const Step& step : steps_) {
    Vector* out = regs_[step.out_reg].get();
    if (step.is_isnull) {
      const uint8_t* nulls = ResolveNulls(step.args[0], batch);
      uint8_t* o = out->Data<uint8_t>();
      if (nulls == nullptr) {
        std::memset(o, step.negate_isnull ? 1 : 0, rows);
      } else if (step.negate_isnull) {
        simd::IsZeroBytes(rows, nulls, o, simd_);
      } else {
        std::memcpy(o, nulls, rows);
      }
      continue;
    }
    if (step.fn == nullptr) {
      // Broadcast of a constant into a register.
      BroadcastConst(consts_[step.args[0].index]->value, rows, out);
      continue;
    }
    const void* argp[8];
    for (size_t i = 0; i < step.args.size(); i++) {
      argp[i] = ResolveData(step.args[i], batch);
    }
    PrimCtx ctx{out->heap()};
    X100_RETURN_IF_ERROR(step.fn(n, sel, argp, out->RawData(), &ctx));
    // Strict NULL propagation: OR the input indicators.
    if (!step.null_sources.empty()) {
      uint8_t* on = out->MutableNulls();
      std::memset(on, 0, rows);
      for (const ArgRef& src : step.null_sources) {
        const uint8_t* sn = ResolveNulls(src, batch);
        if (sn == nullptr) continue;
        simd::OrBytesInto(rows, sn, on, simd_);
      }
    }
  }

  switch (result_.src) {
    case ArgRef::Src::kInputCol:
      return batch.column(result_.index);
    case ArgRef::Src::kReg:
      return regs_[result_.index].get();
    case ArgRef::Src::kConst:
      if (passthrough_->heap()) passthrough_->heap()->Reset();
      BroadcastConst(consts_[result_.index]->value, rows,
                     passthrough_.get());
      return passthrough_.get();
  }
  return Status::Internal("unreachable");
}

}  // namespace x100
