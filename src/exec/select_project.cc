#include "exec/select_project.h"

#include <cstring>

#include "simd/simd_kernels.h"

namespace x100 {

SelectOp::SelectOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SelectOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  X100_RETURN_IF_ERROR(child_->Open(ctx));
  ExprPtr bound;
  X100_ASSIGN_OR_RETURN(bound,
                        BindExpr(predicate_, child_->output_schema()));
  if (bound->type != TypeId::kBool) {
    return Status::InvalidArgument("predicate must be boolean: " +
                                   bound->ToString());
  }
  auto prog = ExprProgram::Compile(bound, ctx->vector_size, ctx->simd);
  X100_RETURN_IF_ERROR(prog.status());
  program_ = std::move(prog).value();
  return Status::OK();
}

Result<Batch*> SelectOp::NextImpl() {
  while (true) {
    X100_RETURN_IF_ERROR(ctx_->CheckCancel());
    Batch* in;
    X100_ASSIGN_OR_RETURN(in, child_->Next());
    if (in == nullptr) return nullptr;
    const Vector* pred;
    X100_ASSIGN_OR_RETURN(pred, program_->Eval(*in));
    const uint8_t* val = pred->Data<uint8_t>();
    const uint8_t* nulls = pred->has_nulls() ? pred->nulls() : nullptr;
    // Refine the batch's selection vector in place.
    const int n = in->ActiveRows();
    sel_t* sel = in->MutableSel();
    int k = 0;
    if (in->has_sel()) {
      const sel_t* cur = in->sel();
      for (int j = 0; j < n; j++) {
        const int i = cur[j];
        sel[k] = i;
        k += (val[i] && (!nulls || !nulls[i])) ? 1 : 0;
      }
    } else if (nulls != nullptr) {
      k = simd::CompactTrueNotNull(n, val, nulls, sel, ctx_->simd);
    } else {
      k = simd::CompactTrue(n, val, sel, ctx_->simd);
    }
    in->SetSelCount(k);
    if (k > 0) return in;
    // Fully filtered batch: pull the next one.
  }
}

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ProjectItem> items)
    : child_(std::move(child)), items_(std::move(items)) {
  // Bind at construction so output_schema() is available to parent plan
  // nodes before Open.
  for (const ProjectItem& item : items_) {
    auto bound = BindExpr(item.expr, child_->output_schema());
    if (!bound.ok()) {
      init_status_ = bound.status();
      return;
    }
    out_schema_.AddField(
        Field(item.name, (*bound)->type, (*bound)->nullable));
    bound_.push_back(std::move(bound).value());
  }
}

Status ProjectOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  X100_RETURN_IF_ERROR(init_status_);
  X100_RETURN_IF_ERROR(child_->Open(ctx));
  programs_.clear();
  for (const ExprPtr& bound : bound_) {
    auto prog = ExprProgram::Compile(bound, ctx->vector_size, ctx->simd);
    X100_RETURN_IF_ERROR(prog.status());
    programs_.push_back(std::move(prog).value());
  }
  out_ = std::make_unique<Batch>(out_schema_, ctx->vector_size);
  return Status::OK();
}

Result<Batch*> ProjectOp::NextImpl() {
  X100_RETURN_IF_ERROR(ctx_->CheckCancel());
  Batch* in;
  X100_ASSIGN_OR_RETURN(in, child_->Next());
  if (in == nullptr) return nullptr;
  out_->Reset();
  const int rows = in->rows();
  for (size_t p = 0; p < programs_.size(); p++) {
    const Vector* res;
    X100_ASSIGN_OR_RETURN(res, programs_[p]->Eval(*in));
    Vector* dst = out_->column(static_cast<int>(p));
    // Copy values positionally (the selection vector stays valid). Strings
    // share the evaluator's heap bytes under the batch-lifetime contract.
    if (dst->type() == TypeId::kStr) {
      std::memcpy(dst->Data<StrRef>(), res->Data<StrRef>(),
                  static_cast<size_t>(rows) * sizeof(StrRef));
    } else {
      std::memcpy(dst->RawData(), res->RawData(),
                  static_cast<size_t>(rows) * TypeWidth(dst->type()));
    }
    if (res->has_nulls()) {
      std::memcpy(dst->MutableNulls(), res->nulls(), rows);
    }
  }
  out_->set_rows(rows);
  if (in->has_sel()) {
    std::memcpy(out_->MutableSel(), in->sel(),
                static_cast<size_t>(in->ActiveRows()) * sizeof(sel_t));
    out_->SetSelCount(in->ActiveRows());
  }
  return out_.get();
}

}  // namespace x100
