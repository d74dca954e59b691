// ValuesOp: an operator producing a fixed list of rows (VALUES lists,
// tests, constant inputs to joins).
#ifndef X100_EXEC_VALUES_H_
#define X100_EXEC_VALUES_H_

#include <memory>
#include <vector>

#include "exec/operator.h"

namespace x100 {

class ValuesOp : public Operator {
 public:
  ValuesOp(Schema schema, std::vector<std::vector<Value>> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}
  ~ValuesOp() override {}

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    pos_ = 0;
    out_ = std::make_unique<Batch>(schema_, ctx->vector_size);
    return Status::OK();
  }

  Result<Batch*> NextImpl() override {
    X100_RETURN_IF_ERROR(ctx_->CheckCancel());
    if (pos_ >= static_cast<int64_t>(rows_.size())) return nullptr;
    out_->Reset();
    const int n = static_cast<int>(std::min<int64_t>(
        ctx_->vector_size, static_cast<int64_t>(rows_.size()) - pos_));
    for (int j = 0; j < n; j++) {
      const std::vector<Value>& row = rows_[pos_ + j];
      for (int c = 0; c < schema_.num_fields(); c++) {
        out_->column(c)->SetValue(j, row[c]);
      }
    }
    pos_ += n;
    out_->set_rows(n);
    return out_.get();
  }

  void CloseImpl() override {}
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "Values"; }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
  int64_t pos_ = 0;
  ExecContext* ctx_ = nullptr;
  std::unique_ptr<Batch> out_;
};

}  // namespace x100

#endif  // X100_EXEC_VALUES_H_
