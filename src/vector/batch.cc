#include "vector/batch.h"

namespace x100 {

std::unique_ptr<Batch> Batch::Compact(const Schema& schema) const {
  auto out = std::make_unique<Batch>(schema, capacity_);
  const int n = ActiveRows();
  for (int c = 0; c < num_columns(); c++) {
    out->column(c)->CopyFrom(*cols_[c], 0, n, 0, sel());
  }
  out->set_rows(n);
  return out;
}

}  // namespace x100
