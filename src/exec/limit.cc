#include "exec/operators.h"

namespace rfv {

Status LimitOp::OpenImpl() {
  produced_ = 0;
  return child_->Open();
}

Status LimitOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  if (produced_ >= limit_) {
    *eof = true;
    return Status::OK();
  }
  RFV_RETURN_IF_ERROR(child_->NextVector(out, eof));
  if (*eof) return Status::OK();
  SelectionVector& sel = (*out)->sel();
  sel.Truncate(static_cast<size_t>(limit_ - produced_));
  produced_ += static_cast<int64_t>(sel.size());
  return Status::OK();
}

}  // namespace rfv
