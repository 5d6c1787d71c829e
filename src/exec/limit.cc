#include "exec/operators.h"

namespace rfv {

Status LimitOp::OpenImpl() {
  produced_ = 0;
  return child_->Open();
}

Status LimitOp::NextImpl(Row* row, bool* eof) {
  if (produced_ >= limit_) {
    *eof = true;
    return Status::OK();
  }
  bool child_eof = false;
  RFV_RETURN_IF_ERROR(child_->Next(row, &child_eof));
  if (child_eof) {
    *eof = true;
    return Status::OK();
  }
  ++produced_;
  *eof = false;
  return Status::OK();
}

Status LimitOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  if (produced_ >= limit_) {
    *eof = true;
    return Status::OK();  // *out stays null (shell preset)
  }
  VectorProjection* vp = nullptr;
  bool child_eof = false;
  RFV_RETURN_IF_ERROR(child_->NextVector(&vp, &child_eof));
  if (vp != nullptr) {
    const int64_t remaining = limit_ - produced_;
    if (static_cast<int64_t>(vp->NumSelected()) > remaining) {
      vp->sel().Truncate(static_cast<size_t>(remaining));
    }
    produced_ += static_cast<int64_t>(vp->NumSelected());
  }
  *out = vp;
  *eof = child_eof || produced_ >= limit_;
  return Status::OK();
}

}  // namespace rfv
