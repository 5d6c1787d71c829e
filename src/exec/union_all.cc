#include "exec/operators.h"

namespace rfv {

Status UnionAllOp::OpenImpl() {
  current_ = 0;
  for (auto& child : children_) {
    RFV_RETURN_IF_ERROR(child->Open());
  }
  return Status::OK();
}

Status UnionAllOp::NextImpl(Row* row, bool* eof) {
  while (current_ < children_.size()) {
    bool child_eof = false;
    RFV_RETURN_IF_ERROR(children_[current_]->Next(row, &child_eof));
    if (!child_eof) {
      *eof = false;
      return Status::OK();
    }
    ++current_;
  }
  *eof = true;
  return Status::OK();
}

Status UnionAllOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // The current child's projection passes through untouched; a drained
  // child hands over to the next one within the same call, skipping
  // empty vectors, so interleaved empty children never surface.
  while (current_ < children_.size()) {
    VectorProjection* vp = nullptr;
    bool child_eof = false;
    RFV_RETURN_IF_ERROR(children_[current_]->NextVector(&vp, &child_eof));
    if (child_eof) ++current_;
    if (vp != nullptr && vp->NumSelected() > 0) {
      *out = vp;
      *eof = current_ >= children_.size();
      return Status::OK();
    }
  }
  *eof = true;
  return Status::OK();
}

}  // namespace rfv
