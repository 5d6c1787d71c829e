#include "exec/operators.h"

namespace rfv {

Status UnionAllOp::OpenImpl() {
  current_ = 0;
  for (auto& child : children_) {
    RFV_RETURN_IF_ERROR(child->Open());
  }
  return Status::OK();
}

Status UnionAllOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // The current child's projection passes through untouched; a drained
  // child hands over to the next one within the same call.
  for (; current_ < children_.size(); ++current_) {
    RFV_RETURN_IF_ERROR(children_[current_]->NextVector(out, eof));
    if (!*eof) return Status::OK();
  }
  *eof = true;
  return Status::OK();
}

}  // namespace rfv
