#include "exec/operators.h"

#include "exec/vector_eval.h"
#include "expr/eval.h"

namespace rfv {

Status FilterOp::OpenImpl() { return child_->Open(); }

Status FilterOp::NextImpl(Row* row, bool* eof) {
  while (true) {
    bool child_eof = false;
    RFV_RETURN_IF_ERROR(child_->Next(row, &child_eof));
    if (child_eof) {
      *eof = true;
      return Status::OK();
    }
    bool keep = false;
    RFV_ASSIGN_OR_RETURN(keep, Evaluator::EvalPredicate(*predicate_, *row));
    if (keep) {
      *eof = false;
      return Status::OK();
    }
  }
}

Status FilterOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // Narrow the child projection's selection in place and pass it
  // through — no row is copied on this path. Loop past fully-filtered
  // vectors so callers rarely see an empty non-eof result.
  while (true) {
    VectorProjection* vp = nullptr;
    bool child_eof = false;
    RFV_RETURN_IF_ERROR(child_->NextVector(&vp, &child_eof));
    if (vp != nullptr && vp->NumSelected() > 0) {
      RFV_RETURN_IF_ERROR(
          VectorEvaluator::EvalPredicate(*predicate_, *vp, &vp->sel()));
    }
    *out = vp;
    *eof = child_eof;
    if (child_eof || (vp != nullptr && vp->NumSelected() > 0)) {
      return Status::OK();
    }
  }
}

}  // namespace rfv
