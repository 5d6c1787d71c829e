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
  // through — no row is copied on this path. The shell skips a vector
  // the predicate emptied.
  RFV_RETURN_IF_ERROR(child_->NextVector(out, eof));
  if (*eof) return Status::OK();
  return VectorEvaluator::EvalPredicate(*predicate_, **out, &(*out)->sel());
}

}  // namespace rfv
