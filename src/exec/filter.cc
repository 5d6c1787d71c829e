#include "exec/operators.h"

#include "exec/vector_eval.h"

namespace rfv {

Status FilterOp::OpenImpl() { return child_->Open(); }

Status FilterOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // Narrow the child projection's selection in place and pass it
  // through — no row is copied on this path. The shell skips a vector
  // the predicate emptied.
  RFV_RETURN_IF_ERROR(child_->NextVector(out, eof));
  if (*eof) return Status::OK();
  return VectorEvaluator::EvalPredicate(*predicate_, **out, &(*out)->sel());
}

}  // namespace rfv
