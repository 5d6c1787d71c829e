#include "exec/operators.h"

#include "exec/vector_eval.h"

namespace rfv {

Status ProjectOp::OpenImpl() { return child_->Open(); }

bool ProjectOp::ColumnStrictlyAscends(size_t c) const {
  const Expr& e = *projections_[c];
  return e.kind == ExprKind::kColumnRef &&
         child_->ColumnStrictlyAscends(e.column_index);
}

Status ProjectOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  VectorProjection* vp = nullptr;
  RFV_RETURN_IF_ERROR(child_->NextVector(&vp, eof));
  if (*eof) return Status::OK();
  // Each projection expression is evaluated once per vector into the
  // operator-owned output projection, which shares the child's row
  // positions (and a copy of its selection) so downstream selection
  // narrowing still composes.
  out_vp_.Reset(projections_.size(), vp->num_rows());
  for (size_t p = 0; p < projections_.size(); ++p) {
    RFV_RETURN_IF_ERROR(VectorEvaluator::Eval(*projections_[p], *vp, vp->sel(),
                                              &out_vp_.column(p)));
  }
  out_vp_.sel() = vp->sel();
  *out = &out_vp_;
  return Status::OK();
}

}  // namespace rfv
