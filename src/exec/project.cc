#include "exec/operators.h"

#include "exec/vector_eval.h"
#include "expr/eval.h"

namespace rfv {

namespace {

Result<Row> ProjectRow(const std::vector<ExprPtr>& projections,
                       const Row& input) {
  std::vector<Value> values;
  values.reserve(projections.size());
  for (const ExprPtr& projection : projections) {
    Value v;
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*projection, input));
    values.push_back(std::move(v));
  }
  return Row(std::move(values));
}

}  // namespace

Status ProjectOp::OpenImpl() { return child_->Open(); }

Status ProjectOp::NextImpl(Row* row, bool* eof) {
  Row input;
  bool child_eof = false;
  RFV_RETURN_IF_ERROR(child_->Next(&input, &child_eof));
  if (child_eof) {
    *eof = true;
    return Status::OK();
  }
  RFV_ASSIGN_OR_RETURN(*row, ProjectRow(projections_, input));
  *eof = false;
  return Status::OK();
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
