#ifndef RFVIEW_EXEC_VECTOR_EVAL_H_
#define RFVIEW_EXEC_VECTOR_EVAL_H_

#include "common/status.h"
#include "exec/vector.h"
#include "expr/expr.h"

namespace rfv {

/// Columnar expression evaluator: the vectorized counterpart of
/// expr/eval.h. Expression kind and operand types are dispatched once
/// per vector, then tight per-element loops run over the column lanes.
///
/// Semantics contract: for every selected row, the evaluator computes
/// exactly the value — and evaluates exactly the set of sub-expressions —
/// that the row-at-a-time Evaluator would. Lazy constructs (AND/OR
/// Kleene short-circuits, CASE branches, IN candidates, COALESCE
/// arguments) are realized as *sub-selections*: a sub-expression is
/// evaluated only over the rows on which Evaluator would evaluate it.
/// This keeps runtime errors (division by zero, MOD by zero) the same
/// across plans: the window and the two nested-loop joins evaluate with
/// Evaluator, row by row — the differential oracles depend on it. The
/// one permitted divergence: when several rows of one vector would each
/// raise an error, which row's message surfaces is unspecified (Evaluator
/// row by row reports the first row's).
class VectorEvaluator {
 public:
  /// Evaluates `expr` over the selected rows of `proj` into *out. *out is
  /// resized to proj.num_rows(); positions outside `sel` are NULL-tagged
  /// and meaningless. `sel` must be ascending (SelectionVector invariant).
  static Status Eval(const Expr& expr, const VectorProjection& proj,
                     const SelectionVector& sel, Vector* out);

  /// Narrows *sel in place to the rows where `expr` evaluates to TRUE
  /// (NULL counts as false), mirroring Evaluator::EvalPredicate.
  static Status EvalPredicate(const Expr& expr, const VectorProjection& proj,
                              SelectionVector* sel);
};

/// Shared emission/filtering machinery of the vector-native join paths
/// (MergeBandJoinOp, HashJoinOp). Joined output rows are (left row ⊕
/// right row) with the left row broadcast across a run of right-side
/// candidates — these helpers gather such runs column-at-a-time into
/// pooled output lanes instead of materializing per-row copies.

/// Writes k joined rows into *out at positions [at, at+k): the left
/// row `left_pos` of `left` broadcast into columns [0, left.columns)
/// and right rows cand[cand_offset .. cand_offset+k) of `right`
/// gathered into the remaining columns.
void GatherJoinRun(const VectorProjection& left, uint32_t left_pos,
                   const VectorProjection& right,
                   const std::vector<size_t>& cand, size_t cand_offset,
                   size_t k, size_t at, VectorProjection* out);

/// Left-outer NULL padding: writes one row at position `at` with the
/// left row broadcast and `right_width` NULL right columns.
void GatherNullPaddedRow(const VectorProjection& left, uint32_t left_pos,
                         size_t right_width, size_t at,
                         VectorProjection* out);

/// Filters right-side join candidates through a residual predicate,
/// columnar-ly: builds a combined (left ⊕ right) projection of the
/// candidate rows in *scratch, narrows it with EvalPredicate, and
/// compacts the surviving entries of *candidates in place. Like the
/// vectorized FilterOp, the residual is evaluated eagerly over the
/// whole candidate set of one left row (a row-at-a-time join would stop
/// at the first downstream-satisfying match) — the permitted which-row-
/// surfaces divergence for runtime errors.
Status FilterJoinCandidates(const Expr& residual,
                            const VectorProjection& left, uint32_t left_pos,
                            const VectorProjection& right,
                            VectorProjection* scratch,
                            std::vector<size_t>* candidates);

}  // namespace rfv

#endif  // RFVIEW_EXEC_VECTOR_EVAL_H_
