#ifndef RFVIEW_EXPR_EVAL_H_
#define RFVIEW_EXPR_EVAL_H_

#include <cstdint>
#include <string>

#include "common/row.h"
#include "common/status.h"
#include "expr/expr.h"

namespace rfv {

/// The ExecutionError of an INTEGER result outside int64, raised the
/// same way by the row and vector evaluators, the band join's SUM fold
/// and INTEGER SUM ("integer overflow in <what>").
Status IntegerOverflowError(const std::string& what);

/// int64 `a op b` for op in + - * /, computed without undefined
/// behaviour: division by zero and a result outside int64
/// (INT64_MIN / -1 included) are ExecutionErrors.
Status CheckedIntArithmetic(BinaryOp op, int64_t a, int64_t b, int64_t* out);

/// int64 -a, an ExecutionError for INT64_MIN.
Status CheckedIntNegate(int64_t a, int64_t* out);

/// Floored MOD(a, b) (the result takes the divisor's sign; see eval.cc),
/// an ExecutionError for b = 0.
Status FlooredIntMod(int64_t a, int64_t b, int64_t* out);

/// Expression interpreter with SQL three-valued logic:
///  * NULL propagates through arithmetic, comparisons and functions
///    (except COALESCE / IS NULL, which exist to consume NULLs),
///  * AND/OR follow Kleene logic,
///  * predicates in WHERE/ON/HAVING treat a NULL result as "not satisfied"
///    (see EvalPredicate).
/// Runtime failures (division by zero, MOD by zero) surface as
/// kExecutionError.
class Evaluator {
 public:
  /// Evaluates `expr` against `row` (bound column indexes refer to `row`).
  static Result<Value> Eval(const Expr& expr, const Row& row);

  /// Evaluates a boolean expression, mapping NULL → false.
  static Result<bool> EvalPredicate(const Expr& expr, const Row& row);
};

}  // namespace rfv

#endif  // RFVIEW_EXPR_EVAL_H_
