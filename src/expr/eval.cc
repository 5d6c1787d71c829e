#include "expr/eval.h"

#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace rfv {

Status IntegerOverflowError(const std::string& what) {
  return Status::ExecutionError("integer overflow in " + what);
}

Status CheckedIntArithmetic(BinaryOp op, int64_t a, int64_t b,
                            int64_t* out) {
  bool overflow = false;
  switch (op) {
    case BinaryOp::kAdd: overflow = __builtin_add_overflow(a, b, out); break;
    case BinaryOp::kSub: overflow = __builtin_sub_overflow(a, b, out); break;
    case BinaryOp::kMul: overflow = __builtin_mul_overflow(a, b, out); break;
    case BinaryOp::kDiv:
      if (b == 0) return Status::ExecutionError("division by zero");
      overflow = a == INT64_MIN && b == -1;
      if (!overflow) *out = a / b;
      break;
    default:
      return Status::Internal("CheckedIntArithmetic non-arithmetic op");
  }
  return overflow ? IntegerOverflowError("arithmetic") : Status::OK();
}

Status CheckedIntNegate(int64_t a, int64_t* out) {
  if (__builtin_sub_overflow(int64_t{0}, a, out)) {
    return IntegerOverflowError("arithmetic");
  }
  return Status::OK();
}

Status FlooredIntMod(int64_t a, int64_t b, int64_t* out) {
  if (b == 0) return Status::ExecutionError("MOD by zero");
  // Floored (mathematical) modulo: the result takes the divisor's
  // sign, so congruence classes are stable across zero. The paper's
  // MaxOA/MinOA operator patterns (Figures 10/13) match positions by
  // MOD equality, and complete sequences contain header positions
  // <= 0 — with C-style (dividend-sign) MOD those positions would
  // fall out of their congruence class. Documented deviation from
  // DB2's MOD. b = -1 divides everything; INT64_MIN % -1 itself is
  // undefined in C++.
  int64_t m = b == -1 ? 0 : a % b;
  if (m != 0 && ((m < 0) != (b < 0))) m += b;
  *out = m;
  return Status::OK();
}

namespace {

/// Arithmetic on two non-NULL numeric values; integer ops stay in int64,
/// mixed/double ops promote to double.
Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::TypeError("arithmetic on non-numeric value");
  }
  const bool integral =
      l.type() == DataType::kInt64 && r.type() == DataType::kInt64;
  if (integral) {
    int64_t out = 0;
    RFV_RETURN_IF_ERROR(CheckedIntArithmetic(op, l.AsInt(), r.AsInt(), &out));
    return Value::Int(out);
  } else {
    const double a = l.ToDouble();
    const double b = r.ToDouble();
    switch (op) {
      case BinaryOp::kAdd: return Value::Double(a + b);
      case BinaryOp::kSub: return Value::Double(a - b);
      case BinaryOp::kMul: return Value::Double(a * b);
      case BinaryOp::kDiv:
        if (b == 0.0) return Status::ExecutionError("division by zero");
        return Value::Double(a / b);
      default: break;
    }
  }
  return Status::Internal("EvalArithmetic called with non-arithmetic op");
}

/// SQL comparison: NULL operand → NULL result.
Value EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  const int c = l.Compare(r);
  switch (op) {
    case BinaryOp::kEq: return Value::Bool(c == 0);
    case BinaryOp::kNe: return Value::Bool(c != 0);
    case BinaryOp::kLt: return Value::Bool(c < 0);
    case BinaryOp::kLe: return Value::Bool(c <= 0);
    case BinaryOp::kGt: return Value::Bool(c > 0);
    case BinaryOp::kGe: return Value::Bool(c >= 0);
    default: break;
  }
  RFV_CHECK_MSG(false, "EvalComparison with non-comparison op");
  return Value::Null();
}

Result<Value> EvalFunction(const Expr& expr, const Row& row);

Result<Value> EvalNode(const Expr& expr, const Row& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      RFV_DCHECK(expr.column_index < row.size());
      return row[expr.column_index];
    }
    case ExprKind::kUnary: {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*expr.children[0], row));
      if (v.is_null()) return Value::Null();
      if (expr.unary_op == UnaryOp::kNot) {
        if (v.type() != DataType::kBool) {
          return Status::TypeError("NOT on non-boolean");
        }
        return Value::Bool(!v.AsBool());
      }
      if (v.type() == DataType::kInt64) {
        int64_t out = 0;
        RFV_RETURN_IF_ERROR(CheckedIntNegate(v.AsInt(), &out));
        return Value::Int(out);
      }
      if (v.type() == DataType::kDouble) return Value::Double(-v.AsDouble());
      return Status::TypeError("unary minus on non-numeric");
    }
    case ExprKind::kBinary: {
      const BinaryOp op = expr.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        // Kleene logic with short-circuiting on the dominant value.
        Value l;
        RFV_ASSIGN_OR_RETURN(l, Evaluator::Eval(*expr.children[0], row));
        const bool dominant = (op == BinaryOp::kOr);  // TRUE for OR, FALSE for AND
        if (!l.is_null() && l.AsBool() == dominant) {
          return Value::Bool(dominant);
        }
        Value r;
        RFV_ASSIGN_OR_RETURN(r, Evaluator::Eval(*expr.children[1], row));
        if (!r.is_null() && r.AsBool() == dominant) {
          return Value::Bool(dominant);
        }
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(!dominant);
      }
      Value l;
      RFV_ASSIGN_OR_RETURN(l, Evaluator::Eval(*expr.children[0], row));
      Value r;
      RFV_ASSIGN_OR_RETURN(r, Evaluator::Eval(*expr.children[1], row));
      switch (op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          if (l.is_null() || r.is_null()) return Value::Null();
          return EvalArithmetic(op, l, r);
        default:
          return EvalComparison(op, l, r);
      }
    }
    case ExprKind::kCase: {
      const size_t pairs =
          (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        bool hit = false;
        RFV_ASSIGN_OR_RETURN(
            hit, Evaluator::EvalPredicate(*expr.children[2 * i], row));
        if (hit) return Evaluator::Eval(*expr.children[2 * i + 1], row);
      }
      if (expr.has_else) return Evaluator::Eval(*expr.children.back(), row);
      return Value::Null();
    }
    case ExprKind::kFunction:
      return EvalFunction(expr, row);
    case ExprKind::kIn: {
      Value needle;
      RFV_ASSIGN_OR_RETURN(needle, Evaluator::Eval(*expr.children[0], row));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        Value candidate;
        RFV_ASSIGN_OR_RETURN(candidate,
                             Evaluator::Eval(*expr.children[i], row));
        if (candidate.is_null()) {
          saw_null = true;
          continue;
        }
        if (needle.Compare(candidate) == 0) return Value::Bool(true);
      }
      return saw_null ? Value::Null() : Value::Bool(false);
    }
    case ExprKind::kBetween: {
      Value subject;
      RFV_ASSIGN_OR_RETURN(subject, Evaluator::Eval(*expr.children[0], row));
      Value lo;
      RFV_ASSIGN_OR_RETURN(lo, Evaluator::Eval(*expr.children[1], row));
      Value hi;
      RFV_ASSIGN_OR_RETURN(hi, Evaluator::Eval(*expr.children[2], row));
      if (subject.is_null() || lo.is_null() || hi.is_null()) {
        return Value::Null();
      }
      return Value::Bool(subject.Compare(lo) >= 0 && subject.Compare(hi) <= 0);
    }
    case ExprKind::kIsNull: {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*expr.children[0], row));
      const bool is_null = v.is_null();
      return Value::Bool(expr.is_null_negated ? !is_null : is_null);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<Value> EvalFunction(const Expr& expr, const Row& row) {
  switch (expr.function) {
    case ScalarFn::kCoalesce: {
      for (const auto& child : expr.children) {
        Value v;
        RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*child, row));
        if (!v.is_null()) return v;
      }
      return Value::Null();
    }
    default:
      break;
  }
  // The remaining functions propagate NULL from any argument.
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    Value v;
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*child, row));
    if (v.is_null()) return Value::Null();
    args.push_back(std::move(v));
  }
  switch (expr.function) {
    case ScalarFn::kMod: {
      if (args[0].type() != DataType::kInt64 ||
          args[1].type() != DataType::kInt64) {
        return Status::TypeError("MOD expects integer arguments");
      }
      int64_t m = 0;
      RFV_RETURN_IF_ERROR(FlooredIntMod(args[0].AsInt(), args[1].AsInt(), &m));
      return Value::Int(m);
    }
    case ScalarFn::kAbs:
      if (args[0].type() == DataType::kInt64) {
        const int64_t a = args[0].AsInt();
        int64_t out = a;
        if (a < 0) RFV_RETURN_IF_ERROR(CheckedIntNegate(a, &out));
        return Value::Int(out);
      }
      return Value::Double(std::fabs(args[0].ToDouble()));
    case ScalarFn::kYear:
      return Value::Int(args[0].AsInt() / 10000);
    case ScalarFn::kMonth:
      return Value::Int((args[0].AsInt() / 100) % 100);
    case ScalarFn::kDay:
      return Value::Int(args[0].AsInt() % 100);
    case ScalarFn::kMin2:
      return args[0].Compare(args[1]) <= 0 ? args[0] : args[1];
    case ScalarFn::kMax2:
      return args[0].Compare(args[1]) >= 0 ? args[0] : args[1];
    case ScalarFn::kCoalesce:
      break;  // handled above
  }
  return Status::Internal("unreachable scalar function");
}

}  // namespace

Result<Value> Evaluator::Eval(const Expr& expr, const Row& row) {
  return EvalNode(expr, row);
}

Result<bool> Evaluator::EvalPredicate(const Expr& expr, const Row& row) {
  Value v;
  RFV_ASSIGN_OR_RETURN(v, Eval(expr, row));
  if (v.is_null()) return false;
  if (v.type() != DataType::kBool) {
    return Status::TypeError("predicate did not evaluate to a boolean");
  }
  return v.AsBool();
}

}  // namespace rfv
