#include "exec/vector_eval.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/logging.h"
#include "expr/eval.h"

namespace rfv {

namespace {

/// Selections inside the evaluator are plain ascending index lists; the
/// SelectionVector wrapper is only unwrapped/rewrapped at the API edge.
using Sel = std::vector<uint32_t>;

/// out = a ∪ b. Inputs ascending; output ascending, deduplicated.
void SortedUnion(const Sel& a, const Sel& b, Sel* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) out->push_back(a[i++]);
    else if (b[j] < a[i]) out->push_back(b[j++]);
    else { out->push_back(a[i]); ++i; ++j; }
  }
  while (i < a.size()) out->push_back(a[i++]);
  while (j < b.size()) out->push_back(b[j++]);
}

/// out = a ∩ b. Inputs ascending.
void SortedIntersect(const Sel& a, const Sel& b, Sel* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) ++i;
    else if (b[j] < a[i]) ++j;
    else { out->push_back(a[i]); ++i; ++j; }
  }
}

/// out = a \ b. Inputs ascending.
void SortedDiff(const Sel& a, const Sel& b, Sel* out) {
  out->clear();
  out->reserve(a.size());
  size_t j = 0;
  for (const uint32_t v : a) {
    while (j < b.size() && b[j] < v) ++j;
    if (j < b.size() && b[j] == v) continue;
    out->push_back(v);
  }
}

bool IsNumericTag(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

/// Element comparison mirroring Value::Compare: int64/int64 exact, other
/// numeric pairs via double, string/string lexicographic; anything else
/// (bool, mixed type ranks) boxes to Values. Callers have already
/// NULL-checked both sides.
int CompareElems(const Vector& a, const Vector& b, size_t i) {
  const DataType ta = a.tag(i);
  const DataType tb = b.tag(i);
  if (ta == DataType::kInt64 && tb == DataType::kInt64) {
    const int64_t x = a.i64(i);
    const int64_t y = b.i64(i);
    return x == y ? 0 : (x < y ? -1 : 1);
  }
  if (IsNumericTag(ta) && IsNumericTag(tb)) {
    const double x = a.ToDouble(i);
    const double y = b.ToDouble(i);
    if (x == y) return 0;
    return x < y ? -1 : 1;
  }
  if (ta == DataType::kString && tb == DataType::kString) {
    const int c = a.str(i).compare(b.str(i));
    return c == 0 ? 0 : (c < 0 ? -1 : 1);
  }
  return a.GetValue(i).Compare(b.GetValue(i));
}

Status EvalNode(const Expr& expr, const VectorProjection& proj, const Sel& sel,
                Vector* out);

/// Tri-state predicate evaluation: splits `sel` into the rows where
/// `expr` is TRUE (*t) and NULL (*n); the rest are FALSE. For AND/OR the
/// split recurses with Kleene short-circuit sub-selections so each child
/// is evaluated over exactly the rows the row-at-a-time evaluator would
/// touch: AND evaluates the rhs where the lhs is TRUE or NULL, OR
/// evaluates the rhs where the lhs is not TRUE.
Status Partition(const Expr& expr, const VectorProjection& proj,
                 const Sel& sel, Sel* t, Sel* n) {
  if (expr.kind == ExprKind::kBinary && (expr.binary_op == BinaryOp::kAnd ||
                                         expr.binary_op == BinaryOp::kOr)) {
    Sel lhs_true, lhs_null;
    RFV_RETURN_IF_ERROR(
        Partition(*expr.children[0], proj, sel, &lhs_true, &lhs_null));
    Sel rest;
    if (expr.binary_op == BinaryOp::kAnd) {
      SortedUnion(lhs_true, lhs_null, &rest);
    } else {
      SortedDiff(sel, lhs_true, &rest);
    }
    Sel rhs_true, rhs_null;
    if (!rest.empty()) {
      RFV_RETURN_IF_ERROR(
          Partition(*expr.children[1], proj, rest, &rhs_true, &rhs_null));
    }
    if (expr.binary_op == BinaryOp::kAnd) {
      // TRUE iff both TRUE; NULL iff the rhs was TRUE or NULL (i.e. the
      // lhs did not decide FALSE) but the pair is not TRUE/TRUE.
      SortedIntersect(lhs_true, rhs_true, t);
      Sel not_false;
      SortedUnion(rhs_true, rhs_null, &not_false);
      SortedDiff(not_false, *t, n);
    } else {
      // TRUE iff either TRUE; NULL iff some side is NULL and the rhs did
      // not decide TRUE.
      SortedUnion(lhs_true, rhs_true, t);
      Sel nulls;
      SortedUnion(lhs_null, rhs_null, &nulls);
      SortedDiff(nulls, rhs_true, n);
    }
    return Status::OK();
  }
  // Leaf predicate: evaluate and partition by result tag.
  Vector scratch;
  RFV_RETURN_IF_ERROR(EvalNode(expr, proj, sel, &scratch));
  t->clear();
  n->clear();
  for (const uint32_t i : sel) {
    switch (scratch.tag(i)) {
      case DataType::kNull:
        n->push_back(i);
        break;
      case DataType::kBool:
        if (scratch.b(i)) t->push_back(i);
        break;
      default:
        return Status::TypeError("predicate did not evaluate to a boolean");
    }
  }
  return Status::OK();
}

Status EvalArithmeticVec(BinaryOp op, const Sel& sel, const Vector& l,
                         const Vector& r, Vector* out) {
  for (const uint32_t i : sel) {
    if (l.is_null(i) || r.is_null(i)) {
      out->SetNull(i);
      continue;
    }
    const DataType tl = l.tag(i);
    const DataType tr = r.tag(i);
    if (tl == DataType::kInt64 && tr == DataType::kInt64) {
      int64_t v = 0;
      RFV_RETURN_IF_ERROR(CheckedIntArithmetic(op, l.i64(i), r.i64(i), &v));
      out->SetInt(i, v);
    } else if (IsNumericTag(tl) && IsNumericTag(tr)) {
      const double a = l.ToDouble(i);
      const double b = r.ToDouble(i);
      switch (op) {
        case BinaryOp::kAdd: out->SetDouble(i, a + b); break;
        case BinaryOp::kSub: out->SetDouble(i, a - b); break;
        case BinaryOp::kMul: out->SetDouble(i, a * b); break;
        case BinaryOp::kDiv:
          if (b == 0.0) return Status::ExecutionError("division by zero");
          out->SetDouble(i, a / b);
          break;
        default:
          return Status::Internal("EvalArithmeticVec non-arithmetic op");
      }
    } else {
      return Status::TypeError("arithmetic on non-numeric value");
    }
  }
  return Status::OK();
}

void EvalComparisonVec(BinaryOp op, const Sel& sel, const Vector& l,
                       const Vector& r, Vector* out) {
  for (const uint32_t i : sel) {
    if (l.is_null(i) || r.is_null(i)) {
      out->SetNull(i);
      continue;
    }
    const int c = CompareElems(l, r, i);
    bool v = false;
    switch (op) {
      case BinaryOp::kEq: v = c == 0; break;
      case BinaryOp::kNe: v = c != 0; break;
      case BinaryOp::kLt: v = c < 0; break;
      case BinaryOp::kLe: v = c <= 0; break;
      case BinaryOp::kGt: v = c > 0; break;
      case BinaryOp::kGe: v = c >= 0; break;
      default:
        RFV_CHECK_MSG(false, "EvalComparisonVec with non-comparison op");
    }
    out->SetBool(i, v);
  }
}

Status EvalFunctionVec(const Expr& expr, const VectorProjection& proj,
                       const Sel& sel, Vector* out) {
  if (expr.function == ScalarFn::kCoalesce) {
    // Lazy left-to-right: each argument is evaluated only over the rows
    // still NULL after the previous arguments.
    Sel remaining = sel;
    Vector scratch;
    for (const auto& child : expr.children) {
      if (remaining.empty()) break;
      RFV_RETURN_IF_ERROR(EvalNode(*child, proj, remaining, &scratch));
      Sel still_null;
      still_null.reserve(remaining.size());
      for (const uint32_t i : remaining) {
        if (scratch.is_null(i)) still_null.push_back(i);
        else out->CopyFrom(i, scratch, i);
      }
      remaining.swap(still_null);
    }
    for (const uint32_t i : remaining) out->SetNull(i);
    return Status::OK();
  }
  // The remaining functions evaluate every argument, then propagate NULL
  // from any of them.
  std::vector<Vector> args(expr.children.size());
  for (size_t a = 0; a < expr.children.size(); ++a) {
    RFV_RETURN_IF_ERROR(EvalNode(*expr.children[a], proj, sel, &args[a]));
  }
  for (const uint32_t i : sel) {
    bool any_null = false;
    for (const Vector& arg : args) {
      if (arg.is_null(i)) {
        any_null = true;
        break;
      }
    }
    if (any_null) {
      out->SetNull(i);
      continue;
    }
    switch (expr.function) {
      case ScalarFn::kMod: {
        if (args[0].tag(i) != DataType::kInt64 ||
            args[1].tag(i) != DataType::kInt64) {
          return Status::TypeError("MOD expects integer arguments");
        }
        int64_t m = 0;
        RFV_RETURN_IF_ERROR(FlooredIntMod(args[0].i64(i), args[1].i64(i), &m));
        out->SetInt(i, m);
        break;
      }
      case ScalarFn::kAbs:
        if (args[0].tag(i) == DataType::kInt64) {
          const int64_t a = args[0].i64(i);
          int64_t abs = a;
          if (a < 0) RFV_RETURN_IF_ERROR(CheckedIntNegate(a, &abs));
          out->SetInt(i, abs);
        } else {
          out->SetDouble(i, std::fabs(args[0].GetValue(i).ToDouble()));
        }
        break;
      case ScalarFn::kYear:
      case ScalarFn::kMonth:
      case ScalarFn::kDay: {
        // Mirrors Evaluator's AsInt() (throws on a non-int cell).
        const int64_t v = args[0].tag(i) == DataType::kInt64
                              ? args[0].i64(i)
                              : args[0].GetValue(i).AsInt();
        if (expr.function == ScalarFn::kYear) out->SetInt(i, v / 10000);
        else if (expr.function == ScalarFn::kMonth) out->SetInt(i, (v / 100) % 100);
        else out->SetInt(i, v % 100);
        break;
      }
      case ScalarFn::kMin2:
        out->CopyFrom(i, CompareElems(args[0], args[1], i) <= 0 ? args[0]
                                                                : args[1], i);
        break;
      case ScalarFn::kMax2:
        out->CopyFrom(i, CompareElems(args[0], args[1], i) >= 0 ? args[0]
                                                                : args[1], i);
        break;
      case ScalarFn::kCoalesce:
        break;  // handled above
    }
  }
  return Status::OK();
}

Status EvalNode(const Expr& expr, const VectorProjection& proj, const Sel& sel,
                Vector* out) {
  out->Reset(proj.num_rows());
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      const Value& v = expr.literal;
      switch (v.type()) {
        case DataType::kNull:
          break;  // Reset already NULL-tagged everything
        case DataType::kInt64: {
          const int64_t x = v.AsInt();
          for (const uint32_t i : sel) out->SetInt(i, x);
          break;
        }
        case DataType::kDouble: {
          const double x = v.AsDouble();
          for (const uint32_t i : sel) out->SetDouble(i, x);
          break;
        }
        case DataType::kBool: {
          const bool x = v.AsBool();
          for (const uint32_t i : sel) out->SetBool(i, x);
          break;
        }
        case DataType::kString:
          for (const uint32_t i : sel) out->SetString(i, v.AsString());
          break;
      }
      return Status::OK();
    }
    case ExprKind::kColumnRef: {
      RFV_DCHECK(expr.column_index < proj.num_columns());
      const Vector& col = proj.column(expr.column_index);
      for (const uint32_t i : sel) out->CopyFrom(i, col, i);
      return Status::OK();
    }
    case ExprKind::kUnary: {
      Vector v;
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[0], proj, sel, &v));
      if (expr.unary_op == UnaryOp::kNot) {
        for (const uint32_t i : sel) {
          if (v.is_null(i)) {
            out->SetNull(i);
          } else if (v.tag(i) == DataType::kBool) {
            out->SetBool(i, !v.b(i));
          } else {
            return Status::TypeError("NOT on non-boolean");
          }
        }
      } else {
        for (const uint32_t i : sel) {
          switch (v.tag(i)) {
            case DataType::kNull: out->SetNull(i); break;
            case DataType::kInt64: {
              int64_t neg = 0;
              RFV_RETURN_IF_ERROR(CheckedIntNegate(v.i64(i), &neg));
              out->SetInt(i, neg);
              break;
            }
            case DataType::kDouble: out->SetDouble(i, -v.f64(i)); break;
            default:
              return Status::TypeError("unary minus on non-numeric");
          }
        }
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      const BinaryOp op = expr.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        Sel t, n;
        RFV_RETURN_IF_ERROR(Partition(expr, proj, sel, &t, &n));
        // Fill by three-cursor walk: sel rows not in t or n are FALSE.
        size_t ti = 0, ni = 0;
        for (const uint32_t i : sel) {
          if (ti < t.size() && t[ti] == i) {
            out->SetBool(i, true);
            ++ti;
          } else if (ni < n.size() && n[ni] == i) {
            out->SetNull(i);
            ++ni;
          } else {
            out->SetBool(i, false);
          }
        }
        return Status::OK();
      }
      Vector l, r;
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[0], proj, sel, &l));
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[1], proj, sel, &r));
      switch (op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return EvalArithmeticVec(op, sel, l, r, out);
        default:
          EvalComparisonVec(op, sel, l, r, out);
          return Status::OK();
      }
    }
    case ExprKind::kCase: {
      const size_t pairs = (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      Sel remaining = sel;
      Vector scratch;
      for (size_t p = 0; p < pairs && !remaining.empty(); ++p) {
        Sel hit, null_hit;
        RFV_RETURN_IF_ERROR(
            Partition(*expr.children[2 * p], proj, remaining, &hit, &null_hit));
        if (!hit.empty()) {
          RFV_RETURN_IF_ERROR(
              EvalNode(*expr.children[2 * p + 1], proj, hit, &scratch));
          for (const uint32_t i : hit) out->CopyFrom(i, scratch, i);
          Sel next;
          SortedDiff(remaining, hit, &next);
          remaining.swap(next);
        }
      }
      if (!remaining.empty()) {
        if (expr.has_else) {
          RFV_RETURN_IF_ERROR(
              EvalNode(*expr.children.back(), proj, remaining, &scratch));
          for (const uint32_t i : remaining) out->CopyFrom(i, scratch, i);
        } else {
          for (const uint32_t i : remaining) out->SetNull(i);
        }
      }
      return Status::OK();
    }
    case ExprKind::kFunction:
      return EvalFunctionVec(expr, proj, sel, out);
    case ExprKind::kIn: {
      Vector needle;
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[0], proj, sel, &needle));
      Sel remaining;
      remaining.reserve(sel.size());
      for (const uint32_t i : sel) {
        if (needle.is_null(i)) out->SetNull(i);  // candidates never evaluated
        else remaining.push_back(i);
      }
      std::vector<uint8_t> saw_null(proj.num_rows(), 0);
      Vector candidate;
      for (size_t c = 1; c < expr.children.size() && !remaining.empty(); ++c) {
        RFV_RETURN_IF_ERROR(
            EvalNode(*expr.children[c], proj, remaining, &candidate));
        Sel unmatched;
        unmatched.reserve(remaining.size());
        for (const uint32_t i : remaining) {
          if (candidate.is_null(i)) {
            saw_null[i] = 1;
            unmatched.push_back(i);
          } else if (CompareElems(needle, candidate, i) == 0) {
            out->SetBool(i, true);  // later candidates skip this row
          } else {
            unmatched.push_back(i);
          }
        }
        remaining.swap(unmatched);
      }
      for (const uint32_t i : remaining) {
        if (saw_null[i]) out->SetNull(i);
        else out->SetBool(i, false);
      }
      return Status::OK();
    }
    case ExprKind::kBetween: {
      Vector subject, lo, hi;
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[0], proj, sel, &subject));
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[1], proj, sel, &lo));
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[2], proj, sel, &hi));
      for (const uint32_t i : sel) {
        if (subject.is_null(i) || lo.is_null(i) || hi.is_null(i)) {
          out->SetNull(i);
          continue;
        }
        out->SetBool(i, CompareElems(subject, lo, i) >= 0 &&
                            CompareElems(subject, hi, i) <= 0);
      }
      return Status::OK();
    }
    case ExprKind::kIsNull: {
      Vector v;
      RFV_RETURN_IF_ERROR(EvalNode(*expr.children[0], proj, sel, &v));
      for (const uint32_t i : sel) {
        const bool is_null = v.is_null(i);
        out->SetBool(i, expr.is_null_negated ? !is_null : is_null);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace

Status VectorEvaluator::Eval(const Expr& expr, const VectorProjection& proj,
                             const SelectionVector& sel, Vector* out) {
  return EvalNode(expr, proj, sel.indices(), out);
}

Status VectorEvaluator::EvalPredicate(const Expr& expr,
                                      const VectorProjection& proj,
                                      SelectionVector* sel) {
  Sel t, n;
  RFV_RETURN_IF_ERROR(Partition(expr, proj, sel->indices(), &t, &n));
  sel->indices().swap(t);
  return Status::OK();
}

void GatherJoinRun(const VectorProjection& left, uint32_t left_pos,
                   const VectorProjection& right,
                   const std::vector<size_t>& cand, size_t cand_offset,
                   size_t k, size_t at, VectorProjection* out) {
  const size_t left_width = left.num_columns();
  for (size_t c = 0; c < left_width; ++c) {
    Vector& dst = out->column(c);
    const Vector& src = left.column(c);
    for (size_t t = 0; t < k; ++t) dst.CopyFrom(at + t, src, left_pos);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    Vector& dst = out->column(left_width + c);
    const Vector& src = right.column(c);
    for (size_t t = 0; t < k; ++t) {
      dst.CopyFrom(at + t, src, cand[cand_offset + t]);
    }
  }
}

void GatherNullPaddedRow(const VectorProjection& left, uint32_t left_pos,
                         size_t right_width, size_t at,
                         VectorProjection* out) {
  const size_t left_width = left.num_columns();
  for (size_t c = 0; c < left_width; ++c) {
    out->column(c).CopyFrom(at, left.column(c), left_pos);
  }
  for (size_t c = 0; c < right_width; ++c) {
    out->column(left_width + c).SetNull(at);
  }
}

Status FilterJoinCandidates(const Expr& residual,
                            const VectorProjection& left, uint32_t left_pos,
                            const VectorProjection& right,
                            VectorProjection* scratch,
                            std::vector<size_t>* candidates) {
  const size_t n = candidates->size();
  if (n == 0) return Status::OK();
  const size_t left_width = left.num_columns();
  scratch->Reset(left_width + right.num_columns(), n);
  for (size_t c = 0; c < left_width; ++c) {
    Vector& dst = scratch->column(c);
    const Vector& src = left.column(c);
    for (size_t t = 0; t < n; ++t) dst.CopyFrom(t, src, left_pos);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    Vector& dst = scratch->column(left_width + c);
    const Vector& src = right.column(c);
    for (size_t t = 0; t < n; ++t) dst.CopyFrom(t, src, (*candidates)[t]);
  }
  RFV_RETURN_IF_ERROR(
      VectorEvaluator::EvalPredicate(residual, *scratch, &scratch->sel()));
  const SelectionVector& surviving = scratch->sel();
  for (size_t k = 0; k < surviving.size(); ++k) {
    (*candidates)[k] = (*candidates)[surviving[k]];
  }
  candidates->resize(surviving.size());
  return Status::OK();
}

}  // namespace rfv
