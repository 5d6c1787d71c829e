#include "plan/cardinality.h"

#include <algorithm>
#include <cmath>

namespace rfv {

namespace {

constexpr double kDefaultSelectivity = 0.33;
constexpr double kRangeSelectivity = 0.25;

/// Distinct count of the column `index` refers to when `input` is a
/// base-table scan with analyzed statistics; -1 otherwise.
int64_t DistinctOf(const LogicalPlan& input, size_t index) {
  if (input.kind != PlanKind::kScan || input.table == nullptr) return -1;
  // Copy under the table's statistics lock: estimation runs on the
  // concurrent read path while DML updates stats in place.
  const TableStats stats = input.table->StatsSnapshot();
  if (index >= stats.columns.size()) return -1;
  return stats.columns[index].distinct_count;
}

/// Selectivity of `column` lying between numeric bounds `lo` and `hi`
/// (nullptr leaves a side open; a strict side excludes its bound) on a
/// scan column with a min/max range: the share of the range the bounds
/// overlap, counted in integers for INTEGER columns (a dense sequence
/// column then gives an exact row count), times the non-NULL share. -1
/// when the input is not a scan or the statistics are missing.
double RangeOverlapSelectivity(const LogicalPlan& input, size_t column,
                               const Value* lo, bool lo_strict,
                               const Value* hi, bool hi_strict) {
  if ((lo != nullptr && !lo->is_numeric()) ||
      (hi != nullptr && !hi->is_numeric()) ||
      input.kind != PlanKind::kScan || input.table == nullptr) {
    return -1;
  }
  const TableStats stats = input.table->StatsSnapshot();
  if (column >= stats.columns.size() || stats.row_count <= 0) return -1;
  const ColumnStats& c = stats.columns[column];
  if (!c.has_range) return -1;
  double overlap;
  double width;
  if (input.table->schema().column(column).type == DataType::kInt64) {
    double from = c.min_value;
    double to = c.max_value;
    if (lo != nullptr) {
      const double b = lo->ToDouble();
      from = std::max(lo_strict ? std::floor(b) + 1 : std::ceil(b), from);
    }
    if (hi != nullptr) {
      const double b = hi->ToDouble();
      to = std::min(hi_strict ? std::ceil(b) - 1 : std::floor(b), to);
    }
    overlap = to - from + 1;
    width = c.RangeWidth();
  } else {
    const double from =
        lo != nullptr ? std::max(lo->ToDouble(), c.min_value) : c.min_value;
    const double to =
        hi != nullptr ? std::min(hi->ToDouble(), c.max_value) : c.max_value;
    if (c.max_value == c.min_value) {
      overlap = from <= to ? 1 : 0;
      width = 1;
    } else {
      overlap = to - from;
      width = c.max_value - c.min_value;
    }
  }
  const double non_null = static_cast<double>(c.non_null_count) /
                          static_cast<double>(stats.row_count);
  return std::clamp(overlap / width, 0.0, 1.0) * non_null;
}

/// `col <op> literal` or `literal <op> col` for op in <, <=, >, >=: the
/// interval it admits, or -1 when the shape does not match.
double ComparisonSelectivity(const Expr& e, const LogicalPlan& input) {
  BinaryOp op = e.binary_op;
  const Expr* col = e.children[0].get();
  const Expr* lit = e.children[1].get();
  if (col->kind != ExprKind::kColumnRef) {
    std::swap(col, lit);
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      default: op = BinaryOp::kLe; break;  // kGe
    }
  }
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral) {
    return -1;
  }
  const bool strict = op == BinaryOp::kLt || op == BinaryOp::kGt;
  const bool upper = op == BinaryOp::kLt || op == BinaryOp::kLe;
  return RangeOverlapSelectivity(
      input, col->column_index, upper ? nullptr : &lit->literal, strict,
      upper ? &lit->literal : nullptr, strict);
}

double PredicateSelectivity(const Expr& e, const LogicalPlan& input) {
  switch (e.kind) {
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kAnd:
          return PredicateSelectivity(*e.children[0], input) *
                 PredicateSelectivity(*e.children[1], input);
        case BinaryOp::kOr: {
          const double a = PredicateSelectivity(*e.children[0], input);
          const double b = PredicateSelectivity(*e.children[1], input);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq: {
          for (int side = 0; side < 2; ++side) {
            const Expr& col = *e.children[side];
            const Expr& other = *e.children[1 - side];
            if (col.kind == ExprKind::kColumnRef &&
                other.kind != ExprKind::kColumnRef) {
              const int64_t distinct = DistinctOf(input, col.column_index);
              if (distinct > 0) return 1.0 / static_cast<double>(distinct);
              return 0.1;
            }
          }
          return 0.1;
        }
        case BinaryOp::kNe:
          return 0.9;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          const double overlap = ComparisonSelectivity(e, input);
          return overlap >= 0 ? overlap : kDefaultSelectivity;
        }
        default:
          return kDefaultSelectivity;
      }
    case ExprKind::kBetween: {
      const Expr& col = *e.children[0];
      const Expr& lo = *e.children[1];
      const Expr& hi = *e.children[2];
      const double overlap =
          col.kind == ExprKind::kColumnRef && lo.kind == ExprKind::kLiteral &&
                  hi.kind == ExprKind::kLiteral
              ? RangeOverlapSelectivity(input, col.column_index, &lo.literal,
                                        false, &hi.literal, false)
              : -1;
      return overlap >= 0 ? overlap : kRangeSelectivity;
    }
    case ExprKind::kIn: {
      // needle IN (c1..ck): k equality probes.
      double eq = 0.1;
      if (e.children[0]->kind == ExprKind::kColumnRef) {
        const int64_t distinct =
            DistinctOf(input, e.children[0]->column_index);
        if (distinct > 0) eq = 1.0 / static_cast<double>(distinct);
      }
      return std::min(1.0, eq * static_cast<double>(e.children.size() - 1));
    }
    case ExprKind::kIsNull:
      return e.is_null_negated ? 0.9 : 0.1;
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNot) {
        return 1.0 - PredicateSelectivity(*e.children[0], input);
      }
      return kDefaultSelectivity;
    default:
      return kDefaultSelectivity;
  }
}

double Estimate(LogicalPlan* plan) {
  double child_rows = 0;
  for (auto& child : plan->children) child_rows = Estimate(child.get());
  // child_rows now holds the LAST child's estimate; joins and unions
  // read their children's est_rows directly below.
  double est = 0;
  switch (plan->kind) {
    case PlanKind::kScan:
      est = plan->table != nullptr
                ? static_cast<double>(plan->table->StatsSnapshot().row_count)
                : 0;
      break;
    case PlanKind::kFilter:
      est = child_rows *
            PredicateSelectivity(*plan->predicate, *plan->children[0]);
      break;
    case PlanKind::kProject:
    case PlanKind::kWindow:
    case PlanKind::kSort:
      est = child_rows;
      break;
    case PlanKind::kJoin: {
      const double left = plan->children[0]->est_rows;
      const double right = plan->children[1]->est_rows;
      const Expr* cond = plan->join_condition.get();
      const bool equi = cond != nullptr && cond->kind == ExprKind::kBinary &&
                        cond->binary_op == BinaryOp::kEq &&
                        cond->children[0]->kind == ExprKind::kColumnRef &&
                        cond->children[1]->kind == ExprKind::kColumnRef;
      if (cond == nullptr) {
        est = left * right;
      } else if (equi) {
        // Key–foreign-key containment assumption.
        est = std::max(left, right);
      } else {
        est = left * right * kDefaultSelectivity;
      }
      if (plan->join_type == JoinType::kLeftOuter) est = std::max(est, left);
      break;
    }
    case PlanKind::kAggregate: {
      if (plan->group_by.empty()) {
        est = 1;
        break;
      }
      // Single-column grouping over a scan: the distinct count. Else
      // the square-root rule.
      int64_t distinct = -1;
      if (plan->group_by.size() == 1 &&
          plan->group_by[0]->kind == ExprKind::kColumnRef) {
        distinct =
            DistinctOf(*plan->children[0], plan->group_by[0]->column_index);
      }
      est = distinct > 0 ? static_cast<double>(distinct)
                         : std::sqrt(std::max(child_rows, 0.0));
      est = std::min(est, child_rows);
      break;
    }
    case PlanKind::kUnionAll: {
      est = 0;
      for (const auto& child : plan->children) est += child->est_rows;
      break;
    }
    case PlanKind::kLimit:
      est = plan->limit >= 0
                ? std::min(child_rows, static_cast<double>(plan->limit))
                : child_rows;
      break;
  }
  plan->est_rows = std::max(0.0, est);
  return plan->est_rows;
}

}  // namespace

double KeyRangeSelectivity(const LogicalPlan& scan, const KeyRange& range) {
  return RangeOverlapSelectivity(
      scan, range.column, range.lo.has_value() ? &*range.lo : nullptr, false,
      range.hi.has_value() ? &*range.hi : nullptr, false);
}

void EstimateCardinality(LogicalPlan* plan) {
  if (plan == nullptr) return;
  Estimate(plan);
}

}  // namespace rfv
