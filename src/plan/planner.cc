#include "plan/planner.h"

#include <utility>

#include "common/logging.h"
#include "expr/builder.h"
#include "expr/eval.h"

namespace rfv {

void SplitConjuncts(ExprPtr predicate, std::vector<ExprPtr>* out) {
  if (predicate == nullptr) return;
  if (predicate->kind == ExprKind::kBinary &&
      predicate->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(std::move(predicate->children[0]), out);
    SplitConjuncts(std::move(predicate->children[1]), out);
    return;
  }
  out->push_back(std::move(predicate));
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr combined;
  for (ExprPtr& c : conjuncts) {
    combined = combined == nullptr
                   ? std::move(c)
                   : eb::And(std::move(combined), std::move(c));
  }
  return combined;
}

bool RefsOnlyRange(const Expr& expr, size_t lo, size_t hi) {
  if (expr.kind == ExprKind::kColumnRef) {
    return expr.column_index >= lo && expr.column_index < hi;
  }
  for (const auto& child : expr.children) {
    if (!RefsOnlyRange(*child, lo, hi)) return false;
  }
  return true;
}

void ShiftColumnRefs(Expr* expr, int64_t delta) {
  if (expr->kind == ExprKind::kColumnRef) {
    expr->column_index =
        static_cast<size_t>(static_cast<int64_t>(expr->column_index) + delta);
  }
  for (auto& child : expr->children) {
    ShiftColumnRefs(child.get(), delta);
  }
}

void FoldConstants(Expr* expr) {
  for (auto& child : expr->children) {
    FoldConstants(child.get());
  }
  switch (expr->kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return;
    default:
      break;
  }
  for (const auto& child : expr->children) {
    if (child->kind != ExprKind::kLiteral) return;
  }
  // All operands are literals and every implemented node kind is pure:
  // evaluate once now. Runtime failures (division/MOD by zero) keep the
  // original expression so execution reports them.
  const Result<Value> folded = Evaluator::Eval(*expr, Row());
  if (!folded.ok()) return;
  const DataType type = expr->type;
  expr->kind = ExprKind::kLiteral;
  expr->literal = *folded;
  expr->children.clear();
  // Preserve the checked type unless the fold produced NULL (whose
  // literal type is kNull but remains assignable everywhere).
  expr->type = folded->is_null() ? type : folded->type();
}

namespace {

bool IsConstExpr(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return false;
  for (const auto& child : e.children) {
    if (!IsConstExpr(*child)) return false;
  }
  return true;
}

/// The non-NULL value of constant expression `e`, nullopt when `e` is
/// not constant, fails to evaluate or is NULL (a comparison with NULL
/// accepts no row, so it narrows nothing a re-check would not).
std::optional<Value> ConstantValue(const Expr& e) {
  if (!IsConstExpr(e)) return std::nullopt;
  Result<Value> v = Evaluator::Eval(e, Row());
  if (!v.ok() || v->is_null()) return std::nullopt;
  return std::move(*v);
}

/// One conjunct's range on one column, or nullopt when not sargable.
std::optional<KeyRange> ConjunctRange(const Expr& c) {
  KeyRange range;
  if (c.kind == ExprKind::kBetween) {
    if (c.children[0]->kind != ExprKind::kColumnRef) return std::nullopt;
    range.lo = ConstantValue(*c.children[1]);
    range.hi = ConstantValue(*c.children[2]);
    if (!range.lo.has_value() || !range.hi.has_value()) return std::nullopt;
    range.column = c.children[0]->column_index;
    return range;
  }
  if (c.kind != ExprKind::kBinary) return std::nullopt;
  BinaryOp op = c.binary_op;
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
      op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return std::nullopt;
  }
  const Expr* col = c.children[0].get();
  const Expr* constant = c.children[1].get();
  if (col->kind != ExprKind::kColumnRef) {
    std::swap(col, constant);
    // Mirror the comparison so `op` reads as <col> op <const>.
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (col->kind != ExprKind::kColumnRef) return std::nullopt;
  std::optional<Value> key = ConstantValue(*constant);
  if (!key.has_value()) return std::nullopt;
  range.column = col->column_index;
  if (op != BinaryOp::kGt && op != BinaryOp::kGe) range.hi = key;
  if (op != BinaryOp::kLt && op != BinaryOp::kLe) range.lo = std::move(key);
  return range;
}

/// Applies constant folding to every expression a plan node owns.
void FoldPlanConstants(LogicalPlan* plan) {
  if (plan->predicate != nullptr) FoldConstants(plan->predicate.get());
  if (plan->join_condition != nullptr) {
    FoldConstants(plan->join_condition.get());
  }
  for (auto& e : plan->projections) FoldConstants(e.get());
  for (auto& e : plan->group_by) FoldConstants(e.get());
  for (auto& call : plan->aggregates) {
    if (call.arg != nullptr) FoldConstants(call.arg.get());
  }
  for (auto& call : plan->window_calls) {
    if (call.arg != nullptr) FoldConstants(call.arg.get());
    for (auto& p : call.partition_by) FoldConstants(p.get());
    for (auto& k : call.order_by) FoldConstants(k.expr.get());
  }
  for (auto& k : plan->sort_keys) FoldConstants(k.expr.get());
  for (auto& child : plan->children) FoldPlanConstants(child.get());
}

/// Pushes `conjuncts` (bound against `plan`'s output schema) as far down
/// into `plan` as is safe; whatever cannot be pushed is re-attached as a
/// Filter above.
LogicalPlanPtr PushFilters(LogicalPlanPtr plan, std::vector<ExprPtr> conjuncts);

LogicalPlanPtr OptimizeNode(LogicalPlanPtr plan) {
  if (plan->kind == PlanKind::kFilter) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(std::move(plan->predicate), &conjuncts);
    LogicalPlanPtr child = std::move(plan->children[0]);
    return PushFilters(std::move(child), std::move(conjuncts));
  }
  for (auto& child : plan->children) {
    child = OptimizeNode(std::move(child));
  }
  return plan;
}

LogicalPlanPtr PushFilters(LogicalPlanPtr plan,
                           std::vector<ExprPtr> conjuncts) {
  switch (plan->kind) {
    case PlanKind::kFilter: {
      // Merge stacked filters, then continue below.
      SplitConjuncts(std::move(plan->predicate), &conjuncts);
      LogicalPlanPtr child = std::move(plan->children[0]);
      return PushFilters(std::move(child), std::move(conjuncts));
    }
    case PlanKind::kJoin: {
      const size_t left_width = plan->children[0]->schema.NumColumns();
      const size_t total_width = plan->schema.NumColumns();
      std::vector<ExprPtr> left_conjuncts;
      std::vector<ExprPtr> right_conjuncts;
      std::vector<ExprPtr> join_conjuncts;
      std::vector<ExprPtr> above_conjuncts;
      const bool left_outer = plan->join_type == JoinType::kLeftOuter;
      for (ExprPtr& c : conjuncts) {
        if (RefsOnlyRange(*c, 0, left_width)) {
          left_conjuncts.push_back(std::move(c));
        } else if (!left_outer &&
                   RefsOnlyRange(*c, left_width, total_width)) {
          ShiftColumnRefs(c.get(), -static_cast<int64_t>(left_width));
          right_conjuncts.push_back(std::move(c));
        } else if (!left_outer) {
          join_conjuncts.push_back(std::move(c));
        } else {
          above_conjuncts.push_back(std::move(c));
        }
      }
      // Fold pushed join conjuncts into the join condition; a cross join
      // that gains a condition becomes an inner join.
      if (!join_conjuncts.empty()) {
        if (plan->join_condition != nullptr) {
          join_conjuncts.push_back(std::move(plan->join_condition));
        }
        plan->join_condition = CombineConjuncts(std::move(join_conjuncts));
        if (plan->join_type == JoinType::kCross) {
          plan->join_type = JoinType::kInner;
        }
      }
      plan->children[0] =
          PushFilters(std::move(plan->children[0]), std::move(left_conjuncts));
      plan->children[1] = PushFilters(std::move(plan->children[1]),
                                      std::move(right_conjuncts));
      if (!above_conjuncts.empty()) {
        return MakeFilter(std::move(plan),
                          CombineConjuncts(std::move(above_conjuncts)));
      }
      return plan;
    }
    default: {
      // Optimize below, then re-attach the filter here.
      for (auto& child : plan->children) {
        child = OptimizeNode(std::move(child));
      }
      if (!conjuncts.empty()) {
        return MakeFilter(std::move(plan),
                          CombineConjuncts(std::move(conjuncts)));
      }
      return plan;
    }
  }
}

}  // namespace

std::string KeyRange::ToString() const {
  return "[" + (lo.has_value() ? lo->ToString() : std::string("-inf")) + "," +
         (hi.has_value() ? hi->ToString() : std::string("+inf")) + "]";
}

std::vector<KeyRange> SargableKeyRanges(const Expr& predicate,
                                        const Table& table) {
  std::vector<const Expr*> conjuncts;
  std::vector<const Expr*> stack = {&predicate};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
      stack.push_back(e->children[1].get());
      stack.push_back(e->children[0].get());
    } else {
      conjuncts.push_back(e);
    }
  }
  std::vector<KeyRange> ranges;
  for (const Expr* c : conjuncts) {
    std::optional<KeyRange> range = ConjunctRange(*c);
    if (!range.has_value() ||
        range->column >= table.schema().NumColumns() ||
        table.schema().column(range->column).type == DataType::kDouble) {
      continue;
    }
    KeyRange* same = nullptr;
    for (KeyRange& r : ranges) {
      if (r.column == range->column) same = &r;
    }
    if (same == nullptr) {
      range->index_name = table.IndexNameOnColumn(range->column);
      if (range->index_name.empty()) continue;
      range->predicate = c->ToString();
      ranges.push_back(std::move(*range));
      continue;
    }
    // Intersect: the tighter bound of each side wins.
    if (range->lo.has_value() &&
        (!same->lo.has_value() || same->lo->Compare(*range->lo) < 0)) {
      same->lo = std::move(range->lo);
    }
    if (range->hi.has_value() &&
        (!same->hi.has_value() || same->hi->Compare(*range->hi) > 0)) {
      same->hi = std::move(range->hi);
    }
    same->predicate += " AND " + c->ToString();
  }
  return ranges;
}

LogicalPlanPtr OptimizePlan(LogicalPlanPtr plan) {
  RFV_CHECK(plan != nullptr);
  plan = OptimizeNode(std::move(plan));
  FoldPlanConstants(plan.get());
  return plan;
}

}  // namespace rfv
