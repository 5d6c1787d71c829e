#ifndef RFVIEW_PLAN_PLANNER_H_
#define RFVIEW_PLAN_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "plan/logical_plan.h"

namespace rfv {

// --- expression analysis utilities (shared with exec/join.cc) --------------

/// Splits a predicate into its top-level AND conjuncts (ownership moves
/// into `out`).
void SplitConjuncts(ExprPtr predicate, std::vector<ExprPtr>* out);

/// AND-combines conjuncts; returns null for an empty list.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// True when every column reference in `expr` lies in [lo, hi).
bool RefsOnlyRange(const Expr& expr, size_t lo, size_t hi);

/// Shifts every column reference by `delta` (used when pushing a
/// predicate over a join's right side down into the right child).
void ShiftColumnRefs(Expr* expr, int64_t delta);

/// Constant folding: replaces pure subexpressions whose operands are all
/// literals with their value (e.g. `s1.pos - 1 - 4` → `s1.pos - 5` after
/// reassociation is NOT attempted, but `MOD(7, 3)`, `1 + 2`, `NOT TRUE`
/// fold). Subexpressions whose evaluation would fail at runtime
/// (division by zero) are left in place so the error surfaces during
/// execution, preserving semantics.
void FoldConstants(Expr* expr);

// --- sargable key ranges ---------------------------------------------------

/// A key range on one indexed column of a table, allowed by sargable
/// conjuncts of a predicate: `col = c`, `col < c`, `col <= c`,
/// `col > c`, `col >= c` (either operand order) and
/// `col BETWEEN c1 AND c2`, each c a constant expression. Bounds are
/// inclusive — a strict comparison keeps its boundary key — so the
/// range holds every row the conjuncts accept, and its readers re-check
/// the whole predicate on each row it yields.
struct KeyRange {
  size_t column = 0;
  std::string index_name;
  std::optional<Value> lo;  ///< nullopt: open below (NULL keys included)
  std::optional<Value> hi;  ///< nullopt: open above
  std::string predicate;    ///< the conjuncts it came from, AND-joined

  /// "[lo,hi]", with -inf / +inf for an open side.
  std::string ToString() const;
};

/// The key ranges the top-level conjuncts of `predicate` (bound to
/// `table`'s columns) allow on its indexed columns, one per column —
/// conjuncts on one column intersect — in the order their columns first
/// appear. DOUBLE key columns are left out: a NaN key has no place in
/// the index order, so a range could miss it. The one recognizer behind
/// both the SELECT range scan and the UPDATE/DELETE index probe.
std::vector<KeyRange> SargableKeyRanges(const Expr& predicate,
                                        const Table& table);

// --- optimizer --------------------------------------------------------------

/// Rule-based optimization pass:
///  * merges stacked filters,
///  * pushes filter conjuncts below joins (left-only conjuncts into the
///    left child, right-only into the right child — inner/cross joins
///    only; for LEFT OUTER only the left side is safe),
///  * folds remaining mixed conjuncts into inner/cross join conditions,
///    turning a `FROM a, b WHERE a.x = b.y` cross join into an inner
///    join the executor can run as an index nested-loop or hash join.
///
/// The pass is what gives the paper's relational operator patterns their
/// "with index" execution paths: the self-join predicates of Figures 2,
/// 4, 10 and 13 arrive as WHERE conjuncts above a comma join and must be
/// attached to the join to become probe conditions.
LogicalPlanPtr OptimizePlan(LogicalPlanPtr plan);

}  // namespace rfv

#endif  // RFVIEW_PLAN_PLANNER_H_
