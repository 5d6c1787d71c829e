#ifndef RFVIEW_PLAN_LOGICAL_PLAN_H_
#define RFVIEW_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace rfv {

/// Aggregation functions of the engine — exactly the set the paper
/// considers (§2.1): SUM, COUNT, AVG plus the semi-algebraic MIN/MAX.
enum class AggFn { kSum, kCount, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

/// One aggregate call inside a GROUP BY: fn(arg) or COUNT(*).
struct AggregateCall {
  AggFn fn = AggFn::kSum;
  ExprPtr arg;               ///< null for COUNT(*)
  bool is_count_star = false;
  std::string output_name;
  DataType output_type = DataType::kDouble;
};

/// Sort key bound against the input schema.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Row-based window frame in normalized form. `lo`/`hi` are offsets
/// relative to the current row (lo = -l for "l PRECEDING", hi = +h for
/// "h FOLLOWING"); the unbounded flags override the offsets. This is the
/// bound form of the paper's window aggregation group.
struct WindowFrame {
  bool lo_unbounded = true;
  int64_t lo = 0;
  bool hi_unbounded = false;
  int64_t hi = 0;
  /// RANGE mode: offsets are *value* distances along the (single,
  /// ascending, numeric) ORDER BY key instead of row counts.
  bool range_mode = false;

  /// Frame covering the whole partition.
  static WindowFrame WholePartition() {
    return WindowFrame{true, 0, true, 0};
  }
  /// Cumulative frame: UNBOUNDED PRECEDING .. CURRENT ROW.
  static WindowFrame Cumulative() { return WindowFrame{true, 0, false, 0}; }
  /// Sliding frame (paper notation (l,h)): l PRECEDING .. h FOLLOWING.
  static WindowFrame Sliding(int64_t l, int64_t h) {
    return WindowFrame{false, -l, false, h};
  }

  bool operator==(const WindowFrame& other) const {
    return lo_unbounded == other.lo_unbounded && hi == other.hi &&
           hi_unbounded == other.hi_unbounded &&
           range_mode == other.range_mode &&
           (lo_unbounded || lo == other.lo) &&
           (hi_unbounded || hi == other.hi);
  }

  std::string ToString() const;
};

/// Kinds of reporting functions: framed aggregates (the paper's core)
/// plus the ranking functions its introduction motivates ("simple
/// ranking queries (TOP(n)-analyses)").
enum class WindowFnKind {
  kAggregate,  ///< fn(arg) over a ROWS frame
  kRowNumber,  ///< ROW_NUMBER(): 1-based position within the partition
  kRank,       ///< RANK(): like ROW_NUMBER but ties share the rank (gaps)
};

/// One reporting-function call: fn(arg) OVER (PARTITION BY partition_by
/// ORDER BY order_by frame). Bound against the window operator's input.
struct WindowCall {
  WindowFnKind kind = WindowFnKind::kAggregate;
  AggFn fn = AggFn::kSum;
  ExprPtr arg;               ///< null for COUNT(*) and ranking functions
  bool is_count_star = false;
  std::vector<ExprPtr> partition_by;
  std::vector<SortKey> order_by;
  WindowFrame frame;
  std::string output_name;
  DataType output_type = DataType::kDouble;
};

enum class PlanKind {
  kScan,      ///< base table scan
  kFilter,
  kProject,
  kJoin,
  kAggregate, ///< hash aggregation with optional grouping
  kWindow,    ///< reporting-function evaluation; appends one column per call
  kSort,
  kUnionAll,
  kLimit,
};

enum class JoinType { kInner, kLeftOuter, kCross };

/// A logical plan node. Like the bound expression tree this is a tagged
/// struct: only the fields of the node's kind are meaningful. The
/// `schema` member is the node's output schema and is always filled by
/// the binder or by the rewrite pattern builders.
struct LogicalPlan {
  PlanKind kind = PlanKind::kScan;
  Schema schema;
  std::vector<std::unique_ptr<LogicalPlan>> children;

  // kScan
  Table* table = nullptr;
  std::string alias;

  // kFilter (also carries HAVING)
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> projections;  ///< one per output column

  // kJoin
  JoinType join_type = JoinType::kInner;
  ExprPtr join_condition;  ///< null for pure cross join

  // kAggregate
  std::vector<ExprPtr> group_by;
  std::vector<AggregateCall> aggregates;

  // kWindow
  std::vector<WindowCall> window_calls;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;

  /// Estimated output rows, filled by EstimateCardinality
  /// (plan/cardinality.h) after optimization; -1 = not estimated.
  /// Surfaced by EXPLAIN and carried onto the physical operators for
  /// the estimated-vs-actual comparison in EXPLAIN ANALYZE.
  double est_rows = -1;

  /// Indented tree rendering for debugging / EXPLAIN-style output.
  /// Nodes with a cardinality estimate render an `est=N` suffix.
  std::string ToString(int indent = 0) const;
};

using LogicalPlanPtr = std::unique_ptr<LogicalPlan>;

// --- construction helpers (used by the binder and the planner) -------------

LogicalPlanPtr MakeScan(Table* table, const std::string& alias);
LogicalPlanPtr MakeFilter(LogicalPlanPtr input, ExprPtr predicate);
LogicalPlanPtr MakeProject(LogicalPlanPtr input,
                           std::vector<ExprPtr> projections,
                           std::vector<std::string> names);
LogicalPlanPtr MakeJoin(JoinType type, LogicalPlanPtr left,
                        LogicalPlanPtr right, ExprPtr condition);
LogicalPlanPtr MakeAggregate(LogicalPlanPtr input, std::vector<ExprPtr> group_by,
                             std::vector<std::string> group_names,
                             std::vector<AggregateCall> aggregates);
LogicalPlanPtr MakeWindow(LogicalPlanPtr input,
                          std::vector<WindowCall> calls);
LogicalPlanPtr MakeSort(LogicalPlanPtr input, std::vector<SortKey> keys);
LogicalPlanPtr MakeUnionAll(std::vector<LogicalPlanPtr> inputs);
LogicalPlanPtr MakeLimit(LogicalPlanPtr input, int64_t limit);

}  // namespace rfv

#endif  // RFVIEW_PLAN_LOGICAL_PLAN_H_
