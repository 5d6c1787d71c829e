#ifndef RFVIEW_PLAN_CARDINALITY_H_
#define RFVIEW_PLAN_CARDINALITY_H_

#include "plan/logical_plan.h"
#include "plan/planner.h"

namespace rfv {

/// Annotates every node of an optimized logical plan with an estimated
/// output cardinality (LogicalPlan::est_rows), bottom-up:
///
///  * scans read the exact row count from the table's statistics
///    (stats/table_stats.h — maintained incrementally on DML);
///  * filters apply textbook selectivities (equality → 1/NDV using the
///    last ANALYZE's distinct counts when the input is a base-table
///    scan; BETWEEN and `<`, `<=`, `>`, `>=` against a literal → the
///    share of the column's min/max range the bounds overlap, else 1/4
///    for BETWEEN and 1/3 for a comparison; AND → product, OR →
///    inclusion-exclusion);
///  * equi joins assume key-foreign-key containment (max of the
///    inputs); other joins fall back to a fixed selectivity over the
///    cross product;
///  * grouping uses the group column's distinct count when available,
///    else the square-root rule.
///
/// Estimates are heuristic by design — their purpose is the
/// estimated-vs-actual comparison in EXPLAIN / EXPLAIN ANALYZE (see
/// docs/COST_MODEL.md), not plan selection, which happens earlier in
/// the rewrite layer's derivation cost model.
void EstimateCardinality(LogicalPlan* plan);

/// Estimated share of the rows of base-table scan `scan` whose key lies
/// in `range` — the rows a range scan reads — from the column's min/max
/// range and non-NULL share; -1 when the bounds are not numeric or the
/// statistics are missing.
double KeyRangeSelectivity(const LogicalPlan& scan, const KeyRange& range);

}  // namespace rfv

#endif  // RFVIEW_PLAN_CARDINALITY_H_
