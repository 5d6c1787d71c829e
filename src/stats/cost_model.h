#ifndef RFVIEW_STATS_COST_MODEL_H_
#define RFVIEW_STATS_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "sequence/maxoa.h"
#include "sequence/minoa.h"
#include "sequence/window_spec.h"

namespace rfv {

/// Cost model for the paper's derivation patterns (§7: "neither MaxOA
/// nor MinOA dominates — the winner depends on the view/query frame
/// overlap and the data volume"). Each Estimate* function prices the
/// relational operator pattern the rewriter would emit
/// (rewrite/pattern_sql.h) against the *cheapest* execution strategy
/// the engine has for its join predicate: the all-pairs nested loop,
/// the ordered-index probe of the predicate's position hull, or the
/// merge band join that touches only interval/stride candidates
/// (exec/band_join.cc). The chosen alternative is recorded in
/// CostEstimate::join and shown by EXPLAIN. See docs/COST_MODEL.md for
/// the formula derivations and their mapping to the paper's figures.

/// Statistics inputs of one costing decision, harvested from the
/// stats-bearing tables (stats/table_stats.h) by the rewriter.
struct PatternStats {
  /// Body length n of the view sequence (positions 1..n).
  int64_t body_rows = 0;
  /// Rows of the view's content table: n plus header/trailer.
  int64_t content_rows = 0;
  /// Live rows of the base table (no-rewrite baseline input).
  int64_t base_rows = 0;
  /// Whether the content table has an ordered index on pos.
  bool indexed = true;
  /// True when the decision ran on stale column statistics (counts are
  /// always exact; recorded for the rfv_rewrite_cost_* metrics).
  bool stale = false;
  /// Position-column statistics (ColumnStats of the content table's pos
  /// column), pricing the index-probe hull and band-join alternatives:
  /// smallest and largest position. pos_max < pos_min = unknown range.
  double pos_min = 0;
  /// Largest position; see pos_min.
  double pos_max = -1;
  /// Distinct positions as of the last ANALYZE; -1 = never analyzed.
  int64_t pos_distinct = -1;

  /// Rows per unit of position range, distinct/(max-min+1) clamped to
  /// (0, 1]; 1.0 when the range or distinct count is unknown (a complete
  /// sequence is dense, so 1.0 is the right prior).
  double PosDensity() const {
    const double width = pos_max - pos_min + 1;
    if (width <= 0 || pos_distinct <= 0) return 1.0;
    const double d = static_cast<double>(pos_distinct) / width;
    return d > 1.0 ? 1.0 : d;
  }
};

/// Join execution strategy a cost estimate was priced against — the
/// cheapest of the engine's alternatives for the pattern's join
/// predicate (see PriceJoin in cost_model.cc). Surfaced in
/// CostEstimate::Summary as the `join=` token, so EXPLAIN shows which
/// physical alternative the estimate assumed.
enum class JoinStrategy {
  kNone,        ///< pattern has no join (direct scan, count-trivial)
  kNestedLoop,  ///< all-pairs nested loop, every branch tested
  kIndexHull,   ///< ordered-index probe of the predicate's position hull
  kBandMerge,   ///< merge band join touching only band/stride candidates
  kHashEqui,    ///< hash build + probe on equi-key conjuncts
};

/// Short token for the Summary line ("nl", "index", "band", "hash", "").
const char* JoinStrategyName(JoinStrategy strategy);

/// One pattern's estimated execution profile. `total` is the scalar the
/// chooser minimizes: rows_read + pred_evals + kTupleWeight·tuples +
/// output_rows (units: row operations).
struct CostEstimate {
  double rows_read = 0;    ///< stored rows scanned by the pattern
  double pred_evals = 0;   ///< join-pair predicate evaluations (branch-weighted)
  double tuples = 0;       ///< matched tuples entering aggregation
  double output_rows = 0;  ///< rows the pattern returns
  double total = 0;
  /// Cheapest join alternative the pred_evals term assumed.
  JoinStrategy join = JoinStrategy::kNone;

  /// "total=… read=… pred=… tuples=… out=… join=…" (EXPLAIN verdict
  /// rendering; the join token is omitted for join-free patterns).
  std::string Summary() const;
};

/// Relative weight of a matched tuple against one predicate evaluation
/// in `total`. A matched pair is materialized, carried through the
/// grouping hash, and aggregated — several row operations — while a
/// failed pair costs one short-circuited branch test. The weight also
/// makes tuple *fan-out* the discriminating term between healthy and
/// degenerate derivations: every pattern's predicate cost is priced at
/// the cheapest join strategy (PriceJoin), but only narrow-stride
/// chains drag ~n/w_x view tuples per output row through the
/// aggregation (see the no-rewrite gate, rewrite/rewriter.h
/// kRewriteCostBias).
inline constexpr double kTupleWeight = 4.0;

/// Direct hit: scan the content table, keep the n body rows.
CostEstimate EstimateDirectCost(const PatternStats& stats);

/// Sliding-from-cumulative (paper Fig. 5): self join probing two
/// positions per output row.
CostEstimate EstimateCumulativeDiffCost(const PatternStats& stats);

/// MaxOA explicit pattern (paper Fig. 10). Fan-out: one base term plus,
/// per *active* side (Δl > 0 / Δh > 0), a positive and a negative
/// compensation chain of stride w_x running to the header/trailer.
CostEstimate EstimateMaxoaCost(const WindowSpec& view_window,
                               const MaxoaParams& params,
                               const PatternStats& stats);

/// MinOA pattern (paper Fig. 13). Fan-out: a positive and a negative
/// telescoping chain of stride w_x — or a single *bounded* chain of
/// (Δl+Δh)/w_x + 1 terms in the coincident congruence-class case.
CostEstimate EstimateMinoaCost(const WindowSpec& view_window,
                               const MinoaParams& params,
                               const PatternStats& stats);

/// MIN/MAX two-window cover (paper §4.2): two equi self joins, which
/// the engine runs as index or hash joins.
CostEstimate EstimateMinMaxCoverCost(const PatternStats& stats);

/// COUNT from positions alone: one base-table scan.
CostEstimate EstimateCountTrivialCost(const PatternStats& stats);

/// The no-rewrite baseline: recomputing the reporting function from the
/// base table with the paper's Fig. 2 self-join pattern (the paper's §7
/// cost context — an engine whose reporting functions are evaluated
/// relationally). A derivation is only chosen when it undercuts this.
CostEstimate EstimateSelfJoinRecomputeCost(const WindowSpec& query_window,
                                           const PatternStats& stats);

}  // namespace rfv

#endif  // RFVIEW_STATS_COST_MODEL_H_
