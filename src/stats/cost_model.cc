#include "stats/cost_model.h"

#include <algorithm>
#include <cstdio>

namespace rfv {

namespace {

/// Continuous approximation of a telescoping-chain length: how many
/// stride-w steps fit into `reach` positions before the chain walks off
/// the header/trailer of the complete sequence. Clamped at 0.
double ChainLen(double reach, double w) {
  if (w <= 0 || reach <= 0) return 0;
  return reach / w;
}

CostEstimate Finish(CostEstimate est) {
  est.total = est.rows_read + est.pred_evals + kTupleWeight * est.tuples +
              est.output_rows;
  return est;
}

/// Prices a pattern's join predicate against the engine's alternatives
/// and stores the cheapest in est->pred_evals / est->join:
///   nested loop  n·m pairs, every branch of the disjunction tested;
///   index hull   n probes, each scanning the predicate's position hull
///                (hull_rows candidates, re-checked branch-wide) —
///                requires the ordered index;
///   band merge   n band resolutions touching only band_rows interval/
///                stride candidates per left row (exec/band_join.cc).
/// hull_rows / band_rows are candidate counts per left row; pass a
/// negative band_rows when the condition has no band shape.
/// Per-candidate cost multiplier of the band-merge and hash joins, whose
/// vector-native paths gather candidate runs column-wise into pooled
/// lanes instead of materializing per-row Value copies (measured ~2× on
/// the A8 sweep and the BM_HashJoin probe; priced conservatively).
constexpr double kVectorJoinDiscount = 0.5;

void PriceJoin(double n, double m, double branches, double hull_rows,
               double band_rows, const PatternStats& stats,
               CostEstimate* est) {
  est->pred_evals = n * m * branches;
  est->join = JoinStrategy::kNestedLoop;
  if (stats.indexed && hull_rows >= 0) {
    const double hull = n * hull_rows * branches;
    if (hull < est->pred_evals) {
      est->pred_evals = hull;
      est->join = JoinStrategy::kIndexHull;
    }
  }
  if (band_rows >= 0) {
    const double band = n * band_rows * branches * kVectorJoinDiscount;
    if (band < est->pred_evals) {
      est->pred_evals = band;
      est->join = JoinStrategy::kBandMerge;
    }
  }
}

}  // namespace

const char* JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kNone: return "";
    case JoinStrategy::kNestedLoop: return "nl";
    case JoinStrategy::kIndexHull: return "index";
    case JoinStrategy::kBandMerge: return "band";
    case JoinStrategy::kHashEqui: return "hash";
  }
  return "";
}

std::string CostEstimate::Summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "total=%.0f read=%.0f pred=%.0f tuples=%.0f out=%.0f", total,
                rows_read, pred_evals, tuples, output_rows);
  std::string out = buf;
  if (join != JoinStrategy::kNone) {
    out += " join=";
    out += JoinStrategyName(join);
  }
  return out;
}

CostEstimate EstimateDirectCost(const PatternStats& stats) {
  CostEstimate est;
  const double m = static_cast<double>(stats.content_rows);
  const double n = static_cast<double>(stats.body_rows);
  est.rows_read = m;
  est.pred_evals = m;  // body-range filter over the content scan
  est.tuples = 0;
  est.output_rows = n;
  return Finish(est);
}

CostEstimate EstimateCumulativeDiffCost(const PatternStats& stats) {
  CostEstimate est;
  const double m = static_cast<double>(stats.content_rows);
  const double n = static_cast<double>(stats.body_rows);
  est.rows_read = n + m;
  // Self join probing the two positions k+h and k-l-1 per output row
  // (Fig. 5). Each branch is a point band, so the index hull and the
  // band merge both touch one candidate per probe.
  PriceJoin(n, m, /*branches=*/2, /*hull_rows=*/1, /*band_rows=*/1, stats,
            &est);
  est.tuples = 2 * n;
  est.output_rows = n;
  return Finish(est);
}

CostEstimate EstimateMaxoaCost(const WindowSpec& view_window,
                               const MaxoaParams& params,
                               const PatternStats& stats) {
  CostEstimate est;
  const double m = static_cast<double>(stats.content_rows);
  const double n = static_cast<double>(stats.body_rows);
  const double w = static_cast<double>(view_window.size());
  const double hx = static_cast<double>(view_window.h());
  const double lx = static_cast<double>(view_window.l());
  const double dl = static_cast<double>(params.delta_l);
  const double dh = static_cast<double>(params.delta_h);
  const double k = (n + 1) / 2;  // average output position

  // Fig. 10 fan-out per output position: the base term plus, per active
  // side, two stride-w chains (positive and compensation) bounded by the
  // header on the low side and the trailer on the high side. Both
  // strides are Δl+Δp = Δh+Δq = w_x.
  double terms = 1;
  double branches = 1;
  if (params.delta_l > 0) {
    terms += ChainLen(k + hx - 1, w) + ChainLen(k - dl + hx - 1, w);
    branches += 2;
  }
  if (params.delta_h > 0) {
    terms += ChainLen(n + lx - k, w) + ChainLen(n + lx - k - dh, w);
    branches += 2;
  }

  est.rows_read = n + m;
  // The congruence (MOD) stride branches defeat hash joins, but an
  // ordered index can still scan each probe's position hull (half the
  // content when only one side is active, the whole content otherwise),
  // and the merge band join enumerates exactly the `terms` stride
  // candidates per output row.
  const double hull_span = ((params.delta_l > 0) != (params.delta_h > 0))
                               ? m / 2
                               : m;
  PriceJoin(n, m, branches, hull_span * stats.PosDensity(), terms, stats,
            &est);
  est.tuples = n * terms;
  est.output_rows = n;
  return Finish(est);
}

CostEstimate EstimateMinoaCost(const WindowSpec& view_window,
                               const MinoaParams& params,
                               const PatternStats& stats) {
  CostEstimate est;
  const double m = static_cast<double>(stats.content_rows);
  const double n = static_cast<double>(stats.body_rows);
  const double w = static_cast<double>(params.wx);
  const double hx = static_cast<double>(view_window.h());
  const double dl = static_cast<double>(params.delta_l);
  const double dh = static_cast<double>(params.delta_h);
  const double k = (n + 1) / 2;

  const int64_t span = params.delta_l + params.delta_h;
  const bool coincident = params.wx > 0 && span >= 0 && span % params.wx == 0;

  double terms = 0;
  double branches = 0;
  if (coincident) {
    // Both chains live in one congruence class and telescope to a
    // bounded window of (Δl+Δh)/w_x + 1 view values (Fig. 13's best
    // case — a single BETWEEN branch).
    terms = static_cast<double>(span) / w + 1;
    branches = 1;
  } else {
    // Positive chain tiles down from k+Δh, negative from k-Δl-w; both
    // stop at the header position 1-h_x.
    terms = ChainLen(k + dh + hx - 1, w) + 1 + ChainLen(k - dl + hx - 1, w);
    branches = 2;
  }

  est.rows_read = n + m;
  // Coincident chains collapse to one BETWEEN band whose hull is the
  // Δl+Δh position span; otherwise each probe's hull covers roughly
  // half the content while the band merge touches only the stride
  // candidates.
  const double hull_rows = coincident
                               ? (static_cast<double>(span) + 1)
                               : m / 2;
  PriceJoin(n, m, branches, hull_rows * stats.PosDensity(), terms, stats,
            &est);
  est.tuples = n * terms;
  est.output_rows = n;
  return Finish(est);
}

CostEstimate EstimateMinMaxCoverCost(const PatternStats& stats) {
  CostEstimate est;
  const double m = static_cast<double>(stats.content_rows);
  const double n = static_cast<double>(stats.body_rows);
  est.rows_read = n + 2 * m;
  // Two equi self joins on shifted positions — index- or hash-joinable,
  // so the pair cost is linear, not quadratic. The hash join's cost is
  // discounted like the band merge's.
  const double per_join =
      stats.indexed ? n + m : 2 * (n + m) * kVectorJoinDiscount;
  est.join = stats.indexed ? JoinStrategy::kIndexHull : JoinStrategy::kHashEqui;
  est.pred_evals = 2 * per_join;
  est.tuples = 2 * n;
  est.output_rows = n;
  return Finish(est);
}

CostEstimate EstimateCountTrivialCost(const PatternStats& stats) {
  CostEstimate est;
  const double b = static_cast<double>(stats.base_rows);
  est.rows_read = b;
  est.pred_evals = b;
  est.tuples = 0;
  est.output_rows = static_cast<double>(stats.body_rows);
  return Finish(est);
}

CostEstimate EstimateSelfJoinRecomputeCost(const WindowSpec& query_window,
                                           const PatternStats& stats) {
  CostEstimate est;
  const double b = static_cast<double>(stats.base_rows);
  const double w = query_window.is_cumulative()
                       ? (b + 1) / 2  // BETWEEN 1 AND k: half the pairs match
                       : static_cast<double>(query_window.size());
  est.rows_read = 2 * b;
  // Fig. 2: self join on a position-range predicate, one branch. The
  // BETWEEN band's hull per probe is the query window itself, so the
  // index probe and the band merge touch the same rows.
  const double window_rows = std::min(w, b) * stats.PosDensity();
  PriceJoin(b, b, /*branches=*/1, window_rows, window_rows, stats, &est);
  est.tuples = b * std::min(w, b);
  est.output_rows = b;
  return Finish(est);
}

}  // namespace rfv
