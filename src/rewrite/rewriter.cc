#include "rewrite/rewriter.h"

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "rewrite/pattern_sql.h"

namespace rfv {

namespace {

/// Counts a successful rewrite, labeled by derivation method.
void CountRewriteHit(DerivationMethod method) {
  Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_rewrite_hits_total", {{"method", DerivationMethodName(method)}},
      "Window queries answered from a materialized sequence view");
  c->Increment();
}

/// Counts the outcome of a cost-based decision; `method` is a
/// DerivationMethodName or "no-rewrite".
void CountCostDecision(const std::string& method) {
  Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_rewrite_cost_chosen_total", {{"method", method}},
      "Cost-based derivation decisions by outcome");
  c->Increment();
}

void CountCostCandidates(size_t n) {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_rewrite_cost_candidates_total", {},
      "(view, method) alternatives priced by the derivation cost model");
  c->Increment(static_cast<int64_t>(n));
}

void CountStaleStats() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_rewrite_cost_stale_stats_total", {},
      "Cost-based decisions taken on stale column statistics");
  c->Increment();
}

/// Frame → WindowSpec; nullopt for frames outside the paper's sequence
/// model (e.g. 3 PRECEDING AND 1 PRECEDING).
std::optional<WindowSpec> FrameToWindowSpec(const WindowSpecAst& over) {
  if (!over.has_frame) {
    // ORDER BY without a frame defaults to cumulative semantics.
    return WindowSpec::Cumulative();
  }
  if (over.range_mode) {
    // RANGE frames measure value distances; the paper's sequence model
    // (and therefore the view rewrite) is positional.
    return std::nullopt;
  }
  const FrameBound& lo = over.frame_lo;
  const FrameBound& hi = over.frame_hi;
  if (lo.kind == FrameBound::Kind::kUnboundedPreceding &&
      (hi.kind == FrameBound::Kind::kCurrentRow ||
       (hi.kind == FrameBound::Kind::kFollowing && hi.offset == 0) ||
       (hi.kind == FrameBound::Kind::kPreceding && hi.offset == 0))) {
    return WindowSpec::Cumulative();
  }
  int64_t l = 0;
  int64_t h = 0;
  switch (lo.kind) {
    case FrameBound::Kind::kPreceding: l = lo.offset; break;
    case FrameBound::Kind::kCurrentRow: l = 0; break;
    case FrameBound::Kind::kFollowing:
      if (lo.offset != 0) return std::nullopt;
      l = 0;
      break;
    default: return std::nullopt;
  }
  switch (hi.kind) {
    case FrameBound::Kind::kFollowing: h = hi.offset; break;
    case FrameBound::Kind::kCurrentRow: h = 0; break;
    case FrameBound::Kind::kPreceding:
      if (hi.offset != 0) return std::nullopt;
      h = 0;
      break;
    default: return std::nullopt;
  }
  if (l < 0 || h < 0 || (l == 0 && h == 0)) return std::nullopt;
  return WindowSpec::SlidingUnchecked(l, h);
}

bool IsPlainColumn(const AstExpr& e, std::string* name) {
  if (e.kind != AstExprKind::kColumn) return false;
  *name = ToLower(e.name);
  return true;
}

}  // namespace

std::optional<SeqQuery> Rewriter::RecognizeSimpleWindowQuery(
    const SelectStmt& stmt, bool* wants_order) {
  if (wants_order != nullptr) *wants_order = false;
  if (stmt.union_all_next != nullptr || stmt.where != nullptr ||
      !stmt.group_by.empty() || stmt.having != nullptr || stmt.limit >= 0) {
    return std::nullopt;
  }
  if (stmt.from == nullptr || stmt.from->kind != TableRef::Kind::kTable) {
    return std::nullopt;
  }
  if (stmt.select_list.size() < 2) return std::nullopt;
  const size_t partition_count = stmt.select_list.size() - 2;

  SeqQuery query;
  query.base_table = ToLower(stmt.from->table_name);

  // Items 0..k-1: partition columns (plain column references).
  for (size_t i = 0; i < partition_count; ++i) {
    const SelectItem& item = stmt.select_list[i];
    if (item.is_star || item.expr == nullptr) return std::nullopt;
    std::string name;
    if (!IsPlainColumn(*item.expr, &name)) return std::nullopt;
    query.partition_columns.push_back(std::move(name));
  }

  // Item k: the position column.
  const SelectItem& pos_item = stmt.select_list[partition_count];
  if (pos_item.is_star || pos_item.expr == nullptr) return std::nullopt;
  if (!IsPlainColumn(*pos_item.expr, &query.order_column)) {
    return std::nullopt;
  }

  // Item k+1: agg(value) OVER ([PARTITION BY p1..pk] ORDER BY pos ROWS
  // frame).
  const SelectItem& win_item = stmt.select_list[partition_count + 1];
  if (win_item.is_star || win_item.expr == nullptr) return std::nullopt;
  const AstExpr& call = *win_item.expr;
  if (call.kind != AstExprKind::kFunctionCall || call.over == nullptr) {
    return std::nullopt;
  }
  const std::string fn_name = ToUpper(call.function_name);
  if (fn_name == "SUM") {
    query.fn = SeqAggFn::kSum;
  } else if (fn_name == "MIN") {
    query.fn = SeqAggFn::kMin;
  } else if (fn_name == "MAX") {
    query.fn = SeqAggFn::kMax;
  } else if (fn_name == "AVG") {
    query.fn = SeqAggFn::kSum;
    query.is_avg = true;
  } else if (fn_name == "COUNT") {
    query.is_count = true;
  } else {
    return std::nullopt;
  }
  if (call.children.size() != 1) return std::nullopt;
  if (query.is_count && call.children[0]->kind == AstExprKind::kStar) {
    // COUNT(*) counts positions; the order column stands in as the
    // "value".
    query.value_column = query.order_column;
  } else if (!IsPlainColumn(*call.children[0], &query.value_column)) {
    return std::nullopt;
  }
  if (query.is_count && query.value_column != query.order_column) {
    // COUNT over a nullable measure is not position-trivial.
    return std::nullopt;
  }
  const WindowSpecAst& over = *call.over;
  if (over.partition_by.size() != query.partition_columns.size()) {
    return std::nullopt;
  }
  for (size_t i = 0; i < over.partition_by.size(); ++i) {
    std::string name;
    if (!IsPlainColumn(*over.partition_by[i], &name) ||
        name != query.partition_columns[i]) {
      return std::nullopt;
    }
  }
  if (over.order_by.size() != 1 || !over.order_by[0].ascending) {
    return std::nullopt;
  }
  std::string over_order;
  if (!IsPlainColumn(*over.order_by[0].expr, &over_order) ||
      over_order != query.order_column) {
    return std::nullopt;
  }
  const std::optional<WindowSpec> window = FrameToWindowSpec(over);
  if (!window.has_value()) return std::nullopt;
  query.window = *window;

  // Final ORDER BY: absent; or (unpartitioned) exactly the position
  // column ascending; or (partitioned) exactly (p1, ..., pk, pos)
  // ascending.
  if (!stmt.order_by.empty()) {
    if (partition_count == 0) {
      if (stmt.order_by.size() != 1 || !stmt.order_by[0].ascending) {
        return std::nullopt;
      }
      std::string order_col;
      const AstExpr& e = *stmt.order_by[0].expr;
      const bool ordinal_one = e.kind == AstExprKind::kLiteral &&
                               e.literal.type() == DataType::kInt64 &&
                               e.literal.AsInt() == 1;
      if (!ordinal_one) {
        if (!IsPlainColumn(e, &order_col)) return std::nullopt;
        // Accept the position column or its alias.
        const std::string alias = ToLower(pos_item.alias);
        if (order_col != query.order_column && order_col != alias) {
          return std::nullopt;
        }
      }
    } else {
      if (stmt.order_by.size() != partition_count + 1) return std::nullopt;
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        if (!stmt.order_by[i].ascending) return std::nullopt;
        std::string name;
        if (!IsPlainColumn(*stmt.order_by[i].expr, &name)) {
          return std::nullopt;
        }
        const std::string& expected = i < partition_count
                                          ? query.partition_columns[i]
                                          : query.order_column;
        if (name != expected) return std::nullopt;
      }
    }
    if (wants_order != nullptr) *wants_order = true;
  }
  return query;
}

PatternStats Rewriter::StatsForView(const SequenceViewDef& view) const {
  PatternStats stats;
  stats.body_rows = view.n;
  stats.indexed = view.indexed;
  Result<Table*> content = catalog_->GetTable(view.view_name);
  if (content.ok()) {
    // One coherent copy: pricing runs on the concurrent read path while
    // maintenance updates these fields under the table lock.
    const TableStats content_stats = (*content)->StatsSnapshot();
    stats.content_rows = content_stats.row_count;
    stats.stale = content_stats.AnyStale();
    // Position-column statistics price the index-hull and band-join
    // alternatives (PatternStats::PosDensity).
    const std::optional<size_t> pos_idx =
        (*content)->schema().TryFindColumn("", view.order_column);
    if (pos_idx.has_value() && *pos_idx < content_stats.columns.size()) {
      const ColumnStats& pos = content_stats.columns[*pos_idx];
      if (pos.has_range) {
        stats.pos_min = pos.min_value;
        stats.pos_max = pos.max_value;
      }
      stats.pos_distinct = pos.distinct_count;
    }
  } else {
    stats.content_rows = view.n;
  }
  Result<Table*> base = catalog_->GetTable(view.base_table);
  if (base.ok()) stats.base_rows = (*base)->StatsSnapshot().row_count;
  return stats;
}

Result<std::optional<RewriteResult>> Rewriter::TryRewrite(
    const SelectStmt& stmt, const RewriteOptions& options,
    RewriteDecision* decision) const {
  TraceSpan span("rewrite");
  bool wants_order = false;
  const std::optional<SeqQuery> query =
      RecognizeSimpleWindowQuery(stmt, &wants_order);
  if (!query.has_value()) {
    if (span.active()) span.AddArg("verdict", "not a simple window query");
    return std::optional<RewriteResult>();
  }
  // Offsets near INT64_MAX would overflow the derivation arithmetic; the
  // native window operator answers them.
  if (!query->window.CheckExtent(0).ok()) {
    if (span.active()) span.AddArg("verdict", "window extent overflows");
    return std::optional<RewriteResult>();
  }
  static Counter* attempts = MetricsRegistry::Global().GetCounter(
      "rfv_rewrite_attempts_total", {},
      "Recognized window queries the rewriter tried to answer from a view");
  attempts->Increment();

  // COUNT windows are answered from positions alone (paper §2.1). The
  // rewrite fires only when some registered (non-derived) sequence view
  // over the same base/order column exists — view materialization
  // validated that the positions are dense 1..n, which the formula
  // assumes.
  if (query->is_count) {
    if (!query->partition_columns.empty()) {
      return std::optional<RewriteResult>();
    }
    const SequenceViewDef* witness = nullptr;
    for (const auto& v : views_->views()) {
      if (!v->derived && v->partition_columns.empty() &&
          EqualsIgnoreCase(v->base_table, query->base_table) &&
          EqualsIgnoreCase(v->order_column, query->order_column)) {
        witness = v.get();
        break;
      }
    }
    if (witness == nullptr) return std::optional<RewriteResult>();
    Result<Table*> base = catalog_->GetTable(query->base_table);
    if (!base.ok()) return base.status();
    RewriteResult result;
    result.sql = CountWindowSql(query->base_table, query->order_column,
                                query->window,
                                static_cast<int64_t>((*base)->NumRows()));
    if (wants_order) result.sql += " ORDER BY 1";
    result.choice.view = witness;
    result.choice.method = DerivationMethod::kCountTrivial;
    if (options.use_cost_model) {
      PatternStats stats = StatsForView(*witness);
      stats.vector_exec = options.vector_exec;
      result.cost = EstimateCountTrivialCost(stats);
    }
    if (decision != nullptr) {
      decision->summary = "count-trivial using view " + witness->view_name;
    }
    CountRewriteHit(result.choice.method);
    if (span.active()) {
      span.AddArg("view", witness->view_name);
      span.AddArg("method", "count-trivial");
    }
    RFV_LOG(kInfo) << "rewrite: count-trivial using view "
                   << witness->view_name;
    return std::optional<RewriteResult>(std::move(result));
  }

  const SeqAggFn lookup_fn = query->is_avg ? SeqAggFn::kSum : query->fn;
  const std::vector<const SequenceViewDef*> candidates =
      views_->FindCandidates(query->base_table, query->value_column,
                             query->order_column, lookup_fn,
                             query->partition_columns);
  if (candidates.empty()) {
    if (span.active()) span.AddArg("verdict", "no candidate views");
    return std::optional<RewriteResult>();
  }
  if (span.active()) {
    // One child span per candidate view with its derivability verdict;
    // this re-runs the (cheap, in-memory) derivability math purely for
    // the trace, so it is gated on tracing being active.
    for (const SequenceViewDef* view : candidates) {
      TraceSpan candidate_span("rewrite.candidate");
      candidate_span.AddArg("view", view->view_name);
      Result<DerivationChoice> verdict = CheckDerivability(*view, *query);
      candidate_span.AddArg(
          "verdict", verdict.ok()
                         ? std::string("derivable via ") +
                               DerivationMethodName(verdict->method)
                         : "not derivable: " + verdict.status().message());
    }
  }

  DerivationChoice choice;
  std::optional<CostEstimate> chosen_cost_out;
  if (options.force_method.has_value()) {
    bool found = false;
    for (const SequenceViewDef* view : candidates) {
      Result<DerivationChoice> r = CheckDerivability(*view, *query);
      if (r.ok() && r->method == *options.force_method) {
        choice = std::move(*r);
        found = true;
        break;
      }
      // A view whose automatic choice differs may still support the
      // forced method (MaxOA-eligible pairs are always MinOA-eligible).
      // Partitioned pairs never do: the MaxOA/MinOA SQL templates are
      // single-sequence (no partition column in the select list or the
      // self-join predicate), so forcing them onto a partitioned view
      // would silently collapse the partitions.
      if (!query->partition_columns.empty() ||
          !view->partition_columns.empty()) {
        continue;
      }
      if (*options.force_method == DerivationMethod::kMinoa &&
          view->window.is_sliding() && query->window.is_sliding() &&
          view->fn == SeqAggFn::kSum) {
        Result<MinoaParams> params = PlanMinoa(view->window, query->window);
        if (params.ok()) {
          choice.view = view;
          choice.method = DerivationMethod::kMinoa;
          choice.minoa = *params;
          found = true;
          break;
        }
      }
      if (*options.force_method == DerivationMethod::kMaxoa &&
          view->window.is_sliding() && query->window.is_sliding() &&
          view->fn == SeqAggFn::kSum) {
        Result<MaxoaParams> params = PlanMaxoa(view->window, query->window);
        if (params.ok() && (params->delta_l > 0 || params->delta_h > 0)) {
          choice.view = view;
          choice.method = DerivationMethod::kMaxoa;
          choice.maxoa = *params;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      if (span.active()) span.AddArg("verdict", "forced method not derivable");
      return std::optional<RewriteResult>();
    }
  } else if (options.use_cost_model) {
    // Tentpole path: price every (view, method) alternative against the
    // live statistics and against recomputing from the base table
    // (paper §7: neither MaxOA nor MinOA dominates).
    const ViewStatsFn stats_fn = [this, &options](const SequenceViewDef& v) {
      PatternStats stats = StatsForView(v);
      stats.vector_exec = options.vector_exec;
      return stats;
    };
    CostEstimate chosen_cost;
    std::vector<CandidateVerdict> verdicts;
    Result<DerivationChoice> r = ChooseDerivationByCost(
        candidates, *query, stats_fn, &chosen_cost, &verdicts);
    CountCostCandidates(verdicts.size());
    bool any_stale = false;
    for (const SequenceViewDef* v : candidates) {
      any_stale |= StatsForView(*v).stale;
    }
    if (any_stale) CountStaleStats();
    PatternStats base_stats = StatsForView(*candidates.front());
    base_stats.vector_exec = options.vector_exec;
    const CostEstimate baseline =
        EstimateSelfJoinRecomputeCost(query->window, base_stats);
    if (decision != nullptr) {
      decision->verdicts = std::move(verdicts);
      decision->baseline = baseline;
    }
    if (!r.ok()) {
      if (span.active()) span.AddArg("verdict", "no derivable candidate");
      if (decision != nullptr) decision->summary = "none (no derivable candidate)";
      return std::optional<RewriteResult>();
    }
    if (chosen_cost.total > kRewriteCostBias * baseline.total) {
      CountCostDecision("no-rewrite");
      const std::string why =
          std::string("none (recompute estimated cheaper: baseline ") +
          baseline.Summary() + " vs best " + chosen_cost.Summary() + ")";
      if (span.active()) span.AddArg("verdict", why);
      if (decision != nullptr) decision->summary = why;
      RFV_LOG(kInfo) << "rewrite declined by cost model: " << why;
      return std::optional<RewriteResult>();
    }
    CountCostDecision(DerivationMethodName(r->method));
    choice = std::move(*r);
    chosen_cost_out = chosen_cost;
  } else {
    Result<DerivationChoice> r = ChooseDerivation(candidates, *query);
    if (!r.ok()) {
      if (span.active()) span.AddArg("verdict", "no derivable candidate");
      return std::optional<RewriteResult>();
    }
    choice = std::move(*r);
  }

  const SequenceViewDef& view = *choice.view;
  const bool union_variant = options.variant == RewriteVariant::kUnion;
  std::string sql;
  switch (choice.method) {
    case DerivationMethod::kDirect:
      if (!query->partition_columns.empty()) {
        sql = PartitionedDirectSql(view.view_name, view.base_table,
                                   view.partition_columns,
                                   view.order_column);
      } else {
        sql = DirectViewSql(view.view_name, view.n);
      }
      break;
    case DerivationMethod::kCumulativeDiff:
      if (query->window.is_sliding()) {
        sql = SlidingFromCumulativeViewSql(view.view_name, query->window,
                                           view.n);
      } else {
        sql = DirectViewSql(view.view_name, view.n);
      }
      break;
    case DerivationMethod::kMaxoa:
      sql = MaxoaSql(view.view_name, choice.maxoa, view.n, union_variant);
      break;
    case DerivationMethod::kMinoa:
      if (query->window.is_cumulative()) {
        sql = MinoaCumulativeSql(view.view_name, view.window, view.n);
      } else {
        sql = MinoaSql(view.view_name, choice.minoa, view.n, union_variant);
      }
      break;
    case DerivationMethod::kMinMaxCover:
      sql = MinMaxCoverSql(view.view_name, view.fn == SeqAggFn::kMin,
                           query->window.l() - view.window.l(),
                           query->window.h() - view.window.h(), view.n);
      break;
    case DerivationMethod::kCountTrivial:
      return Status::Internal("COUNT rewrites are handled before matching");
  }
  if (query->is_avg) {
    sql = WrapAvgSql(sql, query->window, view.n);
  }
  if (wants_order) {
    // Order by the partition columns then the position (all ordinals).
    sql += " ORDER BY ";
    for (size_t i = 0; i <= query->partition_columns.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += std::to_string(i + 1);
    }
  }
  RewriteResult result;
  result.sql = std::move(sql);
  result.choice = choice;
  if (!chosen_cost_out.has_value() && options.use_cost_model) {
    // Forced-method path: still price the pattern so EXPLAIN can show
    // the estimate next to the measured rows.
    PatternStats forced_stats = StatsForView(view);
    forced_stats.vector_exec = options.vector_exec;
    chosen_cost_out = EstimateDerivationCost(choice, *query, forced_stats);
  }
  result.cost = chosen_cost_out;
  if (decision != nullptr) {
    decision->summary = std::string(DerivationMethodName(choice.method)) +
                        " using view " + view.view_name;
    if (chosen_cost_out.has_value()) {
      decision->summary += " (est " + chosen_cost_out->Summary() + ")";
    }
  }
  CountRewriteHit(choice.method);
  if (span.active()) {
    span.AddArg("view", view.view_name);
    span.AddArg("method", DerivationMethodName(choice.method));
  }
  RFV_LOG(kInfo) << "rewrite: " << DerivationMethodName(choice.method)
                 << " using view " << view.view_name;
  return std::optional<RewriteResult>(std::move(result));
}

}  // namespace rfv
