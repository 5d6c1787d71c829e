#include "layers.h"

#include <algorithm>
#include <optional>

#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "view/maintenance.h"

namespace whbench {

using rfv::Database;
using rfv::Result;
using rfv::ResultSet;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStatement: return "statement";
    case Layer::kParser: return "parser";
    case Layer::kRewrite: return "rewrite";
    case Layer::kBind: return "plan.bind";
    case Layer::kOptimize: return "plan.optimize";
    case Layer::kBuild: return "exec.build";
    case Layer::kRun: return "exec.run";
    case Layer::kDml: return "storage.dml";
    case Layer::kMaintain: return "view.maintain";
    case Layer::kCount: break;
  }
  return "unknown";
}

int SpanLog::Open(int64_t stmt, Layer layer, int parent) {
  Span s;
  s.stmt = stmt;
  s.parent = parent;
  s.layer = layer;
  s.start_ns = Since(Clock::now());
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = Since(Clock::now());
}

void SpanLog::Add(int64_t stmt, Layer layer, int parent,
                  Clock::time_point start, Clock::time_point end) {
  Span s;
  s.stmt = stmt;
  s.parent = parent;
  s.layer = layer;
  s.start_ns = Since(start);
  s.end_ns = Since(end);
  spans_.push_back(s);
}

void LayerCounts::Merge(const LayerCounts& o) {
  selects += o.selects;
  parses += o.parses;
  recognizable += o.recognizable;
  rewrites += o.rewrites;
  candidates += o.candidates;
  sql_bytes += o.sql_bytes;
  qerror_max = std::max(qerror_max, o.qerror_max);
  scan_rows += o.scan_rows;
  result_rows += o.result_rows;
  for (const auto& [name, totals] : o.operators) {
    operators[name].self_ns += totals.self_ns;
    operators[name].rows_out += totals.rows_out;
  }
  dml += o.dml;
  dml_minus_parse_ns += o.dml_minus_parse_ns;
  maintains += o.maintains;
  maintain_rows += o.maintain_rows;
}

namespace {

/// Harvests operator self times, q-error and scan rows from one plan's
/// pre-order metrics. Self time is the inclusive open+next time minus the
/// inclusive times of the direct children (entries one level deeper
/// before the next entry at this depth or above).
void CountOperators(const std::vector<rfv::OperatorMetricsEntry>& entries,
                    LayerCounts* counts) {
  const auto inclusive = [](const rfv::OperatorMetricsEntry& e) {
    return e.metrics.open_ns + e.metrics.next_ns;
  };
  for (size_t i = 0; i < entries.size(); ++i) {
    const rfv::OperatorMetricsEntry& e = entries[i];
    int64_t children_ns = 0;
    for (size_t j = i + 1; j < entries.size() && entries[j].depth > e.depth;
         ++j) {
      if (entries[j].depth == e.depth + 1) children_ns += inclusive(entries[j]);
    }
    OperatorTotals& totals = counts->operators[e.name];
    totals.self_ns += std::max<int64_t>(inclusive(e) - children_ns, 0);
    totals.rows_out += e.metrics.rows_out;
    if (e.name == "scan") counts->scan_rows += e.metrics.rows_out;
    if (e.est_rows >= 0) {
      const double est = std::max(e.est_rows, 1.0);
      const double actual =
          std::max(static_cast<double>(e.metrics.rows_out), 1.0);
      counts->qerror_max =
          std::max(counts->qerror_max, std::max(est / actual, actual / est));
    }
  }
}

}  // namespace

Result<ResultSet> ReplaySelect(Database* db, const Database::Options& options,
                               const std::string& sql, SelectStages* stages,
                               SpanLog* spans, int64_t stmt, int parent,
                               LayerCounts* counts) {
  *stages = SelectStages();
  // Times one public call, recording it as a span when tracing.
  const auto timed = [&](Layer layer, int64_t* ns, const auto& call) {
    const Clock::time_point start = Clock::now();
    auto result = call();
    const Clock::time_point end = Clock::now();
    if (ns != nullptr) *ns = ElapsedNs(start, end);
    if (spans != nullptr) spans->Add(stmt, layer, parent, start, end);
    return result;
  };

  Result<rfv::Statement> parsed = timed(
      Layer::kParser, nullptr, [&] { return rfv::Parser::ParseStatement(sql); });
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != rfv::Statement::Kind::kSelect) {
    return rfv::Status::InvalidArgument("not a SELECT: " + sql);
  }
  const rfv::SelectStmt* select = parsed->select.get();
  int64_t parses = 1;

  std::optional<rfv::Statement> rewritten;
  rfv::RewriteDecision decision;
  if (options.enable_view_rewrite) {
    rfv::RewriteOptions rewrite_options;
    rewrite_options.variant = options.rewrite_variant;
    rewrite_options.force_method = options.force_method;
    rewrite_options.use_cost_model = options.use_cost_model;
    rewrite_options.vector_exec = options.exec.use_vectorized_execution;
    Result<std::optional<rfv::RewriteResult>> rewrite =
        timed(Layer::kRewrite, nullptr, [&] {
          return db->rewriter().TryRewrite(*select, rewrite_options, &decision);
        });
    if (!rewrite.ok()) return rewrite.status();
    if (rewrite->has_value()) {
      const std::string& pattern_sql = (*rewrite)->sql;
      Result<rfv::Statement> reparsed =
          timed(Layer::kParser, &stages->reparse_ns,
                [&] { return rfv::Parser::ParseStatement(pattern_sql); });
      if (!reparsed.ok()) return reparsed.status();
      if (reparsed->kind != rfv::Statement::Kind::kSelect) {
        return rfv::Status::Internal("rewriter produced a non-SELECT");
      }
      rewritten = std::move(reparsed).value();
      select = rewritten->select.get();
      stages->rewritten = true;
      ++parses;
      if (counts != nullptr) {
        counts->sql_bytes += static_cast<int64_t>(pattern_sql.size());
      }
    }
  }

  rfv::Binder binder(db->catalog());
  Result<rfv::LogicalPlanPtr> bound = timed(
      Layer::kBind, &stages->bind_ns, [&] { return binder.BindSelect(*select); });
  if (!bound.ok()) return bound.status();
  rfv::LogicalPlanPtr plan = std::move(bound).value();
  plan = timed(Layer::kOptimize, &stages->optimize_ns, [&] {
    rfv::LogicalPlanPtr optimized = rfv::OptimizePlan(std::move(plan));
    rfv::EstimateCardinality(optimized.get());
    return optimized;
  });
  Result<rfv::PhysicalOperatorPtr> root = timed(
      Layer::kBuild, &stages->build_ns,
      [&] { return rfv::BuildPhysicalPlan(*plan, options.exec); });
  if (!root.ok()) return root.status();
  Result<std::vector<rfv::Row>> rows = timed(Layer::kRun, &stages->run_ns, [&] {
    return rfv::ExecuteToVector(root->get(), options.exec.use_batch_execution);
  });
  if (!rows.ok()) return rows.status();

  ResultSet rs(plan->schema, std::move(rows).value());
  if (counts != nullptr) {
    ++counts->selects;
    counts->parses += parses;
    bool wants_order = false;
    if (rfv::Rewriter::RecognizeSimpleWindowQuery(*parsed->select,
                                                  &wants_order)) {
      ++counts->recognizable;
    }
    if (stages->rewritten) ++counts->rewrites;
    counts->candidates += static_cast<int64_t>(decision.verdicts.size());
    counts->result_rows += static_cast<int64_t>(rs.NumRows());
    CountOperators(rfv::CollectMetrics(**root), counts);
  }
  return rs;
}

Result<size_t> Maintain(Database* db, const Op& op, SpanLog* spans,
                        int64_t stmt, int parent) {
  Result<rfv::Table*> base = db->catalog()->GetTable(op.base_table);
  if (!base.ok()) return base.status();
  Result<rfv::Table*> content = db->catalog()->GetTable(op.view_table);
  if (!content.ok()) return content.status();
  rfv::Table::WriteGuard base_guard(*base);
  rfv::Table::WriteGuard content_guard(*content);
  const Clock::time_point start = Clock::now();
  Result<size_t> written = rfv::PropagateBaseUpdate(
      db->view_manager(), op.base_table, op.position, op.value);
  if (spans != nullptr) {
    spans->Add(stmt, Layer::kMaintain, parent, start, Clock::now());
  }
  return written;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<int64_t> self_ns(static_cast<size_t>(Layer::kCount), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ns[static_cast<size_t>(spans[i].layer)] +=
        spans[i].end_ns - spans[i].start_ns - covered[i];
  }
  return self_ns;
}

}  // namespace whbench
