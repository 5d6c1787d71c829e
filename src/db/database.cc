#include "db/database.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "expr/eval.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/cardinality.h"
#include "plan/planner.h"

namespace rfv {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// The workload event the innermost Execute() on this thread is
/// building; ExecuteSelect fills its rewrite candidates through this.
/// Thread-local so concurrent sessions never share an event.
thread_local QueryEvent* tls_active_event = nullptr;

int64_t ElapsedNs(SteadyClock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - since)
      .count();
}

/// Wraps multi-line explain text into a one-column result, one row per
/// line (readable in the shell's table rendering).
ResultSet TextToResultSet(const std::string& text) {
  Schema schema;
  schema.AddColumn(ColumnDef("plan", DataType::kString));
  std::vector<Row> rows;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? std::string::npos
                                                    : end - start);
    if (!line.empty()) rows.push_back(Row({Value::String(line)}));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return ResultSet(std::move(schema), std::move(rows));
}

/// Renders the rewriter's decision record for plain EXPLAIN: the
/// outcome line, one line per (view, method) alternative with its cost
/// estimate (or not-derivable reason), and the recompute baseline.
std::string FormatRewriteDecision(const RewriteDecision& decision) {
  std::string text = "Rewrite: " + decision.summary + "\n";
  for (const CandidateVerdict& v : decision.verdicts) {
    text += "  candidate " + v.view_name;
    if (v.derivable) {
      text += " via " + std::string(DerivationMethodName(v.method));
      if (!v.detail.empty()) text += ": " + v.detail;
      if (v.chosen) text += " (chosen)";
    } else {
      text += ": " + v.detail;
    }
    text += "\n";
  }
  if (decision.baseline.has_value()) {
    text += "  baseline recompute: " + decision.baseline->Summary() + "\n";
  }
  return text;
}

bool IsConstExpr(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return false;
  for (const auto& child : e.children) {
    if (!IsConstExpr(*child)) return false;
  }
  return true;
}

/// How UPDATE/DELETE locate their target rows: an ordered-index probe
/// when a sargable conjunct (col = const, col <op> const, col BETWEEN
/// const AND const) covers an indexed column, else a sequential scan.
/// Index candidates are a superset for range probes; the caller must
/// re-check the full predicate on each candidate row.
struct DmlScanChoice {
  bool used_index = false;
  std::string description = "seq scan";
  std::vector<size_t> candidates;  ///< sorted row ids; only when used_index
};

Result<DmlScanChoice> ChooseDmlScan(Table* table, const Expr* where) {
  DmlScanChoice choice;
  if (where == nullptr) return choice;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(where->Clone(), &conjuncts);
  const Row empty_row;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kBinary) {
      BinaryOp op = c->binary_op;
      if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
          op != BinaryOp::kGt && op != BinaryOp::kGe) {
        continue;
      }
      const Expr* col = nullptr;
      const Expr* constant = nullptr;
      if (c->children[0]->kind == ExprKind::kColumnRef &&
          IsConstExpr(*c->children[1])) {
        col = c->children[0].get();
        constant = c->children[1].get();
      } else if (c->children[1]->kind == ExprKind::kColumnRef &&
                 IsConstExpr(*c->children[0])) {
        col = c->children[1].get();
        constant = c->children[0].get();
        // Mirror the comparison so `op` reads as <col> op <const>.
        switch (op) {
          case BinaryOp::kLt: op = BinaryOp::kGt; break;
          case BinaryOp::kLe: op = BinaryOp::kGe; break;
          case BinaryOp::kGt: op = BinaryOp::kLt; break;
          case BinaryOp::kGe: op = BinaryOp::kLe; break;
          default: break;
        }
      } else {
        continue;
      }
      OrderedIndex* index = table->GetIndexOnColumn(col->column_index);
      if (index == nullptr) continue;
      Value key;
      RFV_ASSIGN_OR_RETURN(key, Evaluator::Eval(*constant, empty_row));
      if (op == BinaryOp::kEq) {
        choice.candidates = index->Lookup(key);
      } else if (op == BinaryOp::kLt || op == BinaryOp::kLe) {
        // Inclusive range; strict bounds over-approximate and rely on
        // the predicate re-check.
        choice.candidates =
            index->LookupRange(Value::Null(), false, key, true);
      } else {
        choice.candidates =
            index->LookupRange(key, true, Value::Null(), false);
      }
      choice.used_index = true;
      choice.description =
          "index probe " + index->name() + " on " + c->ToString();
      std::sort(choice.candidates.begin(), choice.candidates.end());
      return choice;
    }
    if (c->kind == ExprKind::kBetween &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        IsConstExpr(*c->children[1]) && IsConstExpr(*c->children[2])) {
      OrderedIndex* index =
          table->GetIndexOnColumn(c->children[0]->column_index);
      if (index == nullptr) continue;
      Value lo;
      RFV_ASSIGN_OR_RETURN(lo, Evaluator::Eval(*c->children[1], empty_row));
      Value hi;
      RFV_ASSIGN_OR_RETURN(hi, Evaluator::Eval(*c->children[2], empty_row));
      choice.used_index = true;
      choice.candidates = index->LookupRange(lo, true, hi, true);
      choice.description =
          "index probe " + index->name() + " on " + c->ToString();
      std::sort(choice.candidates.begin(), choice.candidates.end());
      return choice;
    }
  }
  return choice;
}

const char* StatementKindName(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect: return "select";
    case Statement::Kind::kCreateTable: return "create_table";
    case Statement::Kind::kCreateIndex: return "create_index";
    case Statement::Kind::kInsert: return "insert";
    case Statement::Kind::kUpdate: return "update";
    case Statement::Kind::kDelete: return "delete";
    case Statement::Kind::kCreateView: return "create_view";
    case Statement::Kind::kDropTable: return "drop_table";
    case Statement::Kind::kAnalyze: return "analyze";
    case Statement::Kind::kExplain: return "explain";
  }
  return "unknown";
}

/// Finalizes the workload record of one Execute call from its result.
void FillEventFromResult(const ResultSet& rs, QueryEvent* event) {
  event->phase_ns = rs.phase_ns();
  event->rows_out = rs.is_query() ? static_cast<int64_t>(rs.NumRows())
                                  : std::max<int64_t>(rs.affected(), 0);
  for (const OperatorMetricsEntry& entry : rs.metrics()) {
    if (entry.name == "scan") event->rows_in += entry.metrics.rows_out;
    QueryEventOperator op;
    op.op = entry.name;
    op.depth = entry.depth;
    op.rows_in = entry.rows_in;
    op.rows_out = entry.metrics.rows_out;
    op.next_calls = entry.metrics.next_calls;
    op.batches_out = entry.metrics.batches_out;
    op.open_ms = static_cast<double>(entry.metrics.open_ns) / 1e6;
    op.next_ms = static_cast<double>(entry.metrics.next_ns) / 1e6;
    op.peak_buffered_rows = entry.metrics.peak_buffered_rows;
    event->operators.push_back(std::move(op));
  }
  if (!rs.rewrite_method().empty()) {
    event->rewrite = rs.rewrite_method();
    event->rewrite_view = rs.rewrite_view();
  }
}

}  // namespace

std::string Database::MetricsText() {
  return MetricsRegistry::Global().ToPrometheusText();
}

Status Database::ExportWorkload(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  out << query_log_.ToJsonl();
  out.close();
  if (!out) return Status::ExecutionError("failed writing " + path);
  return Status::OK();
}

Result<ResultSet> Database::Execute(const std::string& sql) {
  return Execute(sql, options_);
}

Result<ResultSet> Database::Execute(const std::string& sql,
                                    const Options& options) {
  static Counter* queries = MetricsRegistry::Global().GetCounter(
      "rfv_queries_executed_total", {},
      "SQL statements submitted through Database::Execute");
  static Counter* failures = MetricsRegistry::Global().GetCounter(
      "rfv_queries_failed_total", {},
      "SQL statements that returned a non-OK status");
  static Histogram* latency = MetricsRegistry::Global().GetHistogram(
      "rfv_query_duration_seconds", {},
      "End-to-end Database::Execute latency");

  // Queue for an admission slot before any work (including parsing):
  // the cap bounds total execution concurrency, and the latency clock
  // deliberately starts after admission so tail latencies measure
  // execution, not queueing (queueing has its own histogram).
  AdmissionController::Ticket ticket = admission_.Admit();

  const SteadyClock::time_point started = SteadyClock::now();
  std::shared_ptr<QueryTrace> trace;
  std::optional<ScopedTraceAttach> attach;
  if (options.enable_tracing) {
    trace = Tracer::Global().StartQuery();
    attach.emplace(trace.get());
  }

  QueryEvent event;
  event.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  event.sql = sql;
  event.fingerprint = NormalizeFingerprint(sql);
  QueryEvent* const previous_event = tls_active_event;
  tls_active_event = &event;

  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    TraceSpan query_span("query");
    if (query_span.active()) query_span.AddArg("sql", sql);
    Statement stmt;
    int64_t parse_ns = 0;
    {
      TraceSpan parse_span("parse");
      const SteadyClock::time_point parse_start = SteadyClock::now();
      RFV_ASSIGN_OR_RETURN(stmt, Parser::ParseStatement(sql));
      parse_ns = ElapsedNs(parse_start);
    }
    event.kind = StatementKindName(stmt);
    Result<ResultSet> r = ExecuteStatement(stmt, options);
    if (r.ok()) {
      std::vector<std::pair<std::string, int64_t>> phases;
      phases.emplace_back("parse", parse_ns);
      for (const auto& phase : r->phase_ns()) phases.push_back(phase);
      r->SetPhaseNs(std::move(phases));
    }
    return r;
  }();
  tls_active_event = previous_event;

  queries->Increment();
  if (!result.ok()) {
    failures->Increment();
    RFV_LOG(kDebug) << "query failed: " << result.status().ToString();
  }
  latency->Observe(static_cast<double>(ElapsedNs(started)) / 1e9);
  if (trace != nullptr) {
    attach.reset();  // detach before the trace becomes shared/const
    if (result.ok()) result->SetTrace(trace);
    Tracer::Global().Retire(std::move(trace));
  }

  event.duration_ns = ElapsedNs(started);
  if (result.ok()) {
    event.status = "ok";
    FillEventFromResult(*result, &event);
  } else {
    if (event.kind.empty()) event.kind = "error";
    event.status = StatusCodeName(result.status().code());
    event.error = result.status().message();
  }
  query_log_.Append(std::move(event));
  return result;
}

Status Database::ExecuteScript(const std::string& sql) {
  std::vector<Statement> statements;
  RFV_ASSIGN_OR_RETURN(statements, Parser::ParseScript(sql));
  for (const Statement& stmt : statements) {
    Result<ResultSet> r = ExecuteStatement(stmt, options_);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Result<std::string> Database::Explain(const std::string& sql) {
  Statement stmt;
  RFV_ASSIGN_OR_RETURN(stmt, Parser::ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::NotSupported("EXPLAIN supports SELECT statements only");
  }
  Binder binder(&catalog_);
  LogicalPlanPtr plan;
  RFV_ASSIGN_OR_RETURN(plan, binder.BindSelect(*stmt.select));
  plan = OptimizePlan(std::move(plan));
  EstimateCardinality(plan.get());
  return plan->ToString();
}

Result<ResultSet> Database::ExecuteStatement(const Statement& stmt,
                                             const Options& options) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(*stmt.select, /*allow_rewrite=*/true, options);
    case Statement::Kind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case Statement::Kind::kCreateIndex:
      return ExecuteCreateIndex(*stmt.create_index);
    case Statement::Kind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case Statement::Kind::kDelete:
      return ExecuteDelete(*stmt.del);
    case Statement::Kind::kCreateView:
      return ExecuteCreateView(*stmt.create_view, options);
    case Statement::Kind::kDropTable:
      return ExecuteDropTable(*stmt.drop_table);
    case Statement::Kind::kAnalyze:
      return ExecuteAnalyze(*stmt.analyze);
    case Statement::Kind::kExplain:
      return ExecuteExplain(stmt, options);
  }
  return Status::Internal("unreachable statement kind");
}

Result<ResultSet> Database::ExecuteExplain(const Statement& stmt,
                                           const Options& options) {
  if (stmt.explained_kind != Statement::Kind::kSelect) {
    std::string text;
    RFV_ASSIGN_OR_RETURN(text, ExplainDml(stmt));
    return TextToResultSet(text);
  }
  if (stmt.explain_analyze) {
    // EXPLAIN ANALYZE SELECT: execute for real, then render phase
    // timings, the rewrite decision, and the measured operator tree.
    TraceSpan span("explain.analyze");
    ResultSet executed;
    RFV_ASSIGN_OR_RETURN(
        executed,
        ExecuteSelect(*stmt.select, /*allow_rewrite=*/true, options));
    std::string text = "EXPLAIN ANALYZE (" +
                       std::to_string(executed.NumRows()) + " rows)\n";
    const std::string phases = executed.PhasesToString();
    if (!phases.empty()) text += phases + "\n";
    if (!executed.rewrite_method().empty()) {
      text += "rewrite: " + executed.rewrite_method() + " using view " +
              executed.rewrite_view() + "\n";
    } else {
      text += "rewrite: none\n";
    }
    text += executed.MetricsTreeToString();
    ResultSet rs = TextToResultSet(text);
    rs.SetMetrics(executed.metrics());
    rs.SetPhaseNs(executed.phase_ns());
    rs.SetRewriteInfo(executed.rewrite_method(), executed.rewrite_view(),
                      executed.rewritten_sql());
    return rs;
  }
  // Plain EXPLAIN SELECT: the optimized logical plan — preceded by the
  // rewrite decision whenever the statement was a recognizable window
  // query, including when the verdict was "no rewrite" (the
  // per-candidate record prints without tracing enabled).
  std::string text;
  if (options.enable_view_rewrite) {
    RewriteOptions rewrite_options;
    rewrite_options.variant = options.rewrite_variant;
    rewrite_options.force_method = options.force_method;
    rewrite_options.use_cost_model = options.use_cost_model;
    rewrite_options.vector_exec = options.exec.use_vectorized_execution;
    RewriteDecision decision;
    std::optional<RewriteResult> rewrite;
    RFV_ASSIGN_OR_RETURN(rewrite, rewriter_.TryRewrite(*stmt.select,
                                                       rewrite_options,
                                                       &decision));
    if (!decision.summary.empty()) {
      text += FormatRewriteDecision(decision);
    } else if (rewrite.has_value()) {
      // Forced-method / static-order paths fill no decision record.
      text += "Rewrite: " +
              std::string(DerivationMethodName(rewrite->choice.method)) +
              " using view " + rewrite->choice.view->view_name + "\n";
    }
    if (rewrite.has_value()) text += rewrite->sql + "\n";
  }
  Binder binder(&catalog_);
  LogicalPlanPtr plan;
  RFV_ASSIGN_OR_RETURN(plan, binder.BindSelect(*stmt.select));
  plan = OptimizePlan(std::move(plan));
  EstimateCardinality(plan.get());
  text += plan->ToString();
  return TextToResultSet(text);
}

Result<std::string> Database::ExplainDml(const Statement& stmt) {
  std::string text;
  switch (stmt.explained_kind) {
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      Result<Table*> table = catalog_.GetTable(ins.table_name);
      if (!table.ok()) return table.status();
      text = "insert into " + ToLower(ins.table_name) + "\n  rows: " +
             std::to_string(ins.rows.size()) + "\n  columns: ";
      if (ins.columns.empty()) {
        text += "(positional)";
      } else {
        for (size_t i = 0; i < ins.columns.size(); ++i) {
          text += (i == 0 ? "" : ", ") + ToLower(ins.columns[i]);
        }
      }
      text += "\n";
      break;
    }
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete: {
      const bool is_update = stmt.explained_kind == Statement::Kind::kUpdate;
      const std::string& table_name =
          is_update ? stmt.update->table_name : stmt.del->table_name;
      const AstExpr* where_ast =
          is_update ? stmt.update->where.get() : stmt.del->where.get();
      Result<Table*> table_result = catalog_.GetTable(table_name);
      if (!table_result.ok()) return table_result.status();
      Table* table = *table_result;
      const Schema schema =
          table->schema().WithQualifier(ToLower(table_name));
      Binder binder(&catalog_);
      ExprPtr where;
      if (where_ast != nullptr) {
        RFV_ASSIGN_OR_RETURN(where, binder.BindScalar(*where_ast, schema));
      }
      text = (is_update ? "update " : "delete from ") + ToLower(table_name) +
             "\n";
      text += "  predicate: " +
              (where == nullptr ? std::string("none") : where->ToString()) +
              "\n";
      DmlScanChoice scan;
      RFV_ASSIGN_OR_RETURN(scan, ChooseDmlScan(table, where.get()));
      text += "  scan: " + scan.description + "\n";
      if (is_update) {
        text += "  assignments:";
        for (const auto& [name, expr] : stmt.update->assignments) {
          text += " " + ToLower(name) + "=" + expr->ToString();
        }
        text += "\n";
      }
      break;
    }
    default:
      return Status::NotSupported(
          "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE statements");
  }
  if (stmt.explain_analyze) {
    // ANALYZE on DML: execute for real and report the affected count.
    ResultSet executed;
    switch (stmt.explained_kind) {
      case Statement::Kind::kInsert:
        RFV_ASSIGN_OR_RETURN(executed, ExecuteInsert(*stmt.insert));
        break;
      case Statement::Kind::kUpdate:
        RFV_ASSIGN_OR_RETURN(executed, ExecuteUpdate(*stmt.update));
        break;
      default:
        RFV_ASSIGN_OR_RETURN(executed, ExecuteDelete(*stmt.del));
        break;
    }
    text += "  actual: " + std::to_string(executed.affected()) +
            " rows affected\n";
  }
  return text;
}

Result<ResultSet> Database::ExecuteSelect(const SelectStmt& stmt,
                                          bool allow_rewrite,
                                          const Options& options) {
  if (allow_rewrite && options.enable_view_rewrite) {
    RewriteOptions rewrite_options;
    rewrite_options.variant = options.rewrite_variant;
    rewrite_options.force_method = options.force_method;
    rewrite_options.use_cost_model = options.use_cost_model;
    rewrite_options.vector_exec = options.exec.use_vectorized_execution;
    const SteadyClock::time_point rewrite_start = SteadyClock::now();
    RewriteDecision decision;
    std::optional<RewriteResult> rewrite;
    RFV_ASSIGN_OR_RETURN(
        rewrite, rewriter_.TryRewrite(stmt, rewrite_options, &decision));
    const int64_t rewrite_ns = ElapsedNs(rewrite_start);
    // Record every (view, method) verdict into the workload event — the
    // advisor's evidence of what the rewriter considered and why. Only
    // the outermost recognizable query fills it (EXPLAIN ANALYZE and
    // CREATE VIEW reach here through the same active event).
    if (tls_active_event != nullptr && tls_active_event->candidates.empty()) {
      for (const CandidateVerdict& v : decision.verdicts) {
        QueryEventCandidate c;
        c.view = v.view_name;
        c.derivable = v.derivable;
        if (v.derivable) c.method = DerivationMethodName(v.method);
        c.chosen = v.chosen;
        if (v.cost.has_value()) c.cost = v.cost->total;
        c.detail = v.detail;
        if (v.chosen && v.cost.has_value()) {
          tls_active_event->cost_estimate = v.cost->total;
        }
        tls_active_event->candidates.push_back(std::move(c));
      }
    }
    if (rewrite.has_value()) {
      Statement rewritten;
      RFV_ASSIGN_OR_RETURN(rewritten, Parser::ParseStatement(rewrite->sql));
      if (rewritten.kind != Statement::Kind::kSelect) {
        return Status::Internal("rewriter produced a non-SELECT");
      }
      ResultSet rs;
      RFV_ASSIGN_OR_RETURN(
          rs,
          ExecuteSelect(*rewritten.select, /*allow_rewrite=*/false, options));
      rs.SetRewriteInfo(DerivationMethodName(rewrite->choice.method),
                        rewrite->choice.view->view_name, rewrite->sql);
      // The rewrite decision happened before the inner phases.
      std::vector<std::pair<std::string, int64_t>> phases;
      phases.emplace_back("rewrite", rewrite_ns);
      for (const auto& phase : rs.phase_ns()) phases.push_back(phase);
      rs.SetPhaseNs(std::move(phases));
      return rs;
    }
    // Fall through to the base-data path, keeping the miss's cost
    // visible in the phase report.
    Result<ResultSet> rs =
        ExecuteSelect(stmt, /*allow_rewrite=*/false, options);
    if (rs.ok()) {
      std::vector<std::pair<std::string, int64_t>> phases;
      phases.emplace_back("rewrite", rewrite_ns);
      for (const auto& phase : rs->phase_ns()) phases.push_back(phase);
      rs->SetPhaseNs(std::move(phases));
    }
    return rs;
  }
  Binder binder(&catalog_);
  LogicalPlanPtr plan;
  const SteadyClock::time_point bind_start = SteadyClock::now();
  {
    TraceSpan span("bind");
    RFV_ASSIGN_OR_RETURN(plan, binder.BindSelect(stmt));
  }
  const int64_t bind_ns = ElapsedNs(bind_start);
  const SteadyClock::time_point plan_start = SteadyClock::now();
  PhysicalOperatorPtr root;
  {
    TraceSpan span("plan");
    plan = OptimizePlan(std::move(plan));
    // Annotate estimates before lowering: BuildPhysicalPlan stamps each
    // node's est_rows onto its operator for EXPLAIN ANALYZE's
    // estimated-vs-actual columns.
    EstimateCardinality(plan.get());
    // Build and run the physical plan here (rather than through
    // ExecutePlan) so the operator tree survives long enough to harvest
    // its per-operator metrics into the result.
    RFV_ASSIGN_OR_RETURN(root, BuildPhysicalPlan(*plan, options.exec));
  }
  const int64_t plan_ns = ElapsedNs(plan_start);
  const SteadyClock::time_point exec_start = SteadyClock::now();
  std::vector<Row> rows;
  RFV_ASSIGN_OR_RETURN(rows, ExecuteToVector(root.get()));
  const int64_t exec_ns = ElapsedNs(exec_start);
  ResultSet rs(plan->schema, std::move(rows));
  rs.SetMetrics(CollectMetrics(*root));
  rs.SetPhaseNs({{"bind", bind_ns}, {"plan", plan_ns}, {"execute", exec_ns}});
  return rs;
}

Result<ResultSet> Database::ExecuteCreateTable(const CreateTableStmt& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  Schema schema;
  std::vector<std::string> pk_columns;
  for (const ColumnSpec& col : stmt.columns) {
    schema.AddColumn(ColumnDef(ToLower(col.name), col.type));
    if (col.primary_key) pk_columns.push_back(ToLower(col.name));
  }
  Table* table = nullptr;
  {
    Result<Table*> r = catalog_.CreateTable(stmt.table_name, std::move(schema));
    if (!r.ok()) return r.status();
    table = *r;
  }
  for (const std::string& pk : pk_columns) {
    RFV_RETURN_IF_ERROR(
        table->CreateIndex(ToLower(stmt.table_name) + "_pk_" + pk, pk));
  }
  return ResultSet::ForDml(0);
}

Result<ResultSet> Database::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (catalog_.IsVirtualName(stmt.table_name)) {
    return Status::InvalidArgument("system view " + ToLower(stmt.table_name) +
                                   " is read-only");
  }
  Result<Table*> table = catalog_.GetTable(stmt.table_name);
  if (!table.ok()) return table.status();
  RFV_RETURN_IF_ERROR((*table)->CreateIndex(ToLower(stmt.index_name),
                                            ToLower(stmt.column_name)));
  return ResultSet::ForDml(0);
}

Result<ResultSet> Database::ExecuteInsert(const InsertStmt& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (catalog_.IsVirtualName(stmt.table_name)) {
    return Status::InvalidArgument("system view " + ToLower(stmt.table_name) +
                                   " is read-only");
  }
  Result<Table*> table_result = catalog_.GetTable(stmt.table_name);
  if (!table_result.ok()) return table_result.status();
  Table* table = *table_result;
  const Schema& schema = table->schema();

  // Resolve the column list to positions (positional when omitted).
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.NumColumns(); ++i) targets.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      Result<size_t> c = schema.FindColumn("", name);
      if (!c.ok()) return c.status();
      targets.push_back(*c);
    }
  }

  Binder binder(&catalog_);
  const Schema empty_schema;
  const Row empty_row;
  int64_t inserted = 0;
  // One snapshot commit for the whole statement: concurrent readers see
  // either none or all of a multi-row INSERT.
  Table::WriteGuard guard(table);
  for (const std::vector<AstExprPtr>& row_exprs : stmt.rows) {
    if (row_exprs.size() != targets.size()) {
      return Status::InvalidArgument(
          "INSERT value count does not match column count");
    }
    std::vector<Value> values(schema.NumColumns(), Value::Null());
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      ExprPtr bound;
      RFV_ASSIGN_OR_RETURN(bound,
                           binder.BindScalar(*row_exprs[i], empty_schema));
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*bound, empty_row));
      values[targets[i]] = std::move(v);
    }
    RFV_RETURN_IF_ERROR(table->Insert(Row(std::move(values))));
    ++inserted;
  }
  return ResultSet::ForDml(inserted);
}

Result<ResultSet> Database::ExecuteUpdate(const UpdateStmt& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (catalog_.IsVirtualName(stmt.table_name)) {
    return Status::InvalidArgument("system view " + ToLower(stmt.table_name) +
                                   " is read-only");
  }
  Result<Table*> table_result = catalog_.GetTable(stmt.table_name);
  if (!table_result.ok()) return table_result.status();
  Table* table = *table_result;
  const Schema schema =
      table->schema().WithQualifier(ToLower(stmt.table_name));

  Binder binder(&catalog_);
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  for (const auto& [name, expr] : stmt.assignments) {
    Result<size_t> c = table->schema().FindColumn("", name);
    if (!c.ok()) return c.status();
    ExprPtr bound;
    RFV_ASSIGN_OR_RETURN(bound, binder.BindScalar(*expr, schema));
    assignments.emplace_back(*c, std::move(bound));
  }
  ExprPtr where;
  if (stmt.where != nullptr) {
    RFV_ASSIGN_OR_RETURN(where, binder.BindScalar(*stmt.where, schema));
  }

  // Narrow the scan through an ordered index when a sargable conjunct
  // allows it; candidates still get the full predicate re-checked.
  DmlScanChoice scan;
  RFV_ASSIGN_OR_RETURN(scan, ChooseDmlScan(table, where.get()));

  // Two-phase: evaluate first, apply second (self-referencing updates).
  std::vector<std::pair<size_t, Row>> updates;
  const size_t total =
      scan.used_index ? scan.candidates.size() : table->NumRows();
  for (size_t i = 0; i < total; ++i) {
    const size_t r = scan.used_index ? scan.candidates[i] : i;
    const Row& row = table->row(r);
    if (where != nullptr) {
      bool keep = false;
      RFV_ASSIGN_OR_RETURN(keep, Evaluator::EvalPredicate(*where, row));
      if (!keep) continue;
    }
    Row updated = row;
    for (const auto& [column, expr] : assignments) {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*expr, row));
      updated[column] = std::move(v);
    }
    updates.emplace_back(r, std::move(updated));
  }
  // Statement-granular commit: a reader never sees a half-applied
  // multi-row UPDATE.
  Table::WriteGuard guard(table);
  for (auto& [r, row] : updates) {
    RFV_RETURN_IF_ERROR(table->UpdateRow(r, std::move(row)));
  }
  return ResultSet::ForDml(static_cast<int64_t>(updates.size()));
}

Result<ResultSet> Database::ExecuteDelete(const DeleteStmt& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (catalog_.IsVirtualName(stmt.table_name)) {
    return Status::InvalidArgument("system view " + ToLower(stmt.table_name) +
                                   " is read-only");
  }
  Result<Table*> table_result = catalog_.GetTable(stmt.table_name);
  if (!table_result.ok()) return table_result.status();
  Table* table = *table_result;
  const Schema schema =
      table->schema().WithQualifier(ToLower(stmt.table_name));

  Binder binder(&catalog_);
  ExprPtr where;
  if (stmt.where != nullptr) {
    RFV_ASSIGN_OR_RETURN(where, binder.BindScalar(*stmt.where, schema));
  }
  DmlScanChoice scan;
  RFV_ASSIGN_OR_RETURN(scan, ChooseDmlScan(table, where.get()));
  std::vector<size_t> victims;
  const size_t total =
      scan.used_index ? scan.candidates.size() : table->NumRows();
  for (size_t i = 0; i < total; ++i) {
    const size_t r = scan.used_index ? scan.candidates[i] : i;
    if (where != nullptr) {
      bool hit = false;
      RFV_ASSIGN_OR_RETURN(hit,
                           Evaluator::EvalPredicate(*where, table->row(r)));
      if (!hit) continue;
    }
    victims.push_back(r);
  }
  // Delete from the back so earlier row ids stay valid; one snapshot
  // commit for the whole statement.
  Table::WriteGuard guard(table);
  for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
    RFV_RETURN_IF_ERROR(table->DeleteRow(*it));
  }
  return ResultSet::ForDml(static_cast<int64_t>(victims.size()));
}

Result<ResultSet> Database::ExecuteCreateView(const CreateViewStmt& stmt,
                                              const Options& options) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (!stmt.materialized) {
    return Status::NotSupported(
        "only MATERIALIZED views are supported (the paper's subject)");
  }
  // A sequence-view-shaped SELECT becomes a registered sequence view
  // with complete header/trailer; anything else materializes as a plain
  // snapshot table.
  bool wants_order = false;
  const std::optional<SeqQuery> seq_query =
      Rewriter::RecognizeSimpleWindowQuery(*stmt.query, &wants_order);
  if (seq_query.has_value() && !seq_query->is_avg) {
    SequenceViewDef def;
    def.view_name = ToLower(stmt.view_name);
    def.base_table = seq_query->base_table;
    def.value_column = seq_query->value_column;
    def.order_column = seq_query->order_column;
    def.partition_columns = seq_query->partition_columns;
    def.fn = seq_query->fn;
    def.window = seq_query->window;
    def.indexed = true;
    Result<const SequenceViewDef*> r = views_.CreateSequenceView(def);
    if (!r.ok()) return r.status();
    Result<Table*> content = catalog_.GetTable(def.view_name);
    if (!content.ok()) return content.status();
    return ResultSet::ForDml(static_cast<int64_t>((*content)->NumRows()));
  }

  // Generic materialization: run the query, snapshot the result.
  ResultSet rs;
  RFV_ASSIGN_OR_RETURN(
      rs, ExecuteSelect(*stmt.query, /*allow_rewrite=*/true, options));
  Schema schema;
  for (size_t i = 0; i < rs.schema().NumColumns(); ++i) {
    const ColumnDef& col = rs.schema().column(i);
    schema.AddColumn(ColumnDef(ToLower(col.name), col.type));
  }
  Table* table = nullptr;
  {
    Result<Table*> r = catalog_.CreateTable(stmt.view_name, std::move(schema));
    if (!r.ok()) return r.status();
    table = *r;
  }
  std::vector<Row> rows = rs.rows();
  // The new table is visible in the catalog from CreateTable on; the
  // bracket keeps a reader that binds it mid-fill on the empty image
  // rather than a partial one.
  Table::WriteGuard guard(table);
  RFV_RETURN_IF_ERROR(table->InsertBatch(std::move(rows)));
  return ResultSet::ForDml(static_cast<int64_t>(table->NumRows()));
}

Result<ResultSet> Database::ExecuteAnalyze(const AnalyzeStmt& stmt) {
  // ANALYZE [table]: recompute full column statistics (distinct counts,
  // exact ranges) for one table or for every catalog table — including
  // materialized view content tables, which live in the same catalog.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  TraceSpan span("analyze");
  static Counter* analyzes = MetricsRegistry::Global().GetCounter(
      "rfv_analyze_runs_total", {},
      "Tables analyzed through the ANALYZE statement");
  int64_t analyzed = 0;
  if (!stmt.table_name.empty()) {
    Result<Table*> table = catalog_.GetTable(stmt.table_name);
    if (!table.ok()) return table.status();
    (*table)->Analyze();
    ++analyzed;
  } else {
    for (const std::string& name : catalog_.TableNames()) {
      Result<Table*> table = catalog_.GetTable(name);
      if (!table.ok()) return table.status();
      (*table)->Analyze();
      ++analyzed;
    }
  }
  analyzes->Increment(analyzed);
  if (span.active()) span.AddArg("tables", std::to_string(analyzed));
  return ResultSet::ForDml(analyzed);
}

Result<ResultSet> Database::ExecuteDropTable(const DropTableStmt& stmt) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (views_.FindView(ToLower(stmt.table_name)) != nullptr) {
    RFV_RETURN_IF_ERROR(views_.DropView(stmt.table_name));
    return ResultSet::ForDml(0);
  }
  RFV_RETURN_IF_ERROR(catalog_.DropTable(stmt.table_name));
  return ResultSet::ForDml(0);
}

}  // namespace rfv
