#include "db/system_views.h"

#include <map>
#include <optional>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "sequence/window_spec.h"
#include "storage/table.h"

namespace rfv {

namespace {

/// ms-or-NULL rendering of phase timings: a phase the statement kind
/// bypassed is NULL, not 0 (0 would read as "measured, instant").
Value MsOrNull(const std::optional<int64_t>& ns) {
  if (!ns.has_value()) return Value::Null();
  return Value::Double(static_cast<double>(*ns) / 1e6);
}

Schema QueriesSchema() {
  return Schema({
      {"query_id", DataType::kInt64},
      {"sql", DataType::kString},
      {"fingerprint", DataType::kString},
      {"kind", DataType::kString},
      {"status", DataType::kString},
      {"error", DataType::kString},
      {"duration_ms", DataType::kDouble},
      {"parse_ms", DataType::kDouble},
      {"rewrite_ms", DataType::kDouble},
      {"bind_ms", DataType::kDouble},
      {"plan_ms", DataType::kDouble},
      {"execute_ms", DataType::kDouble},
      {"rows_in", DataType::kInt64},
      {"rows_out", DataType::kInt64},
      {"rewrite", DataType::kString},
      {"rewrite_view", DataType::kString},
      {"cost_estimate", DataType::kDouble},
      {"candidates", DataType::kInt64},
  });
}

Schema OperatorsSchema() {
  return Schema({
      {"query_id", DataType::kInt64},
      {"op", DataType::kString},
      {"depth", DataType::kInt64},
      {"rows_in", DataType::kInt64},
      {"rows_out", DataType::kInt64},
      {"next_calls", DataType::kInt64},
      {"vectors_out", DataType::kInt64},
      {"open_ms", DataType::kDouble},
      {"next_ms", DataType::kDouble},
      {"peak_buffered_rows", DataType::kInt64},
  });
}

Schema MetricsSchema() {
  return Schema({
      {"name", DataType::kString},
      {"labels", DataType::kString},
      {"kind", DataType::kString},
      {"count", DataType::kInt64},
      {"sum_seconds", DataType::kDouble},
      {"help", DataType::kString},
  });
}

Schema ViewsSchema() {
  return Schema({
      {"view_name", DataType::kString},
      {"base_table", DataType::kString},
      {"value_column", DataType::kString},
      {"order_column", DataType::kString},
      {"partition_columns", DataType::kString},
      {"fn", DataType::kString},
      {"window_spec", DataType::kString},
      {"n", DataType::kInt64},
      {"indexed", DataType::kBool},
      {"derived", DataType::kBool},
      {"content_rows", DataType::kInt64},
      {"full_refreshes", DataType::kInt64},
      {"incremental_updates", DataType::kInt64},
      {"maintenance_rows", DataType::kInt64},
  });
}

Schema TableStatsSchema() {
  return Schema({
      {"table_name", DataType::kString},
      {"column_name", DataType::kString},
      {"column_type", DataType::kString},
      {"row_count", DataType::kInt64},
      {"non_null_count", DataType::kInt64},
      {"null_count", DataType::kInt64},
      {"distinct_count", DataType::kInt64},
      {"min_value", DataType::kDouble},
      {"max_value", DataType::kDouble},
      {"stale", DataType::kBool},
      {"analyze_count", DataType::kInt64},
      {"dml_since_analyze", DataType::kInt64},
  });
}

Schema TraceSpansSchema() {
  return Schema({
      {"trace_id", DataType::kInt64},
      {"name", DataType::kString},
      {"depth", DataType::kInt64},
      {"start_us", DataType::kInt64},
      {"dur_us", DataType::kInt64},
      {"args", DataType::kString},
  });
}

}  // namespace

std::vector<std::string> SystemViewProvider::VirtualTableNames() const {
  return {"metrics",     "operators",   "queries",
          "table_stats", "trace_spans", "views"};
}

Result<Schema> SystemViewProvider::VirtualTableSchema(
    const std::string& table) const {
  if (table == "queries") return QueriesSchema();
  if (table == "operators") return OperatorsSchema();
  if (table == "metrics") return MetricsSchema();
  if (table == "views") return ViewsSchema();
  if (table == "table_stats") return TableStatsSchema();
  if (table == "trace_spans") return TraceSpansSchema();
  return Status::NotFound(std::string(kSchemaName) + "." + table +
                          " is not a system view");
}

Result<std::vector<Row>> SystemViewProvider::MaterializeVirtualTable(
    const std::string& table) const {
  if (table == "queries") return QueriesRows();
  if (table == "operators") return OperatorsRows();
  if (table == "metrics") return MetricsRows();
  if (table == "views") return ViewsRows();
  if (table == "table_stats") return TableStatsRows();
  if (table == "trace_spans") return TraceSpansRows();
  return Status::NotFound(std::string(kSchemaName) + "." + table +
                          " is not a system view");
}

std::vector<Row> SystemViewProvider::QueriesRows() const {
  std::vector<Row> rows;
  for (const QueryEvent& e : query_log_->Snapshot()) {
    std::map<std::string, int64_t> phases(e.phase_ns.begin(),
                                          e.phase_ns.end());
    const auto phase = [&phases](const char* name) -> std::optional<int64_t> {
      const auto it = phases.find(name);
      if (it == phases.end()) return std::nullopt;
      return it->second;
    };
    Row row;
    row.Append(Value::Int(e.query_id));
    row.Append(Value::String(e.sql));
    row.Append(Value::String(e.fingerprint));
    row.Append(Value::String(e.kind));
    row.Append(Value::String(e.status));
    row.Append(Value::String(e.error));
    row.Append(Value::Double(static_cast<double>(e.duration_ns) / 1e6));
    row.Append(MsOrNull(phase("parse")));
    row.Append(MsOrNull(phase("rewrite")));
    row.Append(MsOrNull(phase("bind")));
    row.Append(MsOrNull(phase("plan")));
    row.Append(MsOrNull(phase("execute")));
    row.Append(Value::Int(e.rows_in));
    row.Append(Value::Int(e.rows_out));
    row.Append(Value::String(e.rewrite));
    row.Append(Value::String(e.rewrite_view));
    row.Append(e.cost_estimate < 0 ? Value::Null()
                                   : Value::Double(e.cost_estimate));
    row.Append(Value::Int(static_cast<int64_t>(e.candidates.size())));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> SystemViewProvider::OperatorsRows() const {
  std::vector<Row> rows;
  for (const QueryEvent& e : query_log_->Snapshot()) {
    for (const QueryEventOperator& o : e.operators) {
      Row row;
      row.Append(Value::Int(e.query_id));
      row.Append(Value::String(o.op));
      row.Append(Value::Int(o.depth));
      row.Append(Value::Int(o.rows_in));
      row.Append(Value::Int(o.rows_out));
      row.Append(Value::Int(o.next_calls));
      row.Append(Value::Int(o.vectors_out));
      row.Append(Value::Double(o.open_ms));
      row.Append(Value::Double(o.next_ms));
      row.Append(Value::Int(o.peak_buffered_rows));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<Row> SystemViewProvider::MetricsRows() const {
  std::vector<Row> rows;
  for (const MetricSnapshot& m : MetricsRegistry::Global().Snapshot()) {
    Row row;
    row.Append(Value::String(m.name));
    row.Append(Value::String(m.labels));
    row.Append(Value::String(
        m.kind == MetricSnapshot::Kind::kCounter ? "counter" : "histogram"));
    row.Append(Value::Int(m.count));
    row.Append(m.kind == MetricSnapshot::Kind::kHistogram
                   ? Value::Double(m.sum_seconds)
                   : Value::Null());
    row.Append(Value::String(m.help));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> SystemViewProvider::ViewsRows() const {
  std::vector<Row> rows;
  for (const auto& v : views_->views()) {
    std::string partition_columns;
    for (const std::string& c : v->partition_columns) {
      if (!partition_columns.empty()) partition_columns += ",";
      partition_columns += c;
    }
    int64_t content_rows = 0;
    const Result<Table*> content = catalog_->GetTable(v->view_name);
    if (content.ok()) {
      content_rows = static_cast<int64_t>((*content)->NumRows());
    }
    const ViewMaintenanceCounters counters =
        views_->MaintenanceCounters(v->view_name);
    Row row;
    row.Append(Value::String(v->view_name));
    row.Append(Value::String(v->base_table));
    row.Append(Value::String(v->value_column));
    row.Append(Value::String(v->order_column));
    row.Append(Value::String(partition_columns));
    row.Append(Value::String(SeqAggFnName(v->fn)));
    row.Append(Value::String(v->window.ToString()));
    row.Append(Value::Int(v->n));
    row.Append(Value::Bool(v->indexed));
    row.Append(Value::Bool(v->derived));
    row.Append(Value::Int(content_rows));
    row.Append(Value::Int(counters.full_refreshes));
    row.Append(Value::Int(counters.incremental_updates));
    row.Append(Value::Int(counters.rows_written));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> SystemViewProvider::TableStatsRows() const {
  std::vector<Row> rows;
  for (const std::string& name : catalog_->TableNames()) {
    const Result<Table*> table = catalog_->GetTable(name);
    if (!table.ok()) continue;
    const Schema& schema = (*table)->schema();
    const TableStats stats = (*table)->StatsSnapshot();
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      // TableStats::columns tracks the schema lazily; missing entries
      // mean "no detail yet", which renders the same as empty stats.
      const ColumnStats col =
          c < stats.columns.size() ? stats.columns[c] : ColumnStats{};
      Row row;
      row.Append(Value::String(name));
      row.Append(Value::String(schema.column(c).name));
      row.Append(Value::String(DataTypeName(schema.column(c).type)));
      row.Append(Value::Int(stats.row_count));
      row.Append(Value::Int(col.non_null_count));
      row.Append(Value::Int(col.null_count));
      row.Append(col.distinct_count < 0 ? Value::Null()
                                        : Value::Int(col.distinct_count));
      row.Append(col.has_range ? Value::Double(col.min_value) : Value::Null());
      row.Append(col.has_range ? Value::Double(col.max_value) : Value::Null());
      row.Append(Value::Bool(col.stale));
      row.Append(Value::Int(stats.analyze_count));
      row.Append(Value::Int(stats.dml_since_analyze));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<Row> SystemViewProvider::TraceSpansRows() const {
  std::vector<Row> rows;
  for (const auto& trace : Tracer::Global().Retired()) {
    for (const TraceEvent& e : trace->events()) {
      std::string args;
      for (const auto& [key, value] : e.args) {
        if (!args.empty()) args += " ";
        args += key + "=" + value;
      }
      Row row;
      row.Append(Value::Int(trace->id()));
      row.Append(Value::String(e.name));
      row.Append(Value::Int(e.depth));
      row.Append(Value::Int(e.start_us));
      row.Append(Value::Int(e.dur_us));
      row.Append(Value::String(std::move(args)));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace rfv
