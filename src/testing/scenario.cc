#include "testing/scenario.h"

namespace rfv {
namespace fuzzing {

const char* FuzzFnSql(FuzzFn fn) {
  switch (fn) {
    case FuzzFn::kSum: return "SUM";
    case FuzzFn::kAvg: return "AVG";
    case FuzzFn::kMin: return "MIN";
    case FuzzFn::kMax: return "MAX";
    case FuzzFn::kCount: return "COUNT";
    case FuzzFn::kCountStar: return "COUNT";
    case FuzzFn::kRank: return "RANK";
    case FuzzFn::kRowNumber: return "ROW_NUMBER";
  }
  return "?";
}

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kWindow: return "window";
    case ScenarioKind::kRewrite: return "rewrite";
    case ScenarioKind::kMaintenance: return "maintenance";
  }
  return "?";
}

std::string FuzzFrame::ToSql() const {
  if (cumulative) return "ROWS UNBOUNDED PRECEDING";
  return "ROWS BETWEEN " + std::to_string(l) + " PRECEDING AND " +
         std::to_string(h) + " FOLLOWING";
}

std::string Scenario::Id() const {
  return "seed" + std::to_string(seed) + "/iter" + std::to_string(index);
}

std::string Scenario::CreateTableSql() const {
  std::string sql = "CREATE TABLE " + table + " (";
  if (has_grp) sql += "grp INTEGER, ";
  // The primary-key index only exists where positions are unique; messy
  // window scenarios generate duplicate and NULL positions on purpose.
  sql += "pos INTEGER";
  if (dense_positions && !has_grp) sql += " PRIMARY KEY";
  sql += ", val ";
  sql += val_type == DataType::kInt64 ? "INTEGER" : "DOUBLE";
  sql += ")";
  return sql;
}

std::string Scenario::CreateIndexSql() const {
  if (kind != ScenarioKind::kWindow) return "";
  return "CREATE INDEX " + table + "_pos ON " + table + " (pos)";
}

std::string Scenario::InsertSql() const {
  if (rows.empty()) return "";
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = 0; i < rows.size(); ++i) {
    const FuzzRow& r = rows[i];
    if (i > 0) sql += ", ";
    sql += "(";
    if (has_grp) sql += std::to_string(r.grp) + ", ";
    sql += r.pos.ToString() + ", " + r.val.ToString() + ")";
  }
  return sql;
}

std::string Scenario::CreateViewSql(const FuzzView& view) const {
  std::string sql = "CREATE MATERIALIZED VIEW " + view.name + " AS SELECT ";
  if (has_grp) sql += "grp, ";
  sql += "pos, " + std::string(FuzzFnSql(view.fn)) + "(val) OVER (";
  if (has_grp) sql += "PARTITION BY grp ";
  sql += "ORDER BY pos " + view.frame.ToSql() + ") FROM " + table;
  return sql;
}

std::string Scenario::QuerySql(const FuzzQuery& query) const {
  const bool strict_shape = kind != ScenarioKind::kWindow;
  std::string select = "SELECT ";
  if (has_grp && (strict_shape ? query.partition_by_grp : true)) {
    select += "grp, ";
  }
  select += "pos, ";
  if (!strict_shape) select += "val, ";

  select += FuzzFnSql(query.fn);
  if (query.is_ranking()) {
    select += "()";
  } else if (query.fn == FuzzFn::kCountStar) {
    select += "(*)";
  } else {
    select += "(val)";
  }
  select += " OVER (";
  if (query.partition_by_grp && has_grp) select += "PARTITION BY grp ";
  select += "ORDER BY ";
  select += query.is_ranking() && query.order_by_val ? "val" : "pos";
  if (query.is_ranking() && query.order_desc) select += " DESC";
  if (!query.is_ranking()) select += " " + query.frame.ToSql();
  select += ") FROM " + table;
  const std::string order_by = OrderByList(query);
  if (!order_by.empty()) select += " ORDER BY " + order_by;
  return select;
}

std::string Scenario::OrderByList(const FuzzQuery& query) const {
  // The rewriter's recognizable shape requires the trailing ORDER BY
  // (partition columns first).
  if (kind != ScenarioKind::kWindow) {
    return has_grp && query.partition_by_grp ? "grp, pos" : "pos";
  }
  return query.order_by;
}

std::string Scenario::DmlSql(const FuzzDml& op) const {
  const std::string grp_pred =
      has_grp ? " AND grp = " + std::to_string(op.grp) : "";
  switch (op.kind) {
    case DmlKind::kUpdate:
      return "UPDATE " + table + " SET val = " + std::to_string(op.value) +
             " WHERE pos = " + std::to_string(op.position) + grp_pred;
    case DmlKind::kDelete:
      return "DELETE FROM " + table +
             " WHERE pos = " + std::to_string(op.position) + grp_pred;
    case DmlKind::kInsert: {
      std::string sql = "INSERT INTO " + table + " VALUES (";
      if (has_grp) sql += std::to_string(op.grp) + ", ";
      sql += std::to_string(op.position) + ", " + std::to_string(op.value) +
             ")";
      return sql;
    }
  }
  return "";
}

std::string Scenario::ToSqlScript() const {
  std::string out;
  out += "-- rfview_fuzz scenario " + Id() + " (" +
         ScenarioKindName(kind) + ")\n";
  out += CreateTableSql() + ";\n";
  const std::string insert = InsertSql();
  if (!insert.empty()) out += insert + ";\n";
  const std::string index = CreateIndexSql();
  if (!index.empty()) out += index + ";\n";
  for (const FuzzView& view : views) out += CreateViewSql(view) + ";\n";
  for (const FuzzQuery& query : queries) out += QuerySql(query) + ";\n";
  for (size_t b = 0; b < dml_batches.size(); ++b) {
    out += "-- DML batch " + std::to_string(b);
    if (kind == ScenarioKind::kMaintenance) {
      out += " (replayed via the PropagateBase* maintenance API;";
      out += " positional semantics, see docs/FUZZING.md)";
    }
    out += "\n";
    for (const FuzzDml& op : dml_batches[b]) {
      if (kind == ScenarioKind::kMaintenance) {
        // PropagateBaseInsert/Delete shift higher positions; plain SQL
        // cannot express that, so maintenance ops are annotations.
        switch (op.kind) {
          case DmlKind::kUpdate:
            out += "-- PropagateBaseUpdate(pos=" +
                   std::to_string(op.position) +
                   ", val=" + std::to_string(op.value) + ")\n";
            break;
          case DmlKind::kInsert:
            out += "-- PropagateBaseInsert(pos=" +
                   std::to_string(op.position) +
                   ", val=" + std::to_string(op.value) + ")\n";
            break;
          case DmlKind::kDelete:
            out += "-- PropagateBaseDelete(pos=" +
                   std::to_string(op.position) + ")\n";
            break;
        }
      } else {
        out += DmlSql(op) + ";\n";
      }
    }
    out += "-- re-run all queries and oracle checks\n";
  }
  return out;
}

}  // namespace fuzzing
}  // namespace rfv
