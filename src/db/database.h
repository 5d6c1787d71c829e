#ifndef RFVIEW_DB_DATABASE_H_
#define RFVIEW_DB_DATABASE_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "db/admission.h"
#include "db/query_log.h"
#include "db/result_set.h"
#include "db/system_views.h"
#include "exec/executor.h"
#include "parser/ast.h"
#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "view/view_manager.h"

namespace rfv {

/// The top-level façade: SQL text in, ResultSet out. Wires together the
/// catalog, parser, binder, optimizer, executor, view manager and the
/// reporting-function view rewriter.
///
///   Database db;
///   db.Execute("CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
///   db.Execute("INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)");
///   auto rs = db.Execute(
///       "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
///       "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
///
/// `CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER (...) FROM
/// seq` materializes a *complete* sequence view (header/trailer rows)
/// and registers it with the rewriter; subsequent window queries over
/// `seq` are answered from `v` via the paper's derivation patterns when
/// derivable (see options()).
class Database {
 public:
  struct Options {
    /// Answer window queries from materialized sequence views when
    /// derivable (paper §3–§5). Off = always compute from base data.
    bool enable_view_rewrite = true;
    /// Disjunctive-predicate vs. UNION pattern variant (paper Table 2).
    RewriteVariant rewrite_variant = RewriteVariant::kDisjunctive;
    /// Force MaxOA or MinOA instead of the automatic choice.
    std::optional<DerivationMethod> force_method;
    /// Automatic derivation choice prices every (view, method)
    /// alternative against live table statistics, including declining
    /// the rewrite when base-table recompute estimates cheaper; off =
    /// the paper's static preference order, always rewriting.
    bool use_cost_model = true;
    /// Record a query-lifecycle trace for every Execute() call and
    /// attach it to the ResultSet (exportable as Chrome trace-event
    /// JSON). Off by default: tracing costs a few clock reads per
    /// span even though spans are cheap.
    bool enable_tracing = false;
    /// Physical execution knobs: the join toggles (see ExecOptions).
    ExecOptions exec;
  };

  Database()
      : views_(&catalog_),
        rewriter_(&catalog_, &views_),
        system_views_(&catalog_, &views_, &query_log_) {
    catalog_.RegisterVirtualSchema(SystemViewProvider::kSchemaName,
                                   &system_views_);
  }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes one SQL statement under the engine-default options().
  Result<ResultSet> Execute(const std::string& sql);

  /// Executes one SQL statement under caller-supplied options — the
  /// per-session entry point (see db/session.h). Thread-safe: SELECTs
  /// from any number of threads run concurrently against pinned table
  /// snapshots; DML/DDL statements serialize on the engine write mutex.
  /// Every call passes the admission controller first (concurrent-query
  /// cap; excess callers queue).
  Result<ResultSet> Execute(const std::string& sql, const Options& options);

  /// Executes a `;`-separated script, discarding SELECT results.
  Status ExecuteScript(const std::string& sql);

  /// Renders the optimized logical plan of a SELECT.
  Result<std::string> Explain(const std::string& sql);

  /// Process-wide metrics (queries, rewrites, index probes, view
  /// maintenance...) in Prometheus text exposition format.
  static std::string MetricsText();

  /// The captured workload (one QueryEvent per Execute call, bounded
  /// ring) as JSONL — the view advisor's observed query stream. Also
  /// queryable in SQL as `rfv_system.queries` / `rfv_system.operators`.
  std::string WorkloadJsonl() const { return query_log_.ToJsonl(); }

  /// Writes WorkloadJsonl() to `path` (shell `\workload export`).
  Status ExportWorkload(const std::string& path) const;

  QueryLog* query_log() { return &query_log_; }
  const QueryLog& query_log() const { return query_log_; }

  Catalog* catalog() { return &catalog_; }
  ViewManager* view_manager() { return &views_; }
  const Rewriter& rewriter() const { return rewriter_; }
  /// Engine-default options, used by the single-argument Execute().
  /// Mutate only from one thread at a time (sessions carry their own
  /// copy — see db/session.h).
  Options& options() { return options_; }
  /// Concurrent-query admission: cap + queue-depth/running metrics.
  AdmissionController* admission() { return &admission_; }

 private:
  Result<ResultSet> ExecuteStatement(const Statement& stmt,
                                     const Options& options);
  Result<ResultSet> ExecuteSelect(const SelectStmt& stmt, bool allow_rewrite,
                                  const Options& options);
  Result<ResultSet> ExecuteExplain(const Statement& stmt,
                                   const Options& options);
  Result<std::string> ExplainDml(const Statement& stmt);
  Result<ResultSet> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> ExecuteCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> ExecuteInsert(const InsertStmt& stmt);
  Result<ResultSet> ExecuteUpdate(const UpdateStmt& stmt);
  Result<ResultSet> ExecuteDelete(const DeleteStmt& stmt);
  Result<ResultSet> ExecuteCreateView(const CreateViewStmt& stmt,
                                      const Options& options);
  Result<ResultSet> ExecuteDropTable(const DropTableStmt& stmt);
  Result<ResultSet> ExecuteAnalyze(const AnalyzeStmt& stmt);

  Catalog catalog_;
  ViewManager views_;
  Rewriter rewriter_;
  Options options_;
  QueryLog query_log_;
  SystemViewProvider system_views_;
  AdmissionController admission_;
  /// Serializes every mutating statement (DML, DDL, ANALYZE, view
  /// maintenance) — the single-writer half of the concurrency model.
  /// Taken inside each Execute* mutator, never recursively (ExplainDml
  /// and CREATE VIEW reach mutators without holding it).
  std::mutex write_mu_;
  /// Id of the next Execute call (rfv_system.queries key).
  std::atomic<int64_t> next_query_id_{1};
};

}  // namespace rfv

#endif  // RFVIEW_DB_DATABASE_H_
