#ifndef RFVIEW_DB_QUERY_LOG_H_
#define RFVIEW_DB_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rfv {

/// Structured per-query workload capture.
///
/// `Database::Execute` finalizes one `QueryEvent` per statement —
/// template fingerprint, status, per-phase timings, row counts, the
/// rewrite decision with every candidate verdict, and the per-operator
/// metrics of the physical plan — and appends it to the database's
/// bounded `QueryLog` ring. The ring is queryable in SQL as
/// `rfv_system.queries` / `rfv_system.operators` (db/system_views.h)
/// and exportable as JSONL (`Database::ExportWorkload`, shell
/// `\workload export`), which is the observed-query-stream input the
/// ROADMAP's workload-driven view advisor consumes.

/// Normalizes SQL text into a workload template fingerprint: keywords
/// and identifiers are case-folded, whitespace/comments collapse to
/// single separators, literals (numbers, strings) are stripped to `?`,
/// and all-literal IN lists collapse to `IN (?)` so queries differing
/// only in list length share a template. Unlexable text falls back to
/// lowercased whitespace-collapsed SQL.
std::string NormalizeFingerprint(const std::string& sql);

/// One candidate (view, method) alternative the rewriter considered.
struct QueryEventCandidate {
  std::string view;
  bool derivable = false;
  std::string method;  ///< derivation method name; "" when !derivable
  bool chosen = false;
  /// Estimated total cost; -1 when the cost model did not price it.
  double cost = -1;
  /// Cost summary or not-derivable reason.
  std::string detail;
};

/// Per-operator metrics of the executed physical plan, flattened in
/// pre-order (entry 0 = root), mirroring OperatorMetricsEntry.
struct QueryEventOperator {
  std::string op;
  int depth = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t next_calls = 0;
  int64_t vectors_out = 0;
  double open_ms = 0;
  double next_ms = 0;
  int64_t peak_buffered_rows = 0;
};

/// The workload record of one Database::Execute call.
struct QueryEvent {
  int64_t query_id = 0;  ///< session-scoped, monotonically increasing
  std::string sql;
  std::string fingerprint;
  /// Statement kind: select/insert/update/delete/create_table/... ;
  /// "error" when the text did not parse.
  std::string kind;
  std::string status;  ///< "ok" or the failing status code name
  std::string error;   ///< failure message; empty on success
  int64_t duration_ns = 0;
  /// Wall phases in execution order (parse, rewrite, bind, plan,
  /// execute) — absent phases were bypassed by the statement kind.
  std::vector<std::pair<std::string, int64_t>> phase_ns;
  /// Rows entering the plan at its scan leaves / rows returned (DML
  /// reports affected rows as rows_out).
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  /// Chosen derivation method name; "none" when the query ran against
  /// base data (including non-window statements).
  std::string rewrite = "none";
  std::string rewrite_view;
  /// Estimated total cost of the chosen derivation; -1 when no costed
  /// rewrite happened.
  double cost_estimate = -1;
  std::vector<QueryEventCandidate> candidates;
  std::vector<QueryEventOperator> operators;

  /// The event as one JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Bounded ring of the most recent QueryEvents (thread-safe). Overflow
/// evicts oldest-first and counts evictions into
/// `rfv_workload_events_dropped_total`.
class QueryLog {
 public:
  explicit QueryLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  void Append(QueryEvent event);

  /// Snapshot of the retained events, oldest first.
  std::vector<QueryEvent> Snapshot() const;

  /// JSONL export: one ToJson() line per retained event, oldest first.
  std::string ToJsonl() const;

  size_t size() const;
  size_t capacity() const;
  /// Shrinking evicts (and counts as dropped) the oldest surplus.
  void SetCapacity(size_t capacity);
  /// Events appended over the ring's lifetime, including evicted ones.
  int64_t total_appended() const;

  static constexpr size_t kDefaultCapacity = 256;

 private:
  void EvictLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  int64_t total_appended_ = 0;
  std::deque<QueryEvent> events_;
};

}  // namespace rfv

#endif  // RFVIEW_DB_QUERY_LOG_H_
