#ifndef RFVIEW_TESTING_SCENARIO_H_
#define RFVIEW_TESTING_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace rfv {
namespace fuzzing {

/// The structured description of one generated fuzz scenario: schema,
/// data, views, queries and DML batches. Scenarios are plain data —
/// the oracle runner (oracle.h) replays them against the engine and the
/// shrinker (shrinker.h) mutates copies while a failure reproduces.
/// ToSqlScript() renders a human-replayable .sql transcript.

/// Window functions covered by the harness (the paper's reporting
/// functions plus the ranking functions of the intro's TOP(n) analyses).
enum class FuzzFn {
  kSum,
  kAvg,
  kMin,
  kMax,
  kCount,      ///< COUNT(val): counts non-NULL arguments
  kCountStar,  ///< COUNT(*)
  kRank,
  kRowNumber,
};

/// SQL spelling of the function name ("SUM", "ROW_NUMBER", ...).
const char* FuzzFnSql(FuzzFn fn);

/// ROWS frame of an aggregate window call: cumulative (UNBOUNDED
/// PRECEDING .. CURRENT ROW) or sliding (l PRECEDING .. h FOLLOWING)
/// with l, h >= 0 and l + h > 0 — the paper's two window shapes.
struct FuzzFrame {
  bool cumulative = true;
  int64_t l = 0;
  int64_t h = 0;

  std::string ToSql() const;
};

/// One window query over the scenario table. Aggregates order by the
/// position column; ranking calls may instead order by the value column
/// (tie and NULL-key coverage).
struct FuzzQuery {
  FuzzFn fn = FuzzFn::kSum;
  FuzzFrame frame;
  bool partition_by_grp = false;  ///< PARTITION BY grp (tables with grp)
  bool order_by_val = false;      ///< ranking only: ORDER BY val
  bool order_desc = false;        ///< ranking only: descending order key
  /// Window scenarios only: the list of a trailing ORDER BY ("" = none).
  /// The execution-mode oracles then compare rows in order.
  std::string order_by;

  bool is_ranking() const {
    return fn == FuzzFn::kRank || fn == FuzzFn::kRowNumber;
  }
};

/// A materialized sequence view over the scenario table (SUM/MIN/MAX;
/// AVG views are not materializable — paper §2.1 derives AVG from SUM).
struct FuzzView {
  std::string name;
  FuzzFn fn = FuzzFn::kSum;
  FuzzFrame frame;
};

/// One DML operation. In maintenance scenarios these replay through the
/// PropagateBase* API (positional semantics, views kept fresh); in
/// window scenarios they replay as plain SQL DML.
enum class DmlKind { kUpdate, kInsert, kDelete };

struct FuzzDml {
  DmlKind kind = DmlKind::kUpdate;
  int64_t grp = 0;       ///< partition id (SQL mode on tables with grp)
  int64_t position = 1;  ///< order-column position the op targets
  int64_t value = 0;     ///< update/insert value
};

/// What the oracle runner checks for this scenario.
enum class ScenarioKind {
  kWindow,       ///< native vs. reference; SQL DML
  kRewrite,      ///< + MaxOA/MinOA/auto rewrites vs. native
  kMaintenance,  ///< + incremental maintenance vs. full recompute
};

const char* ScenarioKindName(ScenarioKind kind);

/// One generated row of the base table.
struct FuzzRow {
  int64_t grp = 0;          ///< ignored unless has_grp
  Value pos = Value::Null();
  Value val = Value::Null();
};

struct Scenario {
  uint64_t seed = 0;  ///< campaign seed
  int index = 0;      ///< iteration index within the campaign
  ScenarioKind kind = ScenarioKind::kWindow;

  std::string table = "t";
  bool has_grp = false;       ///< partition column `grp INTEGER` present
  bool dense_positions = false;  ///< pos is dense 1..n (per partition)
  DataType val_type = DataType::kDouble;

  std::vector<FuzzRow> rows;
  std::vector<FuzzView> views;    ///< kRewrite / kMaintenance only
  std::vector<FuzzQuery> queries;
  /// Queries re-run after each batch; batches empty for kRewrite.
  std::vector<std::vector<FuzzDml>> dml_batches;

  /// "seed<seed>/iter<index>" — stable identifier for logs and repros.
  std::string Id() const;

  std::string CreateTableSql() const;
  /// Window scenarios: an ordered index on `pos`, so the range scan and
  /// the UPDATE/DELETE index probe meet NULL and duplicate keys ("" for
  /// the other kinds, whose dense tables carry a primary key or none).
  std::string CreateIndexSql() const;
  /// Multi-row INSERT of `rows` ("" when empty).
  std::string InsertSql() const;
  std::string CreateViewSql(const FuzzView& view) const;
  std::string QuerySql(const FuzzQuery& query) const;
  /// The list of `query`'s trailing ORDER BY in QuerySql ("" = none):
  /// partition columns, then pos, for the rewriter's shapes; the query's
  /// own `order_by` for window scenarios.
  std::string OrderByList(const FuzzQuery& query) const;
  /// SQL replay of one DML op (maintenance ops render as an annotated
  /// equivalent; see docs/FUZZING.md).
  std::string DmlSql(const FuzzDml& op) const;

  /// Full, ordered, human-replayable transcript of the scenario:
  /// DDL + data + views + queries + DML batches, with `--` comments
  /// naming the oracle checks. Byte-stable for a given scenario.
  std::string ToSqlScript() const;
};

}  // namespace fuzzing
}  // namespace rfv

#endif  // RFVIEW_TESTING_SCENARIO_H_
