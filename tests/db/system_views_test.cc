#include "db/system_views.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "db/database.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::IsValidJson;
using testutil::MustExecute;

TEST(SystemViewsTest, QueriesViewReflectsSessionHistory) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2), (3)");
  MustExecute(db, "SELECT a FROM t WHERE a > 1");

  const ResultSet rs = MustExecute(
      db,
      "SELECT query_id, sql, fingerprint, kind, status, rows_out "
      "FROM rfv_system.queries ORDER BY query_id");
  ASSERT_EQ(rs.NumRows(), 3u);  // the introspection query itself not yet
  EXPECT_EQ(rs.at(0, 3), Value::String("create_table"));
  EXPECT_EQ(rs.at(1, 3), Value::String("insert"));
  EXPECT_EQ(rs.at(1, 5), Value::Int(3));  // 3 rows inserted
  EXPECT_EQ(rs.at(2, 1),
            Value::String("SELECT a FROM t WHERE a > 1"));
  EXPECT_EQ(rs.at(2, 2),
            Value::String("select a from t where a > ?"));
  EXPECT_EQ(rs.at(2, 4), Value::String("ok"));
  EXPECT_EQ(rs.at(2, 5), Value::Int(2));
}

TEST(SystemViewsTest, FailedStatementsAreRecordedWithStatus) {
  Database db;
  EXPECT_FALSE(db.Execute("SELECT * FROM missing").ok());
  const ResultSet rs = MustExecute(
      db, "SELECT kind, status, error FROM rfv_system.queries");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::String("select"));
  EXPECT_EQ(rs.at(0, 1), Value::String("NotFound"));
  EXPECT_NE(rs.at(0, 2).AsString().find("missing"), std::string::npos);
}

TEST(SystemViewsTest, RankWindowQueryOverQueriesView) {
  // The ISSUE acceptance query: ranking the session's own statements by
  // duration through the ordinary window pipeline.
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1)");
  MustExecute(db, "SELECT a FROM t");
  const ResultSet rs = MustExecute(
      db,
      "SELECT query_id, duration_ms, "
      "RANK() OVER (ORDER BY duration_ms DESC) FROM rfv_system.queries");
  ASSERT_EQ(rs.NumRows(), 3u);
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    EXPECT_GT(rs.at(r, 1).ToDouble(), 0.0);
    const int64_t rank = rs.at(r, 2).AsInt();
    EXPECT_GE(rank, 1);
    EXPECT_LE(rank, 3);
  }
}

TEST(SystemViewsTest, WindowOverTheDmlSubsetOfTheQueryLog) {
  // The log grows with every execution, so read the stable DML subset
  // and its deterministic columns only.
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2)");
  MustExecute(db, "INSERT INTO t VALUES (3)");
  const std::string sql =
      "SELECT query_id, kind, status, rows_out, "
      "RANK() OVER (ORDER BY query_id) "
      "FROM rfv_system.queries WHERE kind = 'insert' ORDER BY query_id";
  const ResultSet rs = MustExecute(db, sql);
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_LT(rs.at(0, 0).AsInt(), rs.at(1, 0).AsInt());
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(rs.at(r, 1), Value::String("insert"));
    EXPECT_EQ(rs.at(r, 4), Value::Int(static_cast<int64_t>(r) + 1));
  }
  EXPECT_EQ(rs.at(0, 2), rs.at(1, 2));
  EXPECT_EQ(rs.at(0, 3), Value::Int(2));
  EXPECT_EQ(rs.at(1, 3), Value::Int(1));
  // A second read sees the same rows.
  EXPECT_TRUE(testutil::RowsEqual(rs, MustExecute(db, sql)));
}

TEST(SystemViewsTest, OperatorsViewExposesPlanMetrics) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2), (3)");
  MustExecute(db, "SELECT a FROM t WHERE a > 1 ORDER BY a");
  const ResultSet rs = MustExecute(
      db,
      "SELECT op, rows_out FROM rfv_system.operators "
      "WHERE op = 'scan' ORDER BY query_id");
  ASSERT_GE(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 1), Value::Int(3));  // the scan read all 3 rows
}

TEST(SystemViewsTest, MetricsViewServesTypedCounters) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  const ResultSet rs = MustExecute(
      db,
      "SELECT name, kind, count FROM rfv_system.metrics "
      "WHERE name = 'rfv_queries_executed_total'");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 1), Value::String("counter"));
  EXPECT_GE(rs.at(0, 2).AsInt(), 1);
}

TEST(SystemViewsTest, ViewsViewExposesCatalogAndMaintenance) {
  Database db;
  testutil::CreateSeqTable(db, 12);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db,
      "SELECT view_name, base_table, fn, window_spec, n, content_rows, "
      "full_refreshes FROM rfv_system.views");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::String("v"));
  EXPECT_EQ(rs.at(0, 1), Value::String("seq"));
  EXPECT_EQ(rs.at(0, 2), Value::String("SUM"));
  EXPECT_EQ(rs.at(0, 4), Value::Int(12));
  EXPECT_GT(rs.at(0, 5).AsInt(), 12);  // complete sequence incl. header
  EXPECT_EQ(rs.at(0, 6), Value::Int(1));  // initial materialization
}

TEST(SystemViewsTest, TableStatsViewExposesColumnStatistics) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute(db, "INSERT INTO t VALUES (1, 'x'), (5, NULL)");
  MustExecute(db, "ANALYZE t");
  const ResultSet rs = MustExecute(
      db,
      "SELECT column_name, row_count, null_count, distinct_count, "
      "min_value, max_value FROM rfv_system.table_stats "
      "WHERE table_name = 't' ORDER BY column_name");
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_EQ(rs.at(0, 0), Value::String("a"));
  EXPECT_EQ(rs.at(0, 1), Value::Int(2));
  EXPECT_EQ(rs.at(0, 3), Value::Int(2));
  EXPECT_EQ(rs.at(0, 4), Value::Double(1));
  EXPECT_EQ(rs.at(0, 5), Value::Double(5));
  EXPECT_EQ(rs.at(1, 0), Value::String("b"));
  EXPECT_EQ(rs.at(1, 2), Value::Int(1));
  EXPECT_TRUE(rs.at(1, 4).is_null());  // strings carry no numeric range
}

TEST(SystemViewsTest, TraceSpansViewServesRetiredRing) {
  Database db;
  db.options().enable_tracing = true;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1)");
  db.options().enable_tracing = false;
  const ResultSet rs = MustExecute(
      db,
      "SELECT name, COUNT(*) FROM rfv_system.trace_spans "
      "WHERE name = 'parse' GROUP BY name");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_GE(rs.at(0, 1).AsInt(), 2);  // both traced statements parsed
}

TEST(SystemViewsTest, SystemTablesAreReadOnly) {
  Database db;
  EXPECT_EQ(db.Execute("INSERT INTO rfv_system.queries VALUES (1)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Execute("UPDATE rfv_system.queries SET sql = 'x'")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Execute("DELETE FROM rfv_system.queries").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Execute("DROP TABLE rfv_system.queries").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      db.Execute("CREATE TABLE rfv_system.mine (a INTEGER)").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Execute("CREATE INDEX i ON rfv_system.queries (query_id)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SystemViewsTest, UnknownSystemTableIsNotFound) {
  Database db;
  EXPECT_EQ(db.Execute("SELECT * FROM rfv_system.nope").status().code(),
            StatusCode::kNotFound);
}

TEST(SystemViewsTest, QualifiedNameBindsLastComponentAsAlias) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  const ResultSet rs = MustExecute(
      db, "SELECT queries.query_id FROM rfv_system.queries");
  ASSERT_EQ(rs.NumRows(), 1u);
  // An explicit alias overrides the default.
  MustExecute(db, "SELECT q.query_id FROM rfv_system.queries q");
}

TEST(SystemViewsTest, RewriteDecisionLandsInQueriesView) {
  Database db;
  testutil::CreateSeqTable(db, 16);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet window = MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  ASSERT_FALSE(window.rewrite_method().empty());

  const ResultSet rs = MustExecute(
      db,
      "SELECT rewrite, rewrite_view, candidates FROM rfv_system.queries "
      "WHERE rewrite <> 'none'");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::String(window.rewrite_method()));
  EXPECT_EQ(rs.at(0, 1), Value::String("v"));
  EXPECT_GE(rs.at(0, 2).AsInt(), 1);
}

TEST(SystemViewsTest, WorkloadJsonlCarriesDecisionRecord) {
  Database db;
  testutil::CreateSeqTable(db, 16);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  const std::string jsonl = db.WorkloadJsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    const size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(IsValidJson(jsonl.substr(start, end - start)));
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(jsonl.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"candidates\": [{"), std::string::npos);
  EXPECT_NE(jsonl.find("\"chosen\": true"), std::string::npos);
}

TEST(SystemViewsTest, QueryLogRingIsBoundedInSql) {
  Database db;
  db.query_log()->SetCapacity(4);
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  for (int i = 0; i < 10; ++i) {
    MustExecute(db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  const ResultSet rs = MustExecute(
      db, "SELECT COUNT(*), MIN(query_id), MAX(query_id) "
          "FROM rfv_system.queries");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::Int(4));
  // The last 4 of the 11 statements executed so far: ids 8..11.
  EXPECT_EQ(rs.at(0, 1).ToDouble(), 8);
  EXPECT_EQ(rs.at(0, 2).ToDouble(), 11);
}

TEST(SystemViewsTest, TraceRingCapacityKnob) {
  Tracer& tracer = Tracer::Global();
  const size_t original = tracer.ring_capacity();
  Counter* dropped = MetricsRegistry::Global().GetCounter(
      "rfv_trace_spans_dropped_total");

  tracer.SetRingCapacity(2);
  EXPECT_EQ(tracer.ring_capacity(), 2u);
  std::vector<int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    std::shared_ptr<QueryTrace> trace = tracer.StartQuery();
    {
      ScopedTraceAttach attach(trace.get());
      TraceSpan span("work");
    }
    ids.push_back(trace->id());
    tracer.Retire(std::move(trace));
  }
  const int64_t dropped_before = dropped->value();
  EXPECT_EQ(tracer.Find(ids[0]), nullptr);
  EXPECT_EQ(tracer.Find(ids[1]), nullptr);
  EXPECT_NE(tracer.Find(ids[2]), nullptr);
  EXPECT_NE(tracer.Find(ids[3]), nullptr);

  // Shrinking evicts immediately and counts the evicted trace's spans.
  tracer.SetRingCapacity(1);
  EXPECT_EQ(tracer.Find(ids[2]), nullptr);
  EXPECT_GE(dropped->value(), dropped_before + 1);

  tracer.SetRingCapacity(original);
}

}  // namespace
}  // namespace rfv
