// EXPLAIN and EXPLAIN ANALYZE (SELECT + DML), EXPLAIN on DML statements,
// and the trace / phase-timing attachments on ResultSet.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "db/database.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::IsValidJson;
using testutil::MustExecute;

/// Joins the one-column explain result back into multi-line text.
std::string ExplainText(const ResultSet& rs) {
  std::string out;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    out += rs.at(i, 0).AsString() + "\n";
  }
  return out;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateSeqTable(db_, 50);
    MustExecute(db_,
                "CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) "
                "OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 "
                "FOLLOWING) FROM seq");
  }

  Database db_;
};

TEST(ExplainTest, ExplainStatementShowsRewrite) {
  Database db;
  CreateSeqTable(db, 25);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db,
      "EXPLAIN SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
      "PRECEDING AND 1 FOLLOWING) FROM seq");
  ASSERT_GT(rs.NumRows(), 0u);
  // The cost model arbitrates MaxOA vs. MinOA; the widened window here
  // prices MinOA lower (2 congruence branches vs. 3).
  EXPECT_NE(rs.at(0, 0).AsString().find("MinOA"), std::string::npos);
}

TEST(ExplainTest, ExplainWithoutViewsShowsWindowOperator) {
  Database db;
  CreateSeqTable(db, 25);
  const ResultSet rs = MustExecute(
      db,
      "EXPLAIN SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
      "PRECEDING AND 1 FOLLOWING) FROM seq");
  bool saw_window = false;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    saw_window =
        saw_window ||
        rs.at(i, 0).AsString().find("Window(") != std::string::npos;
  }
  EXPECT_TRUE(saw_window);
}

TEST_F(ExplainAnalyzeTest, DerivableQueryShowsRewriteDecisionAndTree) {
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, "EXPLAIN ANALYZE " + sql);
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("EXPLAIN ANALYZE (50 rows)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("phases:"), std::string::npos) << text;
  EXPECT_NE(text.find("rewrite: direct using view matseq"),
            std::string::npos)
      << text;
  // Per-node metrics annotations are present.
  EXPECT_NE(text.find("rows_out="), std::string::npos) << text;
  // The measured plan rides along: its root produced the result rows.
  ASSERT_FALSE(rs.metrics().empty());
  EXPECT_EQ(rs.metrics()[0].metrics.rows_out, 50);
  EXPECT_EQ(rs.rewrite_method(), "direct");
  EXPECT_EQ(rs.rewrite_view(), "matseq");
}

TEST_F(ExplainAnalyzeTest, FoldingBandJoinShowsFoldTokenAndLeftEstimate) {
  // A forced MinOA derivation: SUM(CASE ...) over the stride self join
  // folds into one partial row per body position.
  db_.options().force_method = DerivationMethod::kMinoa;
  Counter* folded = MetricsRegistry::Global().GetCounter(
      "rfv_exec_band_fold_candidates_total", {}, "");
  const int64_t before = folded->value();
  const ResultSet rs = MustExecute(
      db_,
      "EXPLAIN ANALYZE SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
      "BETWEEN 5 PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  const std::string text = ExplainText(rs);
  ASSERT_EQ(rs.rewrite_method(), "MinOA") << text;
  const size_t line = text.find("merge_band_join");
  ASSERT_NE(line, std::string::npos) << text;
  const std::string join_line =
      text.substr(line, text.find('\n', line) - line);
  EXPECT_NE(join_line.find("fold=sum folded="), std::string::npos) << text;

  int join = -1;
  for (size_t i = 0; i < rs.metrics().size(); ++i) {
    if (rs.metrics()[i].name == "merge_band_join") join = static_cast<int>(i);
  }
  ASSERT_GE(join, 0);
  const OperatorMetricsEntry& e = rs.metrics()[static_cast<size_t>(join)];
  // One partial row per body position, estimated as the left input.
  EXPECT_EQ(e.metrics.rows_out, 50);
  EXPECT_EQ(e.est_rows, rs.metrics()[static_cast<size_t>(join) + 1].est_rows);
  const std::string token = "folded=";
  const int64_t candidates = std::stoll(
      join_line.substr(join_line.find(token) + token.size()));
  EXPECT_GT(candidates, 50);
  EXPECT_EQ(folded->value() - before, candidates);
  // seq's values are small integers, so prefix sums answer every
  // partial row: prefix= equals rows_out (fewer would mean a fallback).
  EXPECT_NE(join_line.find(" prefix=50"), std::string::npos) << text;
  EXPECT_EQ(e.detail, "fold=sum folded=" + std::to_string(candidates) +
                          " prefix=50");
}

TEST_F(ExplainAnalyzeTest, FoldingBandJoinCountsWalkedRowsOutsidePrefix) {
  // Fractional view values leave every row to the candidate walk.
  MustExecute(db_, "CREATE TABLE frac (pos INTEGER PRIMARY KEY, val DOUBLE)");
  std::string rows;
  for (int i = 1; i <= 20; ++i) {
    if (i > 1) rows += ", ";
    rows += "(" + std::to_string(i) + ", " + std::to_string(i) + ".25)";
  }
  MustExecute(db_, "INSERT INTO frac VALUES " + rows);
  const ResultSet rs = MustExecute(
      db_,
      "EXPLAIN ANALYZE SELECT s1.pos, SUM(s2.val) FROM frac s1, frac s2 "
      "WHERE s2.pos BETWEEN s1.pos - 2 AND s1.pos GROUP BY s1.pos");
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("fold=sum folded=57 prefix=0"), std::string::npos)
      << text;
}

TEST_F(ExplainAnalyzeTest, SortLineShowsWhetherTheInputWasPresorted) {
  const auto sort_line = [this](const std::string& sql) {
    const std::string text =
        ExplainText(MustExecute(db_, "EXPLAIN ANALYZE " + sql));
    const size_t line = text.find("sort ");
    EXPECT_NE(line, std::string::npos) << text;
    return line == std::string::npos
               ? std::string()
               : text.substr(line, text.find('\n', line) - line);
  };
  // seq is stored in pos order: the in-order check answers the sort and
  // the columnar chunks pass through as vectors.
  const std::string in_order =
      sort_line("SELECT pos, val FROM seq ORDER BY pos");
  EXPECT_NE(in_order.find(" presorted=1"), std::string::npos) << in_order;
  EXPECT_NE(in_order.find("vectors=1 "), std::string::npos) << in_order;
  const std::string permuted =
      sort_line("SELECT pos, val FROM seq ORDER BY val, pos");
  EXPECT_NE(permuted.find(" presorted=0"), std::string::npos) << permuted;
  // A MinOA read: the aggregate's groups arrive in pos order too.
  db_.options().force_method = DerivationMethod::kMinoa;
  const std::string minoa = sort_line(
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING AND "
      "1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_NE(minoa.find(" presorted=1"), std::string::npos) << minoa;
  db_.options().force_method = std::nullopt;
}

TEST_F(ExplainAnalyzeTest, UnderivableQuerySaysRewriteNone) {
  const ResultSet rs = MustExecute(
      db_, "EXPLAIN ANALYZE SELECT pos FROM seq WHERE pos <= 10");
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("EXPLAIN ANALYZE (10 rows)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("rewrite: none"), std::string::npos) << text;
  ASSERT_FALSE(rs.metrics().empty());
  EXPECT_EQ(rs.metrics()[0].metrics.rows_out, 10);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillRendersLogicalPlan) {
  const ResultSet rs =
      MustExecute(db_, "EXPLAIN SELECT pos FROM seq WHERE pos <= 10");
  const std::string text = ExplainText(rs);
  // Logical plan rendering, not measured operators.
  EXPECT_EQ(text.find("rows_out="), std::string::npos) << text;
  EXPECT_EQ(text.find("EXPLAIN ANALYZE"), std::string::npos) << text;
  EXPECT_FALSE(text.empty());
}

TEST_F(ExplainAnalyzeTest, ExplainInsertRendersTargetAndArity) {
  const ResultSet rs = MustExecute(
      db_, "EXPLAIN INSERT INTO seq VALUES (51, 1.0), (52, 2.0)");
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("insert into seq"), std::string::npos) << text;
  EXPECT_NE(text.find("rows: 2"), std::string::npos) << text;
  // EXPLAIN alone must not execute.
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(50));
}

TEST_F(ExplainAnalyzeTest, ExplainUpdateShowsPredicateAndChosenIndex) {
  const ResultSet rs = MustExecute(
      db_, "EXPLAIN UPDATE seq SET val = 0 WHERE pos = 7");
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("update seq"), std::string::npos) << text;
  EXPECT_NE(text.find("predicate:"), std::string::npos) << text;
  // pos has the primary-key index; the probe is reported by name.
  EXPECT_NE(text.find("index probe seq_pk_pos"), std::string::npos) << text;
  EXPECT_NE(text.find("assignments:"), std::string::npos) << text;
}

TEST_F(ExplainAnalyzeTest, ExplainDeleteWithoutSargableConjunctSaysSeqScan) {
  const ResultSet rs =
      MustExecute(db_, "EXPLAIN DELETE FROM seq WHERE val < 0");
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("delete from seq"), std::string::npos) << text;
  EXPECT_NE(text.find("scan: seq scan"), std::string::npos) << text;
  // Nothing was deleted by EXPLAIN.
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(50));
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeDeleteExecutesAndReportsActual) {
  const ResultSet rs = MustExecute(
      db_, "EXPLAIN ANALYZE DELETE FROM seq WHERE pos BETWEEN 1 AND 5");
  const std::string text = ExplainText(rs);
  EXPECT_NE(text.find("index probe seq_pk_pos"), std::string::npos) << text;
  EXPECT_NE(text.find("actual: 5 rows affected"), std::string::npos)
      << text;
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(45));
}

TEST_F(ExplainAnalyzeTest, IndexAssistedUpdateMatchesFullScanSemantics) {
  // The indexed path and the fallback path must touch the same rows.
  MustExecute(db_, "UPDATE seq SET val = 123 WHERE pos = 10 AND val < 999");
  EXPECT_EQ(MustExecute(db_, "SELECT val FROM seq WHERE pos = 10").at(0, 0),
            Value::Double(123));
  const ResultSet count =
      MustExecute(db_, "SELECT COUNT(*) FROM seq WHERE val = 123");
  EXPECT_EQ(count.at(0, 0), Value::Int(1));
}

TEST(ExplainUnsupportedTest, ExplainCreateTableIsRejected) {
  Database db;
  EXPECT_FALSE(db.Execute("EXPLAIN CREATE TABLE t (a INTEGER)").ok());
}

TEST(QueryTracingTest, DisabledByDefaultNoTraceAttached) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  const ResultSet rs = MustExecute(db, "SELECT a FROM t");
  EXPECT_EQ(rs.trace(), nullptr);
  EXPECT_EQ(rs.TraceJson(), "");
}

TEST(QueryTracingTest, EnabledTraceCoversLifecycleAndExportsJson) {
  Database db;
  db.options().enable_tracing = true;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2), (3)");
  const ResultSet rs = MustExecute(db, "SELECT a FROM t WHERE a > 1");
  ASSERT_NE(rs.trace(), nullptr);
  const std::vector<TraceEvent> events = rs.trace()->events();
  ASSERT_FALSE(events.empty());
  auto has = [&events](const std::string& name) {
    for (const TraceEvent& e : events) {
      if (e.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("query"));
  EXPECT_TRUE(has("parse"));
  EXPECT_TRUE(has("bind"));
  EXPECT_TRUE(has("plan"));
  EXPECT_TRUE(has("exec.open"));
  EXPECT_TRUE(has("exec.drain"));
  EXPECT_TRUE(has("rewrite"));
  const std::string json = rs.TraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // The retired trace is reachable through the global tracer too.
  EXPECT_NE(Tracer::Global().Find(rs.trace()->id()), nullptr);
}

TEST(QueryTracingTest, RewriteCandidateSpansCarryVerdicts) {
  Database db;
  db.options().enable_tracing = true;
  CreateSeqTable(db, 30);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_EQ(rs.rewrite_method(), "direct");
  ASSERT_NE(rs.trace(), nullptr);
  bool found_candidate = false;
  for (const TraceEvent& e : rs.trace()->events()) {
    if (e.name != "rewrite.candidate") continue;
    found_candidate = true;
    bool has_view = false;
    bool has_verdict = false;
    for (const auto& [key, value] : e.args) {
      if (key == "view") has_view = value == "v";
      if (key == "verdict") {
        has_verdict = value.find("derivable") != std::string::npos;
      }
    }
    EXPECT_TRUE(has_view);
    EXPECT_TRUE(has_verdict);
  }
  EXPECT_TRUE(found_candidate);
}

TEST(QueryPhasesTest, SelectRecordsParseBindPlanExecute) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1)");
  const ResultSet rs = MustExecute(db, "SELECT a FROM t");
  std::vector<std::string> names;
  for (const auto& [phase, ns] : rs.phase_ns()) {
    names.push_back(phase);
    EXPECT_GE(ns, 0);
  }
  // "rewrite" appears too (view rewriting is on by default) between
  // parse and bind.
  const std::vector<std::string> expected = {"parse", "rewrite", "bind",
                                             "plan", "execute"};
  EXPECT_EQ(names, expected);
  EXPECT_NE(rs.PhasesToString().find("phases: parse="), std::string::npos);
}

TEST(QueryPhasesTest, RewriteHitPutsRewriteFirstAfterParse) {
  Database db;
  CreateSeqTable(db, 20);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_EQ(rs.rewrite_method(), "direct");
  ASSERT_GE(rs.phase_ns().size(), 2u);
  EXPECT_EQ(rs.phase_ns()[0].first, "parse");
  EXPECT_EQ(rs.phase_ns()[1].first, "rewrite");
}

}  // namespace
}  // namespace rfv
