// ResultSet::metrics() invariants over join / sort / union plans, and
// the per-instance tree rendering of repeated operators.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;

/// Sum of rows_out over the direct children of entries[i] (pre-order:
/// children are the following depth+1 entries before any depth <= d).
int64_t ChildrenRowsOut(const std::vector<OperatorMetricsEntry>& entries,
                        size_t i) {
  int64_t sum = 0;
  const int depth = entries[i].depth;
  for (size_t j = i + 1; j < entries.size(); ++j) {
    if (entries[j].depth <= depth) break;
    if (entries[j].depth == depth + 1) sum += entries[j].metrics.rows_out;
  }
  return sum;
}

int FindOperator(const std::vector<OperatorMetricsEntry>& entries,
                 const std::string& name_substr, size_t from = 0) {
  for (size_t i = from; i < entries.size(); ++i) {
    if (entries[i].name.find(name_substr) != std::string::npos) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(ResultMetricsTest, JoinRowsInEqualsSumOfChildrenRowsOut) {
  Database db;
  MustExecute(db, "CREATE TABLE a (x INTEGER)");
  MustExecute(db, "CREATE TABLE b (y INTEGER)");
  MustExecute(db, "INSERT INTO a VALUES (1), (2), (3)");
  MustExecute(db, "INSERT INTO b VALUES (2), (3), (4), (5)");
  const ResultSet rs =
      MustExecute(db, "SELECT x, y FROM a, b WHERE x = y");
  EXPECT_EQ(rs.NumRows(), 2u);
  const std::vector<OperatorMetricsEntry>& entries = rs.metrics();
  const int join = FindOperator(entries, "join");
  ASSERT_GE(join, 0) << rs.MetricsToString();
  // The join consumed exactly what its two inputs produced: 3 + 4 rows.
  EXPECT_EQ(entries[join].rows_in, 7);
  EXPECT_EQ(entries[join].rows_in,
            ChildrenRowsOut(entries, static_cast<size_t>(join)));
}

TEST(ResultMetricsTest, EveryOperatorRowsInMatchesItsChildren) {
  Database db;
  CreateSeqTable(db, 64);
  const ResultSet rs = MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 2 FOLLOWING) FROM seq WHERE pos > 4 ORDER BY pos");
  const std::vector<OperatorMetricsEntry>& entries = rs.metrics();
  ASSERT_FALSE(entries.empty());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].rows_in, ChildrenRowsOut(entries, i))
        << "operator " << entries[i].name << "\n"
        << rs.MetricsToString();
  }
  // The plan root produced the result cardinality.
  EXPECT_EQ(entries[0].metrics.rows_out,
            static_cast<int64_t>(rs.NumRows()));
}

TEST(ResultMetricsTest, SortPeakBufferedEqualsInputCardinality) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  std::string insert = "INSERT INTO t VALUES ";
  constexpr int kRows = 100;
  for (int i = 0; i < kRows; ++i) {
    insert += (i ? ", (" : "(") + std::to_string((i * 31) % kRows) + ")";
  }
  MustExecute(db, insert);
  const ResultSet rs = MustExecute(db, "SELECT a FROM t ORDER BY a");
  const int sort = FindOperator(rs.metrics(), "sort");
  ASSERT_GE(sort, 0) << rs.MetricsToString();
  // The sort buffers its whole input before emitting the first row.
  EXPECT_EQ(rs.metrics()[static_cast<size_t>(sort)].metrics
                .peak_buffered_rows,
            kRows);
  EXPECT_EQ(rs.metrics()[static_cast<size_t>(sort)].rows_in, kRows);
}

TEST(ResultMetricsTest, UnionAllRowsInSumsBothBranches) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2), (3)");
  const ResultSet rs = MustExecute(
      db, "SELECT a FROM t UNION ALL SELECT a FROM t WHERE a > 1");
  EXPECT_EQ(rs.NumRows(), 5u);
  const std::vector<OperatorMetricsEntry>& entries = rs.metrics();
  const int u = FindOperator(entries, "union");
  ASSERT_GE(u, 0) << rs.MetricsToString();
  EXPECT_EQ(entries[static_cast<size_t>(u)].rows_in, 5);
  EXPECT_EQ(entries[static_cast<size_t>(u)].rows_in,
            ChildrenRowsOut(entries, static_cast<size_t>(u)));
}

TEST(ResultMetricsTest, TreeKeepsSelfJoinScansApart) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");  // no index: plain scans
  MustExecute(db, "INSERT INTO t VALUES (1), (2), (3), (3)");
  const ResultSet rs = MustExecute(
      db, "SELECT t1.a FROM t t1, t t2 WHERE t1.a = t2.a");
  const std::vector<OperatorMetricsEntry>& entries = rs.metrics();
  // Both sides of the self join are separate per-instance entries.
  const int first_scan = FindOperator(entries, "scan");
  ASSERT_GE(first_scan, 0) << rs.MetricsToString();
  const int second_scan =
      FindOperator(entries, "scan", static_cast<size_t>(first_scan) + 1);
  ASSERT_GE(second_scan, 0) << rs.MetricsToString();

  const std::string tree = FormatMetricsTree(entries);
  // The tree keeps one annotated line per instance.
  size_t tree_scan_lines = 0;
  size_t at = 0;
  while ((at = tree.find("scan", at)) != std::string::npos) {
    ++tree_scan_lines;
    at += 4;
  }
  EXPECT_EQ(tree_scan_lines, 2u) << tree;
  // Tree connectors mark child nodes.
  EXPECT_NE(tree.find("└─"), std::string::npos) << tree;
}

TEST(ResultMetricsTest, DmlResultsCarryNoMetrics) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  const ResultSet rs = MustExecute(db, "INSERT INTO t VALUES (1)");
  EXPECT_TRUE(rs.metrics().empty());
  EXPECT_EQ(rs.MetricsToString(), "");
  EXPECT_EQ(rs.MetricsTreeToString(), "");
}

}  // namespace
}  // namespace rfv
