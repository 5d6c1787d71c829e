#include "exec/executor.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;
using testutil::RowsEqual;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t (a INTEGER, b DOUBLE, s VARCHAR)");
    MustExecute(db_,
                "INSERT INTO t VALUES (1, 10.0, 'x'), (2, 20.0, 'y'), "
                "(3, NULL, 'x'), (4, 40.0, NULL), (2, 25.0, 'z')");
  }
  Database db_;
};

TEST_F(ExecutorTest, ScanProducesAllRows) {
  EXPECT_EQ(MustExecute(db_, "SELECT * FROM t").NumRows(), 5u);
}

TEST_F(ExecutorTest, FilterKeepsMatching) {
  const ResultSet rs = MustExecute(db_, "SELECT a FROM t WHERE a = 2");
  EXPECT_EQ(rs.NumRows(), 2u);
}

TEST_F(ExecutorTest, FilterNullComparisonDropsRow) {
  // b = NULL row: comparison yields NULL → row filtered out.
  EXPECT_EQ(MustExecute(db_, "SELECT a FROM t WHERE b > 0").NumRows(), 4u);
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  const ResultSet rs =
      MustExecute(db_, "SELECT a * 2 + 1 AS c FROM t WHERE a = 3");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::Int(7));
}

TEST_F(ExecutorTest, OrderByAscDescWithNulls) {
  const ResultSet rs = MustExecute(db_, "SELECT b FROM t ORDER BY b");
  ASSERT_EQ(rs.NumRows(), 5u);
  EXPECT_TRUE(rs.at(0, 0).is_null());  // NULLs sort first
  EXPECT_EQ(rs.at(1, 0), Value::Double(10));
  const ResultSet desc = MustExecute(db_, "SELECT b FROM t ORDER BY b DESC");
  EXPECT_EQ(desc.at(0, 0), Value::Double(40));
  EXPECT_TRUE(desc.at(4, 0).is_null());
}

TEST_F(ExecutorTest, SortIsStable) {
  // The columnar sort (vector mode, the default) and the row sort.
  for (const bool vectorized : {true, false}) {
    db_.options().exec.use_vectorized_execution = vectorized;
    const ResultSet rs =
        MustExecute(db_, "SELECT a, b FROM t ORDER BY a");
    // Two a=2 rows keep insertion order (20 before 25).
    EXPECT_EQ(rs.at(1, 1), Value::Double(20)) << vectorized;
    EXPECT_EQ(rs.at(2, 1), Value::Double(25)) << vectorized;
  }
}

TEST_F(ExecutorTest, Limit) {
  EXPECT_EQ(MustExecute(db_, "SELECT a FROM t LIMIT 2").NumRows(), 2u);
  EXPECT_EQ(MustExecute(db_, "SELECT a FROM t LIMIT 0").NumRows(), 0u);
  EXPECT_EQ(MustExecute(db_, "SELECT a FROM t LIMIT 99").NumRows(), 5u);
}

TEST_F(ExecutorTest, GlobalAggregates) {
  const ResultSet rs = MustExecute(
      db_, "SELECT COUNT(*), COUNT(b), SUM(a), AVG(b), MIN(b), MAX(s) "
           "FROM t");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::Int(5));
  EXPECT_EQ(rs.at(0, 1), Value::Int(4));  // COUNT ignores NULL
  EXPECT_EQ(rs.at(0, 2), Value::Int(12));
  EXPECT_DOUBLE_EQ(rs.at(0, 3).AsDouble(), 95.0 / 4);
  EXPECT_EQ(rs.at(0, 4), Value::Double(10));
  EXPECT_EQ(rs.at(0, 5), Value::String("z"));  // MAX over strings
}

TEST_F(ExecutorTest, GlobalAggregateOnEmptyInput) {
  MustExecute(db_, "CREATE TABLE empty (a INTEGER)");
  const ResultSet rs =
      MustExecute(db_, "SELECT COUNT(*), SUM(a), MIN(a) FROM empty");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::Int(0));
  EXPECT_TRUE(rs.at(0, 1).is_null());
  EXPECT_TRUE(rs.at(0, 2).is_null());
}

TEST_F(ExecutorTest, GroupByWithNullGroup) {
  const ResultSet rs = MustExecute(
      db_, "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s");
  // Groups: NULL, 'x', 'y', 'z' — NULL forms its own group.
  ASSERT_EQ(rs.NumRows(), 4u);
  EXPECT_TRUE(rs.at(0, 0).is_null());
  EXPECT_EQ(rs.at(0, 1), Value::Int(1));
}

TEST_F(ExecutorTest, GroupByEmptyInputYieldsNoRows) {
  MustExecute(db_, "CREATE TABLE empty2 (a INTEGER)");
  EXPECT_EQ(
      MustExecute(db_, "SELECT a, COUNT(*) FROM empty2 GROUP BY a").NumRows(),
      0u);
}

TEST_F(ExecutorTest, Having) {
  const ResultSet rs = MustExecute(
      db_,
      "SELECT a, COUNT(*) AS c FROM t GROUP BY a HAVING COUNT(*) > 1");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::Int(2));
}

TEST_F(ExecutorTest, UnionAllConcatenates) {
  const ResultSet rs = MustExecute(
      db_, "SELECT a FROM t UNION ALL SELECT a FROM t WHERE a = 1");
  EXPECT_EQ(rs.NumRows(), 6u);
}

TEST_F(ExecutorTest, CrossJoinCardinality) {
  EXPECT_EQ(MustExecute(db_, "SELECT 1 FROM t t1, t t2").NumRows(), 25u);
}

TEST_F(ExecutorTest, InnerJoinWithCondition) {
  const ResultSet rs = MustExecute(
      db_, "SELECT t1.a, t2.a FROM t t1 JOIN t t2 ON t1.a = t2.a + 1 "
           "ORDER BY t1.a, t2.a");
  // matches: (2,1)x2, (3,2)x2, (4,3)
  EXPECT_EQ(rs.NumRows(), 5u);
}

TEST_F(ExecutorTest, LeftOuterJoinPadsNulls) {
  MustExecute(db_, "CREATE TABLE d (k INTEGER, name VARCHAR)");
  MustExecute(db_, "INSERT INTO d VALUES (1, 'one'), (2, 'two')");
  const ResultSet rs = MustExecute(
      db_,
      "SELECT t.a, d.name FROM t LEFT OUTER JOIN d ON t.a = d.k "
      "ORDER BY t.a");
  ASSERT_EQ(rs.NumRows(), 5u);
  EXPECT_EQ(rs.at(0, 1), Value::String("one"));
  EXPECT_TRUE(rs.at(3, 1).is_null());  // a=3 has no match
  EXPECT_TRUE(rs.at(4, 1).is_null());  // a=4 has no match
}

TEST_F(ExecutorTest, LeftOuterJoinNullKeyNeverMatches) {
  MustExecute(db_, "CREATE TABLE n (k INTEGER)");
  MustExecute(db_, "INSERT INTO n VALUES (NULL)");
  const ResultSet rs = MustExecute(
      db_, "SELECT n.k, t.a FROM n LEFT OUTER JOIN t ON n.k = t.a");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_TRUE(rs.at(0, 1).is_null());
}

TEST_F(ExecutorTest, JoinStrategiesAgree) {
  // The same join executed with all strategies enabled/disabled.
  const std::string sql =
      "SELECT t1.a, t2.b FROM t t1, t t2 WHERE t1.a = t2.a ORDER BY 1, 2";
  const ResultSet reference = MustExecute(db_, sql);
  db_.options().exec.enable_hash_join = false;
  const ResultSet nlj = MustExecute(db_, sql);
  db_.options().exec.enable_hash_join = true;
  EXPECT_TRUE(RowsEqual(reference, nlj));
}

TEST_F(ExecutorTest, DivisionByZeroSurfacesAsError) {
  const Result<ResultSet> r = db_.Execute("SELECT a / 0 FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecutorTest, SubqueryInFrom) {
  const ResultSet rs = MustExecute(
      db_,
      "SELECT sub.g, sub.c FROM (SELECT a AS g, COUNT(*) AS c FROM t GROUP "
      "BY a) sub WHERE sub.c > 1");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0), Value::Int(2));
}

TEST_F(ExecutorTest, CaseEndToEnd) {
  const ResultSet rs = MustExecute(
      db_,
      "SELECT a, CASE WHEN a < 2 THEN 'small' WHEN a < 4 THEN 'mid' ELSE "
      "'big' END FROM t ORDER BY a, 2");
  EXPECT_EQ(rs.at(0, 1), Value::String("small"));
  EXPECT_EQ(rs.at(4, 1), Value::String("big"));
}

}  // namespace
}  // namespace rfv
