// Failure injection: runtime errors raised deep inside operators must
// propagate as clean Status values through every operator combination —
// never crash, never return partial results as success.

#include <gtest/gtest.h>

#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateSeqTable(db_, 10);
    MustExecute(db_, "CREATE TABLE z (a INTEGER, b INTEGER)");
    MustExecute(db_, "INSERT INTO z VALUES (1, 1), (2, 0), (3, 2)");
  }

  void ExpectExecutionError(const std::string& sql) {
    const Result<ResultSet> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << sql;
  }

  Database db_;
};

TEST_F(FailureInjectionTest, DivisionByZeroInProjection) {
  ExpectExecutionError("SELECT a / b FROM z");
}

TEST_F(FailureInjectionTest, DivisionByZeroInFilter) {
  ExpectExecutionError("SELECT a FROM z WHERE 10 / b > 1");
}

TEST_F(FailureInjectionTest, ModByZeroInJoinCondition) {
  ExpectExecutionError(
      "SELECT z1.a FROM z z1, z z2 WHERE MOD(z1.a, z2.b) = 0");
}

TEST_F(FailureInjectionTest, ErrorInsideAggregateArgument) {
  ExpectExecutionError("SELECT SUM(a / b) FROM z");
}

TEST_F(FailureInjectionTest, ErrorInsideGroupKey) {
  ExpectExecutionError("SELECT 10 / b, COUNT(*) FROM z GROUP BY 10 / b");
}

TEST_F(FailureInjectionTest, ErrorInsideWindowArgument) {
  ExpectExecutionError(
      "SELECT a, SUM(10 / b) OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM z");
}

TEST_F(FailureInjectionTest, ErrorInsideWindowPartitionKey) {
  ExpectExecutionError(
      "SELECT a, SUM(a) OVER (PARTITION BY 10 / b ORDER BY a ROWS "
      "UNBOUNDED PRECEDING) FROM z");
}

TEST_F(FailureInjectionTest, ErrorInsideSortKey) {
  ExpectExecutionError("SELECT a FROM z ORDER BY 10 / b");
}

TEST_F(FailureInjectionTest, ErrorInsideHavingAfterCleanAggregation) {
  ExpectExecutionError(
      "SELECT b, COUNT(*) FROM z GROUP BY b HAVING SUM(10 / b) > 0");
}

TEST_F(FailureInjectionTest, ErrorInSecondUnionBranch) {
  ExpectExecutionError(
      "SELECT a FROM z UNION ALL SELECT a / b FROM z");
}

TEST_F(FailureInjectionTest, ErrorInUpdateExpression) {
  const Result<ResultSet> r = db_.Execute("UPDATE z SET a = a / b");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  // Two-phase UPDATE: nothing was applied.
  EXPECT_EQ(MustExecute(db_, "SELECT SUM(a) FROM z").at(0, 0),
            Value::Int(6));
}

TEST_F(FailureInjectionTest, ErrorInDeletePredicate) {
  const Result<ResultSet> r = db_.Execute("DELETE FROM z WHERE 1 / b > 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM z").at(0, 0),
            Value::Int(3));
}

TEST_F(FailureInjectionTest, ErrorInInsertValues) {
  EXPECT_FALSE(db_.Execute("INSERT INTO z VALUES (1 / 0, 1)").ok());
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM z").at(0, 0),
            Value::Int(3));
}

TEST_F(FailureInjectionTest, DatabaseRemainsUsableAfterErrors) {
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(db_.Execute("SELECT a / b FROM z").ok());
  }
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM z").at(0, 0),
            Value::Int(3));
  // Views still materialize and rewrite after failed statements.
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db_,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_EQ(rs.rewrite_method(), "direct");
}

TEST_F(FailureInjectionTest, ErrorInsideIndexProbeExpression) {
  // The probe expression itself divides by zero while probing.
  ExpectExecutionError(
      "SELECT s1.pos FROM seq s1, seq s2 WHERE s2.pos = s1.pos / (s1.pos "
      "- s1.pos)");
}

TEST_F(FailureInjectionTest, CreateViewOverMissingColumnFails) {
  EXPECT_FALSE(db_.Execute("CREATE MATERIALIZED VIEW v AS SELECT nope, "
                           "SUM(val) OVER (ORDER BY nope ROWS BETWEEN 1 "
                           "PRECEDING AND 1 FOLLOWING) FROM seq")
                   .ok());
  EXPECT_FALSE(db_.catalog()->HasTable("v"));  // no half-created content
}

}  // namespace
}  // namespace rfv
