// Regression: signed int64 `+`, `-`, `*`, unary minus, `/` by -1, ABS
// and MOD at the edges of int64 were undefined behaviour in the row
// evaluator, the vector evaluator and the band join's SUM fold walk
// (UBSan: "signed integer overflow"). Each now raises the
// ExecutionError "integer overflow in ..." that INTEGER SUM raises, in
// both execution modes; the folded SUM must fail exactly where the
// unfolded plan fails. The .sql twin (integer_overflow.sql) replays the
// core statements.

#include <gtest/gtest.h>

#include <string>

#include "db/database.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class IntegerOverflowTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    db_.options().exec.use_vectorized_execution = GetParam();
    MustExecute(db_, "CREATE TABLE t (pos INTEGER, v INTEGER)");
    // v = 2^62 at pos 1.
    MustExecute(db_,
                "INSERT INTO t VALUES (1, 4611686018427387904), (2, 1), "
                "(3, 2)");
  }

  void ExpectOverflow(const std::string& sql) {
    const Result<ResultSet> rs = db_.Execute(sql);
    ASSERT_FALSE(rs.ok()) << sql;
    EXPECT_EQ(rs.status().code(), StatusCode::kExecutionError) << sql;
    EXPECT_NE(rs.status().message().find("integer overflow"),
              std::string::npos)
        << sql << ": " << rs.status().ToString();
  }

  Database db_;
};

TEST_P(IntegerOverflowTest, ProjectionRaises) {
  ExpectOverflow("SELECT pos, 4 * v FROM t");
  ExpectOverflow("SELECT pos, v * 4 FROM t");
  ExpectOverflow("SELECT pos, v + v FROM t");
  ExpectOverflow("SELECT pos, 0 - v - v - v FROM t");
  // Rows that stay in range still compute.
  const Result<ResultSet> rs = db_.Execute("SELECT 4 * v FROM t WHERE pos = 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->at(0, 0), Value::Int(8));
}

TEST_P(IntegerOverflowTest, Int64MinEdgesRaise) {
  const std::string min = "(-9223372036854775807 - 1)";
  ExpectOverflow("SELECT -(" + min + " + pos - 1) FROM t");
  ExpectOverflow("SELECT (" + min + " + pos - 1) / -1 FROM t");
  ExpectOverflow("SELECT ABS(" + min + " + pos - 1) FROM t");
  // MOD(INT64_MIN, -1) is 0, not a trap.
  const Result<ResultSet> rs =
      db_.Execute("SELECT MOD(" + min + " + pos - 1, -1) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->at(0, 0), Value::Int(0));
}

TEST_P(IntegerOverflowTest, FoldedSumRaises) {
  const std::string sql =
      "SELECT s1.pos, SUM(4 * s2.v) FROM t s1, t s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos";
  ExpectOverflow(sql);
  // The unfolded plan (no band join) fails the same way.
  db_.options().exec.enable_merge_band_join = false;
  ExpectOverflow(sql);
}

INSTANTIATE_TEST_SUITE_P(BothModes, IntegerOverflowTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Vector" : "Row";
                         });

}  // namespace
}  // namespace rfv
