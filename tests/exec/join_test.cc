#include <gtest/gtest.h>

#include "exec/operators.h"
#include "expr/builder.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;
using testutil::RowsEqual;

// --- probe extraction unit tests -------------------------------------------

class ProbeExtractionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "matseq", Schema({ColumnDef("pos", DataType::kInt64),
                          ColumnDef("val", DataType::kDouble)}));
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(
          table_->Insert(Row({Value::Int(i), Value::Double(i)})).ok());
    }
    ASSERT_TRUE(table_->CreateIndex("pk", "pos").ok());
  }

  // Joined schema: left = (pos, val) columns 0-1, right = columns 2-3.
  static constexpr size_t kLeftWidth = 2;
  static constexpr size_t kRightPos = 2;

  std::unique_ptr<Table> table_;
};

TEST_F(ProbeExtractionTest, EqualityPoint) {
  // right.pos = left.pos + 1
  const ExprPtr cond =
      eb::Eq(eb::Col(kRightPos, DataType::kInt64),
             eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->point_exprs.size(), 1u);
  EXPECT_FALSE(probe->approximate);
  EXPECT_EQ(probe->residual, nullptr);
}

TEST_F(ProbeExtractionTest, ReversedEquality) {
  const ExprPtr cond = eb::Eq(eb::Col(0, DataType::kInt64),
                              eb::Col(kRightPos, DataType::kInt64));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->point_exprs.size(), 1u);
}

TEST_F(ProbeExtractionTest, InWithRightColumnNeedle) {
  // right.pos IN (left.pos - 1, left.pos)
  std::vector<ExprPtr> candidates;
  candidates.push_back(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Col(0, DataType::kInt64));
  const ExprPtr cond =
      eb::In(eb::Col(kRightPos, DataType::kInt64), std::move(candidates));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->point_exprs.size(), 2u);
  EXPECT_FALSE(probe->approximate);
}

TEST_F(ProbeExtractionTest, InvertedInPaperFig2Shape) {
  // left.pos IN (right.pos - 1, right.pos, right.pos + 1)
  std::vector<ExprPtr> candidates;
  candidates.push_back(
      eb::Sub(eb::Col(kRightPos, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Col(kRightPos, DataType::kInt64));
  candidates.push_back(
      eb::Add(eb::Col(kRightPos, DataType::kInt64), eb::Int(1)));
  const ExprPtr cond =
      eb::In(eb::Col(0, DataType::kInt64), std::move(candidates));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->point_exprs.size(), 3u);
  EXPECT_FALSE(probe->approximate);
}

TEST_F(ProbeExtractionTest, BetweenRange) {
  const ExprPtr cond = eb::Between(
      eb::Col(kRightPos, DataType::kInt64),
      eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(2)),
      eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->point_exprs.empty());
  ASSERT_NE(probe->range_lo, nullptr);
  ASSERT_NE(probe->range_hi, nullptr);
  EXPECT_FALSE(probe->approximate);
}

TEST_F(ProbeExtractionTest, StrictBoundIsApproximate) {
  // right.pos < left.pos → approximate upper bound, residual re-check.
  const ExprPtr cond = eb::Lt(eb::Col(kRightPos, DataType::kInt64),
                              eb::Col(0, DataType::kInt64));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->approximate);
  ASSERT_NE(probe->range_hi, nullptr);
  EXPECT_EQ(probe->range_lo, nullptr);
}

TEST_F(ProbeExtractionTest, RangeConjunctsIntersect) {
  // right.pos >= left.pos - 3 AND right.pos <= left.pos
  const ExprPtr cond = eb::And(
      eb::Ge(eb::Col(kRightPos, DataType::kInt64),
             eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(3))),
      eb::Le(eb::Col(kRightPos, DataType::kInt64),
             eb::Col(0, DataType::kInt64)));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_NE(probe->range_lo, nullptr);
  EXPECT_NE(probe->range_hi, nullptr);
  EXPECT_FALSE(probe->approximate);
}

TEST_F(ProbeExtractionTest, DisjunctionUnionsProbes) {
  // The MaxOA Fig. 10 shape: (r < l AND MOD..) OR (r < l - 4 AND MOD..).
  const auto mod_eq = [&](int64_t shift) {
    return eb::Eq(
        eb::Mod(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(shift)),
                eb::Int(4)),
        eb::Mod(eb::Col(kRightPos, DataType::kInt64), eb::Int(4)));
  };
  ExprPtr branch1 = eb::And(eb::Gt(eb::Col(0, DataType::kInt64),
                                   eb::Col(kRightPos, DataType::kInt64)),
                            mod_eq(0));
  ExprPtr branch2 = eb::And(
      eb::Gt(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(4)),
             eb::Col(kRightPos, DataType::kInt64)),
      mod_eq(1));
  const ExprPtr cond = eb::Or(std::move(branch1), std::move(branch2));
  const auto probe = TryExtractIndexProbe(*cond, kLeftWidth, table_.get());
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->approximate);
  EXPECT_NE(probe->range_hi, nullptr);  // hull of the two upper bounds
}

TEST_F(ProbeExtractionTest, NoIndexNoProbe) {
  Table no_index("t", Schema({ColumnDef("pos", DataType::kInt64)}));
  const ExprPtr cond =
      eb::Eq(eb::Col(1, DataType::kInt64), eb::Col(0, DataType::kInt64));
  EXPECT_FALSE(TryExtractIndexProbe(*cond, 1, &no_index).has_value());
}

TEST_F(ProbeExtractionTest, UnusableConditionNoProbe) {
  // MOD(right.pos, 4) = 2 — no usable pattern on the raw column.
  const ExprPtr cond = eb::Eq(
      eb::Mod(eb::Col(kRightPos, DataType::kInt64), eb::Int(4)), eb::Int(2));
  EXPECT_FALSE(
      TryExtractIndexProbe(*cond, kLeftWidth, table_.get()).has_value());
}

// --- end-to-end equivalence: INLJ == NLJ over many predicates --------------

struct JoinCase {
  const char* name;
  const char* sql;
};

class JoinEquivalenceTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinEquivalenceTest, IndexAndNestedLoopAgree) {
  Database db;
  CreateSeqTable(db, 60);
  const std::string sql = GetParam().sql;
  const ResultSet with_index = MustExecute(db, sql);
  db.options().exec.enable_index_nested_loop_join = false;
  db.options().exec.enable_hash_join = false;
  const ResultSet without_index = MustExecute(db, sql);
  EXPECT_TRUE(RowsEqual(with_index, without_index)) << GetParam().name;
}

// The hash join, columnar and row-at-a-time, must agree with nested
// loops on every equi-join shape, including duplicates, NULL keys and
// left outer joins.
class HashJoinEquivalenceTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(HashJoinEquivalenceTest, HashJoinMatchesNestedLoop) {
  Database db;
  MustExecute(db, "CREATE TABLE l (k INTEGER, v DOUBLE)");
  MustExecute(db, "CREATE TABLE r (k INTEGER, w DOUBLE)");
  MustExecute(db,
              "INSERT INTO l VALUES (1, 10), (2, 20), (2, 21), (3, 30), "
              "(NULL, 40), (7, 70)");
  MustExecute(db,
              "INSERT INTO r VALUES (2, 200), (2, 201), (3, 300), "
              "(NULL, 400), (9, 900)");
  const std::string sql = GetParam().sql;

  db.options().exec.enable_hash_join = true;
  db.options().exec.use_vectorized_execution = true;
  const ResultSet hash_vector = MustExecute(db, sql);

  db.options().exec.use_vectorized_execution = false;
  const ResultSet hash_row = MustExecute(db, sql);

  db.options().exec.enable_hash_join = false;
  db.options().exec.enable_index_nested_loop_join = false;
  const ResultSet nlj = MustExecute(db, sql);

  EXPECT_TRUE(RowsEqual(hash_vector, nlj))
      << GetParam().name << " (vector hash vs nlj)";
  EXPECT_TRUE(RowsEqual(hash_row, nlj))
      << GetParam().name << " (row hash vs nlj)";
}

INSTANTIATE_TEST_SUITE_P(
    EquiShapes, HashJoinEquivalenceTest,
    ::testing::Values(
        JoinCase{"inner_with_duplicates",
                 "SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k ORDER BY "
                 "1, 2, 3"},
        JoinCase{"left_outer_null_padding",
                 "SELECT l.k, l.v, r.w FROM l LEFT OUTER JOIN r ON l.k = "
                 "r.k ORDER BY 2, 3"},
        JoinCase{"residual_condition",
                 "SELECT l.k, r.w FROM l JOIN r ON l.k = r.k AND l.v + r.w "
                 "> 220 ORDER BY 1, 2"},
        JoinCase{"computed_keys",
                 "SELECT l.k, r.k FROM l JOIN r ON l.k + 1 = r.k - 1 ORDER "
                 "BY 1, 2"},
        JoinCase{"aggregate_above",
                 "SELECT l.k, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY "
                 "l.k ORDER BY 1"}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Predicates, JoinEquivalenceTest,
    ::testing::Values(
        JoinCase{"equality",
                 "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s1.pos = "
                 "s2.pos ORDER BY 1, 2"},
        JoinCase{"shifted_equality",
                 "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos = "
                 "s1.pos + 3 ORDER BY 1, 2"},
        JoinCase{"in_right_needle",
                 "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos IN "
                 "(s1.pos - 1, s1.pos) ORDER BY 1, 2"},
        JoinCase{"in_inverted_fig2",
                 "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s1.pos IN "
                 "(s2.pos - 1, s2.pos, s2.pos + 1) ORDER BY 1, 2"},
        JoinCase{"between",
                 "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos "
                 "BETWEEN s1.pos - 2 AND s1.pos + 2 ORDER BY 1, 2"},
        JoinCase{"strict_range",
                 "SELECT s1.pos, COUNT(*) FROM seq s1, seq s2 WHERE s2.pos < "
                 "s1.pos GROUP BY s1.pos ORDER BY 1"},
        JoinCase{"two_sided_range",
                 "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE "
                 "s2.pos >= s1.pos - 3 AND s2.pos <= s1.pos GROUP BY s1.pos "
                 "ORDER BY 1"},
        JoinCase{"disjunctive_mod",
                 "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE "
                 "((s1.pos > s2.pos) AND (MOD(s1.pos, 4) = MOD(s2.pos, 4))) "
                 "OR ((s1.pos - 4 > s2.pos) AND (MOD(s1.pos - 1, 4) = "
                 "MOD(s2.pos, 4))) GROUP BY s1.pos ORDER BY 1"},
        JoinCase{"left_outer",
                 "SELECT s1.pos, s2.pos FROM seq s1 LEFT OUTER JOIN seq s2 "
                 "ON s2.pos = s1.pos - 50 ORDER BY 1, 2"},
        JoinCase{"residual_filter",
                 "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos = "
                 "s1.pos + 1 AND s2.val > 0 ORDER BY 1, 2"}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace rfv
