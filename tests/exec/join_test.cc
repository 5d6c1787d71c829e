#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "exec/operators.h"
#include "expr/builder.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;
using testutil::RowsEqual;

// --- band spec extraction unit tests ----------------------------------------
//
// TryExtractBandJoin is the one join-predicate recognizer: the merge band
// join and the index nested-loop join both run the spec it returns.

class BandExtractionTest : public ::testing::Test {
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

  /// The index join's extraction: INTEGER columns with an index.
  std::optional<BandJoinSpec> Extract(const Expr& cond) {
    return TryExtractBandJoin(cond, kLeftWidth, table_.get(),
                              /*indexed_only=*/true);
  }

  // Joined schema: left = (pos, val) columns 0-1, right = columns 2-3.
  static constexpr size_t kLeftWidth = 2;
  static constexpr size_t kRightPos = 2;

  std::unique_ptr<Table> table_;
};

TEST_F(BandExtractionTest, EqualityPoint) {
  // right.pos = left.pos + 1
  const ExprPtr cond =
      eb::Eq(eb::Col(kRightPos, DataType::kInt64),
             eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  EXPECT_TRUE(spec->bands[0].is_point);
  EXPECT_TRUE(spec->IsSinglePlainPoint());
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, ReversedEquality) {
  const ExprPtr cond = eb::Eq(eb::Col(0, DataType::kInt64),
                              eb::Col(kRightPos, DataType::kInt64));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  EXPECT_TRUE(spec->bands[0].is_point);
}

TEST_F(BandExtractionTest, InWithRightColumnNeedle) {
  // right.pos IN (left.pos - 1, left.pos)
  std::vector<ExprPtr> candidates;
  candidates.push_back(eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Col(0, DataType::kInt64));
  const ExprPtr cond =
      eb::In(eb::Col(kRightPos, DataType::kInt64), std::move(candidates));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 2u);
  for (const BandSpec& band : spec->bands) EXPECT_TRUE(band.is_point);
  EXPECT_FALSE(spec->approximate);
}

TEST_F(BandExtractionTest, InvertedInPaperFig2Shape) {
  // left.pos IN (right.pos - 1, right.pos, right.pos + 1)
  std::vector<ExprPtr> candidates;
  candidates.push_back(
      eb::Sub(eb::Col(kRightPos, DataType::kInt64), eb::Int(1)));
  candidates.push_back(eb::Col(kRightPos, DataType::kInt64));
  candidates.push_back(
      eb::Add(eb::Col(kRightPos, DataType::kInt64), eb::Int(1)));
  const ExprPtr cond =
      eb::In(eb::Col(0, DataType::kInt64), std::move(candidates));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 3u);
  for (const BandSpec& band : spec->bands) EXPECT_TRUE(band.is_point);
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, BetweenRange) {
  const ExprPtr cond = eb::Between(
      eb::Col(kRightPos, DataType::kInt64),
      eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(2)),
      eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  EXPECT_FALSE(spec->bands[0].is_point);
  EXPECT_NE(spec->bands[0].lo, nullptr);
  EXPECT_NE(spec->bands[0].hi, nullptr);
  EXPECT_FALSE(spec->approximate);
}

TEST_F(BandExtractionTest, StrictBoundIsExact) {
  // right.pos < left.pos: the bound tightens by one at runtime, so the
  // band is exact and nothing is left to re-check.
  const ExprPtr cond = eb::Lt(eb::Col(kRightPos, DataType::kInt64),
                              eb::Col(0, DataType::kInt64));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  EXPECT_NE(spec->bands[0].hi, nullptr);
  EXPECT_TRUE(spec->bands[0].hi_strict);
  EXPECT_EQ(spec->bands[0].lo, nullptr);
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, RangeConjunctsIntersect) {
  // right.pos >= left.pos - 3 AND right.pos <= left.pos
  const ExprPtr cond = eb::And(
      eb::Ge(eb::Col(kRightPos, DataType::kInt64),
             eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(3))),
      eb::Le(eb::Col(kRightPos, DataType::kInt64),
             eb::Col(0, DataType::kInt64)));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 1u);
  EXPECT_NE(spec->bands[0].lo, nullptr);
  EXPECT_NE(spec->bands[0].hi, nullptr);
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, DisjunctionMakesOneExactBandPerBranch) {
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
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->bands.size(), 2u);
  for (const BandSpec& band : spec->bands) {
    EXPECT_NE(band.hi, nullptr);
    EXPECT_TRUE(band.hi_strict);
    EXPECT_EQ(band.modulus, 4);
  }
  EXPECT_FALSE(spec->approximate);
  EXPECT_EQ(spec->residual, nullptr);
}

TEST_F(BandExtractionTest, UnfoldableBranchConjunctRechecksCondition) {
  // (r BETWEEN l - 2 AND l AND r.val > 0) OR r = l + 3: the val
  // conjunct widens its branch's band, so the residual is the whole
  // condition.
  ExprPtr branch1 = eb::And(
      eb::Between(eb::Col(kRightPos, DataType::kInt64),
                  eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(2)),
                  eb::Col(0, DataType::kInt64)),
      eb::Gt(eb::Col(kRightPos + 1, DataType::kDouble), eb::Dbl(0)));
  ExprPtr branch2 =
      eb::Eq(eb::Col(kRightPos, DataType::kInt64),
             eb::Add(eb::Col(0, DataType::kInt64), eb::Int(3)));
  const ExprPtr cond = eb::Or(std::move(branch1), std::move(branch2));
  const auto spec = Extract(*cond);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->bands.size(), 2u);
  EXPECT_TRUE(spec->approximate);
  ASSERT_NE(spec->residual, nullptr);
  EXPECT_EQ(spec->residual->ToString(), cond->ToString());
}

TEST_F(BandExtractionTest, NoIndexNoSpecForIndexJoin) {
  Table no_index("t", Schema({ColumnDef("pos", DataType::kInt64)}));
  const ExprPtr cond =
      eb::Eq(eb::Col(1, DataType::kInt64), eb::Col(0, DataType::kInt64));
  EXPECT_FALSE(TryExtractBandJoin(*cond, 1, &no_index, /*indexed_only=*/true)
                   .has_value());
  EXPECT_TRUE(TryExtractBandJoin(*cond, 1, &no_index, /*indexed_only=*/false)
                  .has_value());
}

TEST_F(BandExtractionTest, UnusableConditionNoSpec) {
  // MOD(right.pos, 4) = 2 — no usable pattern on the raw column.
  const ExprPtr cond = eb::Eq(
      eb::Mod(eb::Col(kRightPos, DataType::kInt64), eb::Int(4)), eb::Int(2));
  EXPECT_FALSE(Extract(*cond).has_value());
}

TEST(BandExtractionColumnFilterTest, IndexJoinKeysOnlyIndexedIntegers) {
  // Right side (pos INTEGER indexed, k INTEGER, d DOUBLE indexed); the
  // left side is one INTEGER column, so right columns start at 1.
  Table t("t", Schema({ColumnDef("pos", DataType::kInt64),
                       ColumnDef("k", DataType::kInt64),
                       ColumnDef("d", DataType::kDouble)}));
  ASSERT_TRUE(t.Insert(Row({Value::Int(1), Value::Int(2), Value::Double(3)}))
                  .ok());
  ASSERT_TRUE(t.CreateIndex("pk", "pos").ok());
  ASSERT_TRUE(t.CreateIndex("dk", "d").ok());
  const auto range_on = [](size_t column, DataType type) {
    return eb::Between(eb::Col(column, type),
                       eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)),
                       eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  };

  // The indexed INTEGER column serves both joins.
  const ExprPtr on_pos = range_on(1, DataType::kInt64);
  for (const bool indexed_only : {false, true}) {
    const auto spec = TryExtractBandJoin(*on_pos, 1, &t, indexed_only);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->right_column, 0u);
  }

  // An unindexed INTEGER column serves the band join only.
  const ExprPtr on_k = range_on(2, DataType::kInt64);
  const auto band = TryExtractBandJoin(*on_k, 1, &t, /*indexed_only=*/false);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->right_column, 1u);
  EXPECT_FALSE(
      TryExtractBandJoin(*on_k, 1, &t, /*indexed_only=*/true).has_value());

  // An indexed DOUBLE column serves neither.
  const ExprPtr on_d = range_on(3, DataType::kDouble);
  for (const bool indexed_only : {false, true}) {
    EXPECT_FALSE(TryExtractBandJoin(*on_d, 1, &t, indexed_only).has_value());
  }
}

// --- which join operator a plan runs ---------------------------------------

/// The join operators a query's plan ran, pre-order.
std::vector<std::string> JoinOperators(const ResultSet& rs) {
  std::vector<std::string> joins;
  for (const OperatorMetricsEntry& e : rs.metrics()) {
    if (e.name.find("join") != std::string::npos) joins.push_back(e.name);
  }
  return joins;
}

TEST(BuildJoinTest, MergeBandJoinLeavesPlainEqualityPointsToEquiJoins) {
  Database db;
  CreateSeqTable(db, 20);
  const std::string point =
      "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos = s1.pos + 1";
  using Names = std::vector<std::string>;
  EXPECT_EQ(JoinOperators(MustExecute(db, point)),
            Names{"index_nested_loop_join"});
  db.options().exec.enable_index_nested_loop_join = false;
  EXPECT_EQ(JoinOperators(MustExecute(db, point)), Names{"hash_join"});

  // An equality on an earlier column does not outrank a band on a later
  // one: the partitioned patterns' grp = grp AND pos BETWEEN ... shape.
  MustExecute(db, "CREATE TABLE p (grp INTEGER, pos INTEGER, val DOUBLE)");
  MustExecute(db, "INSERT INTO p VALUES (1, 1, 1), (1, 2, 2), (2, 1, 3)");
  EXPECT_EQ(JoinOperators(MustExecute(
                db,
                "SELECT a.pos, b.val FROM p a, p b WHERE a.grp = b.grp AND "
                "b.pos BETWEEN a.pos - 1 AND a.pos + 1")),
            Names{"merge_band_join"});

  // A point with a stride is no equi join: the band join takes it.
  const std::string stride_point =
      "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos = s1.pos + 2 "
      "AND MOD(s1.pos, 2) = MOD(s2.pos, 2)";
  EXPECT_EQ(JoinOperators(MustExecute(db, stride_point)),
            Names{"merge_band_join"});
}

// --- end-to-end equivalence: band join == index join == nested loop --------

struct BandJoinCase {
  const char* name;
  const char* sql;
  /// The join operator the engine defaults run (merge band join on).
  const char* band_join;
  /// The join operator with the merge band join off.
  const char* index_join;
};

class JoinEquivalenceTest : public ::testing::TestWithParam<BandJoinCase> {};

TEST_P(JoinEquivalenceTest, BandIndexAndNestedLoopAgree) {
  Database db;
  CreateSeqTable(db, 60);
  MustExecute(db, "CREATE INDEX seq_val ON seq (val)");
  const BandJoinCase& c = GetParam();
  using Names = std::vector<std::string>;

  const ResultSet band = MustExecute(db, c.sql);
  EXPECT_EQ(JoinOperators(band), Names{c.band_join}) << c.name;

  db.options().exec.enable_merge_band_join = false;
  const ResultSet index = MustExecute(db, c.sql);
  EXPECT_EQ(JoinOperators(index), Names{c.index_join}) << c.name;

  db.options().exec.enable_index_nested_loop_join = false;
  db.options().exec.enable_hash_join = false;
  const ResultSet nested = MustExecute(db, c.sql);
  EXPECT_EQ(JoinOperators(nested), Names{"nested_loop_join"}) << c.name;

  EXPECT_TRUE(RowsEqual(band, nested)) << c.name << " (band vs nested loop)";
  EXPECT_TRUE(RowsEqual(index, nested)) << c.name << " (index vs nested loop)";
}

constexpr const char* kBand = "merge_band_join";
constexpr const char* kIndex = "index_nested_loop_join";

INSTANTIATE_TEST_SUITE_P(
    Predicates, JoinEquivalenceTest,
    ::testing::Values(
        BandJoinCase{"equality",
                     "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s1.pos "
                     "= s2.pos ORDER BY 1, 2",
                     kIndex, kIndex},
        BandJoinCase{"shifted_equality",
                     "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos "
                     "= s1.pos + 3 ORDER BY 1, 2",
                     kIndex, kIndex},
        BandJoinCase{"in_right_needle",
                     "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos "
                     "IN (s1.pos - 1, s1.pos) ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"in_inverted_fig2",
                     "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s1.pos "
                     "IN (s2.pos - 1, s2.pos, s2.pos + 1) ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"between",
                     "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos "
                     "BETWEEN s1.pos - 2 AND s1.pos + 2 ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"strict_range",
                     "SELECT s1.pos, COUNT(*) FROM seq s1, seq s2 WHERE "
                     "s2.pos < s1.pos GROUP BY s1.pos ORDER BY 1",
                     kBand, kIndex},
        BandJoinCase{"two_sided_range",
                     "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE "
                     "s2.pos >= s1.pos - 3 AND s2.pos <= s1.pos GROUP BY "
                     "s1.pos ORDER BY 1",
                     kBand, kIndex},
        BandJoinCase{"disjunctive_mod",
                     "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE "
                     "((s1.pos > s2.pos) AND (MOD(s1.pos, 4) = MOD(s2.pos, "
                     "4))) OR ((s1.pos - 4 > s2.pos) AND (MOD(s1.pos - 1, 4) "
                     "= MOD(s2.pos, 4))) GROUP BY s1.pos ORDER BY 1",
                     kBand, kIndex},
        BandJoinCase{"left_outer",
                     "SELECT s1.pos, s2.pos FROM seq s1 LEFT OUTER JOIN seq "
                     "s2 ON s2.pos = s1.pos - 50 ORDER BY 1, 2",
                     kIndex, kIndex},
        BandJoinCase{"residual_filter",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos "
                     "= s1.pos + 1 AND s2.val > 0 ORDER BY 1, 2",
                     // s2.val > 0 filters the right scan, so neither
                     // band-driven join applies.
                     "hash_join", "hash_join"},
        BandJoinCase{"overlapping_or_bands",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE "
                     "(s2.pos BETWEEN s1.pos - 3 AND s1.pos) OR (s2.pos "
                     "BETWEEN s1.pos - 1 AND s1.pos + 2) ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"strict_both_sides",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos "
                     "> s1.pos - 3 AND s2.pos < s1.pos + 3 ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"left_outer_disjunctive_stride",
                     "SELECT s1.pos, s2.pos FROM seq s1 LEFT OUTER JOIN seq "
                     "s2 ON ((s1.pos > s2.pos) AND (MOD(s1.pos, 4) = "
                     "MOD(s2.pos, 4))) OR ((s1.pos - 4 > s2.pos) AND "
                     "(MOD(s1.pos - 1, 4) = MOD(s2.pos, 4))) ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"null_bound",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos "
                     ">= s1.pos - 2 AND s2.pos <= CASE WHEN MOD(s1.pos, 3) = "
                     "0 THEN NULL ELSE s1.pos END ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"approximate_or_branch",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE "
                     "(s2.pos BETWEEN s1.pos - 2 AND s1.pos AND s2.val > 0) "
                     "OR s2.pos = s1.pos + 3 ORDER BY 1, 2",
                     kBand, kIndex},
        BandJoinCase{"in_mixed_with_range",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s2.pos "
                     "IN (s1.pos - 1, s1.pos + 1) AND s2.pos <= s1.pos ORDER "
                     "BY 1, 2",
                     "nested_loop_join", "nested_loop_join"},
        BandJoinCase{"double_indexed_equality",
                     "SELECT s1.pos, s2.pos FROM seq s1, seq s2 WHERE s1.val "
                     "= s2.val ORDER BY 1, 2",
                     "hash_join", "hash_join"}),
    [](const ::testing::TestParamInfo<BandJoinCase>& info) {
      return info.param.name;
    });

// --- keys near INT64_MAX ----------------------------------------------------
//
// Stride chains and the dense-key check step without overflowing past
// INT64_MAX; each case runs in both exec modes on both band-driven joins.

struct Int64MaxCase {
  const char* name;
  std::vector<int64_t> below_max;  ///< keys as INT64_MAX - d
  const char* where;
  std::vector<int64_t> counts;  ///< COUNT(*) per left key, in key order
};

class BandJoinInt64MaxTest : public ::testing::TestWithParam<Int64MaxCase> {
};

TEST_P(BandJoinInt64MaxTest, MatchesExpectedCounts) {
  const Int64MaxCase& c = GetParam();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Database db;
  MustExecute(db, "CREATE TABLE t (pos INTEGER, val INTEGER)");
  std::string insert = "INSERT INTO t VALUES ";
  for (size_t i = 0; i < c.below_max.size(); ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(kMax - c.below_max[i]) + ", 1)";
  }
  MustExecute(db, insert);
  const std::string sql = std::string("SELECT a.pos, COUNT(*) FROM t a, t b "
                                      "WHERE ") +
                          c.where + " GROUP BY a.pos ORDER BY a.pos";

  const auto expect_counts = [&](const ResultSet& rs, const char* join) {
    EXPECT_EQ(JoinOperators(rs), std::vector<std::string>{join}) << c.name;
    ASSERT_EQ(rs.NumRows(), c.counts.size()) << c.name << " " << join;
    for (size_t i = 0; i < c.counts.size(); ++i) {
      EXPECT_EQ(rs.rows()[i][1], Value::Int(c.counts[i]))
          << c.name << " " << join << " row " << i;
    }
  };
  expect_counts(MustExecute(db, sql), "merge_band_join");
  MustExecute(db, "CREATE INDEX t_pos ON t (pos)");
  db.options().exec.enable_merge_band_join = false;
  expect_counts(MustExecute(db, sql), "index_nested_loop_join");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BandJoinInt64MaxTest,
        ::testing::Values(
            // Dense keys, stride 2 running into INT64_MAX.
            Int64MaxCase{"dense_stride",
                         {3, 2, 1, 0},
                         "b.pos >= a.pos - 2 AND MOD(a.pos, 2) = MOD(b.pos, "
                         "2)",
                         {2, 2, 2, 2}},
            // Sparse keys (a gap below INT64_MAX), stride 3.
            Int64MaxCase{"sparse_stride",
                         {7, 6, 5, 4, 3, 2, 0},
                         "b.pos >= a.pos - 1 AND MOD(a.pos, 3) = MOD(b.pos, "
                         "3)",
                         {2, 3, 2, 1, 2, 1, 1}},
            // A duplicated INT64_MAX key in the dense-key check.
            Int64MaxCase{"duplicate_max",
                         {0, 0},
                         "b.pos BETWEEN a.pos - 1 AND a.pos",
                         {4}}),
    [](const ::testing::TestParamInfo<Int64MaxCase>& info) {
      return std::string(info.param.name);
    });

// --- DOUBLE bounds beyond the int64 range ----------------------------------
//
// An INTEGER key compares with a DOUBLE bound through double
// (Value::Compare), so a bound past the int64 range saturates the band or
// empties it, and beyond 2^53 keys next to the bound round onto it.

TEST(ResolveBandTest, DoubleBoundsAtTheInt64Edges) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTwo63 = 9223372036854775808.0;
  const Row no_columns;
  const auto resolve = [&](double d, bool is_lo, bool strict) {
    BandSpec band;
    (is_lo ? band.lo : band.hi) = eb::Dbl(d);
    (is_lo ? band.lo_strict : band.hi_strict) = strict;
    ResolvedBand out;
    EXPECT_TRUE(ResolveBand(band, no_columns, &out).ok());
    return out;
  };

  EXPECT_TRUE(resolve(std::nan(""), true, false).empty);
  EXPECT_TRUE(resolve(std::nan(""), false, false).empty);
  EXPECT_TRUE(resolve(kInf, true, false).empty);
  EXPECT_TRUE(resolve(1e19, true, false).empty);
  EXPECT_TRUE(resolve(-kInf, false, false).empty);
  EXPECT_TRUE(resolve(-1e19, false, false).empty);
  EXPECT_EQ(resolve(-1e308, true, false).lo, kMin);
  EXPECT_EQ(resolve(1e308, false, false).hi, kMax);

  // Keys from INT64_MAX - 511 on round to 2^63 as doubles (ties to
  // even), so they are >= 2^63 but none is > 2^63.
  EXPECT_EQ(resolve(kTwo63, true, false).lo, kMax - 511);
  EXPECT_TRUE(resolve(kTwo63, true, true).empty);
  EXPECT_EQ(resolve(-kTwo63, false, false).hi, kMin + 512);
  EXPECT_TRUE(resolve(-kTwo63, false, true).empty);
  // Below 2^53 bounds round inward and strict integral bounds tighten.
  EXPECT_EQ(resolve(2.5, true, false).lo, 3);
  EXPECT_EQ(resolve(2.0, true, true).lo, 3);
  EXPECT_EQ(resolve(-2.5, false, false).hi, -3);
  EXPECT_EQ(resolve(-2.0, false, true).hi, -3);
}

struct DoubleBoundCase {
  const char* name;
  const char* where;
  const char* band_join;   ///< join operator under the engine defaults
  const char* index_join;  ///< join operator with the band join off
};

class BandJoinDoubleBoundTest
    : public ::testing::TestWithParam<DoubleBoundCase> {};

TEST_P(BandJoinDoubleBoundTest, BandIndexAndNestedLoopAgree) {
  const DoubleBoundCase& c = GetParam();
  Database db;
  MustExecute(db, "CREATE TABLE a (id INTEGER, x DOUBLE)");
  MustExecute(db,
              "INSERT INTO a VALUES (1, 1e19), (2, -1e19), (3, 1e308), "
              "(4, -1e308), (5, 9223372036854775808.0), "
              "(6, -9223372036854775808.0), (7, 4611686018427387904.0), "
              "(8, 4611686018427389952.0), (9, 1.5), (10, -0.5), (11, 0.0)");
  MustExecute(db, "CREATE TABLE t (pos INTEGER, val INTEGER)");
  // INT64_MAX and its neighbours, keys that round onto 2^62 and 2^62 +
  // 2048 as doubles, INT64_MIN + 1 and a few small keys.
  MustExecute(db,
              "INSERT INTO t VALUES (9223372036854775807, 1), "
              "(9223372036854775806, 1), (9223372036854775000, 1), "
              "(4611686018427387904, 1), (4611686018427387905, 1), "
              "(4611686018427388500, 1), (4611686018427389000, 1), "
              "(4611686018427387700, 1), (-9223372036854775807, 1), "
              "(-1, 1), (0, 1), (1, 1), (2, 1)");
  MustExecute(db, "CREATE INDEX t_pos ON t (pos)");
  const std::string sql =
      std::string("SELECT a.id, b.pos FROM a, t b WHERE ") + c.where +
      " ORDER BY 1, 2";
  using Names = std::vector<std::string>;

  const ResultSet band = MustExecute(db, sql);
  EXPECT_EQ(JoinOperators(band), Names{c.band_join}) << c.name;
  db.options().exec.enable_merge_band_join = false;
  const ResultSet index = MustExecute(db, sql);
  EXPECT_EQ(JoinOperators(index), Names{c.index_join}) << c.name;
  db.options().exec.enable_index_nested_loop_join = false;
  db.options().exec.enable_hash_join = false;
  const ResultSet nested = MustExecute(db, sql);
  EXPECT_EQ(JoinOperators(nested), Names{"nested_loop_join"}) << c.name;

  EXPECT_TRUE(RowsEqual(band, nested)) << c.name << " (band vs nested loop)";
  EXPECT_TRUE(RowsEqual(index, nested)) << c.name << " (index vs nested loop)";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandJoinDoubleBoundTest,
        ::testing::Values(
            DoubleBoundCase{"point", "b.pos = a.x", kIndex, kIndex},
            DoubleBoundCase{"in_points", "b.pos IN (a.x, a.x * 0.5)", kBand,
                            kIndex},
            DoubleBoundCase{"at_least", "b.pos >= a.x", kBand, kIndex},
            DoubleBoundCase{"at_most", "b.pos <= a.x", kBand, kIndex},
            DoubleBoundCase{"above", "b.pos > a.x", kBand, kIndex},
            DoubleBoundCase{"below", "b.pos < a.x", kBand, kIndex},
            DoubleBoundCase{"between", "b.pos BETWEEN a.x * 0.5 AND a.x",
                            kBand, kIndex}),
    [](const ::testing::TestParamInfo<DoubleBoundCase>& info) {
      return std::string(info.param.name);
    });

struct JoinCase {
  const char* name;
  const char* sql;
};

// The hash join must agree with nested loops on every equi-join shape,
// including duplicates, NULL keys and left outer joins.
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

  const ResultSet hash = MustExecute(db, sql);
  Result<ResultSet> nlj = testutil::ExecuteNestedLoop(db, sql);
  ASSERT_TRUE(nlj.ok()) << nlj.status().ToString();
  EXPECT_TRUE(RowsEqual(hash, *nlj)) << GetParam().name;
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

}  // namespace
}  // namespace rfv
