#include "stats/cost_model.h"

#include <gtest/gtest.h>

#include "rewrite/derivability.h"
#include "rewrite/rewriter.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;
using testutil::RowsEqual;

/// Stats of a complete sequence view over an n-row base with window
/// (l, h): content = n + l + h rows.
PatternStats MakeStats(int64_t n, int64_t l, int64_t h) {
  PatternStats stats;
  stats.body_rows = n;
  stats.content_rows = n + l + h;
  stats.base_rows = n;
  return stats;
}

SequenceViewDef MakeView(const std::string& name, int64_t l, int64_t h,
                         int64_t n) {
  SequenceViewDef def;
  def.view_name = name;
  def.base_table = "seq";
  def.value_column = "val";
  def.order_column = "pos";
  def.fn = SeqAggFn::kSum;
  def.window = WindowSpec::SlidingUnchecked(l, h);
  def.n = n;
  return def;
}

SeqQuery MakeQuery(int64_t l, int64_t h) {
  SeqQuery query;
  query.base_table = "seq";
  query.order_column = "pos";
  query.value_column = "val";
  query.fn = SeqAggFn::kSum;
  query.window = WindowSpec::SlidingUnchecked(l, h);
  return query;
}

TEST(CostModelTest, DirectIsCheapestPattern) {
  const PatternStats stats = MakeStats(50, 2, 1);
  const double direct = EstimateDirectCost(stats).total;
  EXPECT_LT(direct, EstimateCumulativeDiffCost(stats).total);
  EXPECT_LT(direct, EstimateMinMaxCoverCost(stats).total);
}

TEST(CostModelTest, MinoaUndercutsMaxoaOnWidenedWindow) {
  // View (2,1), query (3,1): MaxOA's disjunction carries 3 congruence
  // branches (base + low-side pair), MinOA's only 2 — and both touch
  // comparable chain tuples. The paper's §7 trade-off, decided by the
  // nested-loop branch width.
  const PatternStats stats = MakeStats(50, 2, 1);
  const WindowSpec view_window = WindowSpec::SlidingUnchecked(2, 1);
  const Result<MaxoaParams> maxoa =
      PlanMaxoa(view_window, WindowSpec::SlidingUnchecked(3, 1));
  const Result<MinoaParams> minoa =
      PlanMinoa(view_window, WindowSpec::SlidingUnchecked(3, 1));
  ASSERT_TRUE(maxoa.ok());
  ASSERT_TRUE(minoa.ok());
  const CostEstimate maxoa_cost =
      EstimateMaxoaCost(view_window, *maxoa, stats);
  const CostEstimate minoa_cost =
      EstimateMinoaCost(view_window, *minoa, stats);
  EXPECT_LT(minoa_cost.total, maxoa_cost.total);
  // The gap is exactly the extra branch sweep over the n·m pairs.
  EXPECT_GT(maxoa_cost.pred_evals, minoa_cost.pred_evals);
}

TEST(CostModelTest, CoincidentMinoaCollapsesToOneBranch) {
  // View (1,0) has w_x = 2; a (3,0) query gives Δl+Δh = 2, divisible by
  // w_x — Fig. 13's best case: a single bounded BETWEEN branch.
  const PatternStats stats = MakeStats(50, 1, 0);
  const WindowSpec view_window = WindowSpec::SlidingUnchecked(1, 0);
  const Result<MinoaParams> coincident =
      PlanMinoa(view_window, WindowSpec::SlidingUnchecked(3, 0));
  const Result<MinoaParams> offset =
      PlanMinoa(view_window, WindowSpec::SlidingUnchecked(2, 0));
  ASSERT_TRUE(coincident.ok());
  ASSERT_TRUE(offset.ok());
  const double one_branch =
      EstimateMinoaCost(view_window, *coincident, stats).total;
  const double two_chains =
      EstimateMinoaCost(view_window, *offset, stats).total;
  EXPECT_LT(one_branch, two_chains / 2);
}

TEST(CostModelTest, BaselineGrowsWithQueryWindow) {
  const PatternStats stats = MakeStats(100, 2, 1);
  const double narrow =
      EstimateSelfJoinRecomputeCost(WindowSpec::SlidingUnchecked(1, 1), stats)
          .total;
  const double wide =
      EstimateSelfJoinRecomputeCost(WindowSpec::SlidingUnchecked(20, 20),
                                    stats)
          .total;
  const double cumulative =
      EstimateSelfJoinRecomputeCost(WindowSpec::Cumulative(), stats).total;
  EXPECT_LT(narrow, wide);
  EXPECT_LT(wide, cumulative);  // cumulative aggregates ~b/2 per row
}

TEST(CostModelTest, SummaryRendersAllTerms) {
  const CostEstimate est = EstimateDirectCost(MakeStats(10, 1, 1));
  const std::string s = est.Summary();
  EXPECT_NE(s.find("total="), std::string::npos);
  EXPECT_NE(s.find("read="), std::string::npos);
  EXPECT_NE(s.find("pred="), std::string::npos);
}

TEST(CostModelTest, JoinFreePatternsCarryNoJoinToken) {
  const CostEstimate est = EstimateDirectCost(MakeStats(10, 1, 1));
  EXPECT_EQ(est.join, JoinStrategy::kNone);
  EXPECT_EQ(est.Summary().find("join="), std::string::npos);
}

TEST(CostModelTest, MaxoaDisjunctionPricedAsBandMerge) {
  // Both-sided growth: the 5-branch MOD disjunction would sweep all n·m
  // pairs under a nested loop, but the merge band join touches only the
  // stride candidates — the model must record the cheaper alternative.
  const PatternStats stats = MakeStats(2000, 40, 40);
  const WindowSpec view_window = WindowSpec::SlidingUnchecked(40, 40);
  const Result<MaxoaParams> maxoa =
      PlanMaxoa(view_window, WindowSpec::SlidingUnchecked(44, 44));
  ASSERT_TRUE(maxoa.ok());
  const CostEstimate est = EstimateMaxoaCost(view_window, *maxoa, stats);
  EXPECT_EQ(est.join, JoinStrategy::kBandMerge);
  const double nested_loop =
      2000.0 * static_cast<double>(stats.content_rows) * 5;
  EXPECT_LT(est.pred_evals, nested_loop / 10);
  EXPECT_NE(est.Summary().find("join=band"), std::string::npos);
}

TEST(CostModelTest, CumulativeDiffPointProbesUseBandMerge) {
  // Two point probes per output row: the ordered index and the band
  // merge touch one candidate each, and the band merge's vector-native
  // discount decides. Without the index it prices the same.
  PatternStats stats = MakeStats(50, 0, 1);
  const CostEstimate indexed = EstimateCumulativeDiffCost(stats);
  EXPECT_EQ(indexed.join, JoinStrategy::kBandMerge);
  stats.indexed = false;
  const CostEstimate unindexed = EstimateCumulativeDiffCost(stats);
  EXPECT_EQ(unindexed.join, JoinStrategy::kBandMerge);
  EXPECT_EQ(unindexed.pred_evals, indexed.pred_evals);
  EXPECT_LT(unindexed.pred_evals,
            50.0 * static_cast<double>(stats.content_rows));
}

TEST(CostModelTest, BaselinePricedByQueryWindowNotAllPairs) {
  // Fig. 2's BETWEEN band covers min(w, b) positions per probe — far
  // fewer than the b² all-pairs sweep the old model charged.
  const PatternStats stats = MakeStats(1000, 2, 1);
  const CostEstimate est = EstimateSelfJoinRecomputeCost(
      WindowSpec::SlidingUnchecked(5, 5), stats);
  EXPECT_NE(est.join, JoinStrategy::kNestedLoop);
  EXPECT_LT(est.pred_evals, 1000.0 * 1000.0 / 10);
}

TEST(CostModelTest, PosDensityDiscountsSparseSequences) {
  // 100 distinct positions spread over a 10000-wide range: each hull
  // scan finds ~1% of the positions populated, so the priced candidate
  // count drops accordingly. Unknown stats keep the dense prior of 1.
  PatternStats dense = MakeStats(1000, 2, 1);
  PatternStats sparse = dense;
  sparse.pos_min = 1;
  sparse.pos_max = 10000;
  sparse.pos_distinct = 100;
  EXPECT_DOUBLE_EQ(dense.PosDensity(), 1.0);
  EXPECT_NEAR(sparse.PosDensity(), 0.01, 1e-6);
  const WindowSpec window = WindowSpec::SlidingUnchecked(20, 20);
  EXPECT_LT(EstimateSelfJoinRecomputeCost(window, sparse).pred_evals,
            EstimateSelfJoinRecomputeCost(window, dense).pred_evals);
}

TEST(CostModelTest, JoinStrategyNamesAreStable) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kNone), "");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kNestedLoop), "nl");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kIndexHull), "index");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kBandMerge), "band");
}

TEST(ChooseDerivationByCostTest, MarksChosenVerdictAndMinimizesTotal) {
  const SequenceViewDef wide = MakeView("wide", 3, 1, 50);
  const SequenceViewDef exact = MakeView("exact", 3, 1, 50);
  const SeqQuery query = MakeQuery(3, 1);
  const ViewStatsFn stats_fn = [](const SequenceViewDef& v) {
    return MakeStats(v.n, v.window.l(), v.window.h());
  };

  CostEstimate chosen_cost;
  std::vector<CandidateVerdict> verdicts;
  const Result<DerivationChoice> choice = ChooseDerivationByCost(
      {&wide, &exact}, query, stats_fn, &chosen_cost, &verdicts);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->method, DerivationMethod::kDirect);

  int chosen = 0;
  for (const CandidateVerdict& v : verdicts) {
    if (v.chosen) {
      ++chosen;
      ASSERT_TRUE(v.cost.has_value());
      EXPECT_EQ(v.cost->total, chosen_cost.total);
    }
    if (v.derivable) {
      ASSERT_TRUE(v.cost.has_value());
      EXPECT_GE(v.cost->total, chosen_cost.total);
    }
  }
  EXPECT_EQ(chosen, 1);
}

TEST(ChooseDerivationByCostTest, FallsBackToStaticOrderWithoutStats) {
  const SequenceViewDef view = MakeView("v", 2, 1, 50);
  const SeqQuery query = MakeQuery(3, 1);
  const Result<DerivationChoice> choice =
      ChooseDerivationByCost({&view}, query, /*stats_fn=*/nullptr);
  ASSERT_TRUE(choice.ok());
  // The static preference order resolves widened windows to MaxOA.
  EXPECT_EQ(choice->method, DerivationMethod::kMaxoa);
}

TEST(ChooseDerivationByCostTest, RecordsNotDerivableReasons) {
  const SequenceViewDef mismatched = MakeView("other", 2, 1, 50);
  SequenceViewDef wrong_fn = MakeView("minview", 2, 1, 50);
  wrong_fn.fn = SeqAggFn::kMin;
  const SeqQuery query = MakeQuery(1, 1);  // narrowing: MinOA only
  const ViewStatsFn stats_fn = [](const SequenceViewDef& v) {
    return MakeStats(v.n, v.window.l(), v.window.h());
  };
  std::vector<CandidateVerdict> verdicts;
  const Result<DerivationChoice> choice = ChooseDerivationByCost(
      {&mismatched, &wrong_fn}, query, stats_fn, nullptr, &verdicts);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->method, DerivationMethod::kMinoa);
  bool saw_not_derivable = false;
  for (const CandidateVerdict& v : verdicts) {
    if (!v.derivable) {
      saw_not_derivable = true;
      EXPECT_FALSE(v.detail.empty());
    }
  }
  EXPECT_TRUE(saw_not_derivable);
}

class CostGateEndToEnd : public ::testing::Test {
 protected:
  /// Narrow stride-2 view: chains touch ~n/2 view tuples per output
  /// row, the cost model's no-rewrite territory.
  void SetUp() override {
    CreateSeqTable(db_, 50);
    MustExecute(db_,
                "CREATE MATERIALIZED VIEW narrow AS SELECT pos, SUM(val) "
                "OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND CURRENT "
                "ROW) FROM seq");
  }

  Database db_;
};

TEST_F(CostGateEndToEnd, DeclinesDegenerateDerivation) {
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND CURRENT ROW) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_TRUE(rs.rewrite_method().empty());

  // The native path must agree with the (declined) derivation's answer.
  db_.options().force_method = DerivationMethod::kMinoa;
  const ResultSet forced = MustExecute(db_, sql);
  db_.options().force_method.reset();
  EXPECT_EQ(forced.rewrite_method(), "MinOA");
  EXPECT_TRUE(RowsEqual(rs, forced));
}

TEST_F(CostGateEndToEnd, StaticOrderStillRewrites) {
  db_.options().use_cost_model = false;
  const ResultSet rs = MustExecute(
      db_,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND CURRENT ROW) FROM seq ORDER BY pos");
  EXPECT_FALSE(rs.rewrite_method().empty());
}

TEST_F(CostGateEndToEnd, ExplainPrintsDeclinedVerdicts) {
  // The bugfix satellite: plain EXPLAIN (tracing off) must print the
  // decision record even when the rewrite was declined.
  const ResultSet rs = MustExecute(
      db_,
      "EXPLAIN SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
      "PRECEDING AND CURRENT ROW) FROM seq");
  ASSERT_GT(rs.NumRows(), 0u);
  std::string all;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    all += rs.at(i, 0).AsString() + "\n";
  }
  EXPECT_NE(all.find("recompute estimated cheaper"), std::string::npos);
  EXPECT_NE(all.find("candidate narrow"), std::string::npos);
  EXPECT_NE(all.find("baseline recompute"), std::string::npos);
}

TEST_F(CostGateEndToEnd, ExplainPrintsChosenCandidate) {
  CreateSeqTable(db_, 50, "seq2");
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW v2 AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) "
              "FROM seq2");
  const ResultSet rs = MustExecute(
      db_,
      "EXPLAIN SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
      "PRECEDING AND 1 FOLLOWING) FROM seq2");
  std::string all;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    all += rs.at(i, 0).AsString() + "\n";
  }
  EXPECT_NE(all.find("(chosen)"), std::string::npos);
  EXPECT_NE(all.find("candidate v2 via MaxOA"), std::string::npos);
  EXPECT_NE(all.find("candidate v2 via MinOA"), std::string::npos);
}

TEST(CostModelMetricsTest, DecisionCountersExported) {
  Database db;
  CreateSeqTable(db, 30);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  MustExecute(db,
              "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
              "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  const std::string metrics = Database::MetricsText();
  EXPECT_NE(metrics.find("rfv_rewrite_cost_chosen_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("rfv_rewrite_cost_candidates_total"),
            std::string::npos);
}

}  // namespace
}  // namespace rfv
