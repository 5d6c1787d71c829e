// Pinned scenario for the merge band join's hardest rewrite shape,
// minimized from the oracle campaign that introduced the `band`
// differential oracle (docs/FUZZING.md).
//
// A (1,1) view answering a (2,2) query via MaxOA emits the full
// disjunction MergeBandJoinOp claims: a BETWEEN hull plus positive and
// compensation MOD-stride branches on both sides (paper Fig. 10). The
// band join must agree row-for-row with the band-disabled execution of
// the same rewritten plan (the index nested-loop join, probing the
// view's position index with the same band spec) and with the native
// window operator — under both the row-at-a-time and the
// vector pull protocols. A wrong strict-bound adjustment, congruence-class
// anchor, or stride-candidate dedup shows up here as a row diff.

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "db/database.h"
#include "rewrite/derivability.h"
#include "test_util.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rfv {
namespace {

using testutil::MustExecute;
using testutil::RowsEqualCanonical;

class BandJoinRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t (pos INTEGER, val INTEGER)");
    MustExecute(db_,
                "INSERT INTO t VALUES (1, 5), (2, -3), (3, 0), (4, 12), "
                "(5, 7), (6, -9), (7, 4), (8, 1), (9, 6), (10, -2)");
    MustExecute(db_,
                "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) "
                "OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                "FOLLOWING) FROM t");
  }

  ResultSet Query() {
    return MustExecute(
        db_,
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
        "PRECEDING AND 2 FOLLOWING) FROM t ORDER BY pos");
  }

  Database db_;
};

bool RanOperator(const ResultSet& rs, const std::string& name) {
  for (const OperatorMetricsEntry& e : rs.metrics()) {
    if (e.name == name) return true;
  }
  return false;
}

TEST_F(BandJoinRewriteTest, ForcedMaxoaBandOnOffAndNativeAgree) {
  db_.options().enable_view_rewrite = false;
  const ResultSet native = Query();

  Counter* band_rows = MetricsRegistry::Global().GetCounter(
      "rfv_band_join_rows_total", {},
      "Join output rows produced by the merge band join operator");
  const int64_t before = band_rows->value();

  db_.options().enable_view_rewrite = true;
  db_.options().force_method = DerivationMethod::kMaxoa;
  const ResultSet banded = Query();
  ASSERT_EQ(banded.rewrite_method(), "MaxOA") << banded.rewritten_sql();
  // The rewritten self join must actually have executed through
  // MergeBandJoinOp, not fallen back to another join strategy.
  EXPECT_GT(band_rows->value(), before);
  EXPECT_TRUE(RowsEqualCanonical(native, banded));

  db_.options().exec.enable_merge_band_join = false;
  const ResultSet fallback = Query();
  db_.options().exec.enable_merge_band_join = true;
  ASSERT_EQ(fallback.rewrite_method(), "MaxOA");
  EXPECT_TRUE(RanOperator(fallback, "index_nested_loop_join"));
  EXPECT_TRUE(RowsEqualCanonical(banded, fallback));
}

TEST_F(BandJoinRewriteTest, ForcedMinoaBandOnOffAgreeInRowMode) {
  db_.options().enable_view_rewrite = true;
  db_.options().force_method = DerivationMethod::kMinoa;
  db_.options().exec.use_vectorized_execution = false;
  const ResultSet banded = Query();
  ASSERT_EQ(banded.rewrite_method(), "MinOA") << banded.rewritten_sql();

  db_.options().exec.enable_merge_band_join = false;
  const ResultSet fallback = Query();
  ASSERT_EQ(fallback.rewrite_method(), "MinOA");
  EXPECT_TRUE(RanOperator(fallback, "index_nested_loop_join"));
  EXPECT_TRUE(RowsEqualCanonical(banded, fallback));
}

// The minimized harness scenario, replayed through the oracle runner:
// the vector and band oracles must both run and pass on it.
TEST(BandJoinScenarioTest, MinimizedScenarioPassesAllOracles) {
  using namespace fuzzing;
  Scenario s;
  s.kind = ScenarioKind::kRewrite;
  s.dense_positions = true;
  s.val_type = DataType::kInt64;
  for (int64_t i = 1; i <= 10; ++i) {
    FuzzRow row;
    row.pos = Value::Int(i);
    row.val = Value::Int((i * 7) % 13 - 6);
    s.rows.push_back(row);
  }
  FuzzView view;
  view.name = "v0";
  view.fn = FuzzFn::kSum;
  view.frame = {false, 1, 1};
  s.views.push_back(view);
  FuzzQuery wide;
  wide.fn = FuzzFn::kSum;
  wide.frame = {false, 2, 2};
  s.queries.push_back(wide);
  FuzzQuery cumulative;
  cumulative.fn = FuzzFn::kSum;
  cumulative.frame = {true, 0, 0};
  s.queries.push_back(cumulative);

  const ScenarioVerdict verdict = RunScenario(s);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_GT(verdict.checks.count("vector"), 0u) << verdict.Summary();
  EXPECT_GT(verdict.checks.count("band"), 0u) << verdict.Summary();
}

}  // namespace
}  // namespace rfv
