// Range scans: a Filter directly above a Scan with a sargable conjunct
// on an indexed column reads only the key range from the pinned
// snapshot's index image, when the estimate says the range holds
// clearly fewer rows than the table. The Filter stays and re-checks
// every row, so the rows and their order must equal a full scan's —
// checked here against the same query with the conjunct made
// non-sargable (`col + 0`), in both execution modes, over NULL keys,
// duplicate keys, strict bounds and mixed INTEGER/DOUBLE constants.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/database.h"
#include "exec/operators.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

/// The scan operator of `sql`'s physical plan (the plan holds one).
std::optional<KeyRange> ScanRange(Database* db, const std::string& sql) {
  Result<Statement> stmt = Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  Binder binder(db->catalog());
  Result<LogicalPlanPtr> bound = binder.BindSelect(*stmt->select);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  LogicalPlanPtr plan = OptimizePlan(std::move(bound).value());
  EstimateCardinality(plan.get());
  Result<PhysicalOperatorPtr> built = BuildPhysicalPlan(*plan);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  std::vector<const PhysicalOperator*> stack = {built->get()};
  while (!stack.empty()) {
    const PhysicalOperator* node = stack.back();
    stack.pop_back();
    if (const auto* scan = dynamic_cast<const TableScanOp*>(node)) {
      return scan->range();
    }
    node->AppendChildren(&stack);
  }
  ADD_FAILURE() << "no scan in " << sql;
  return std::nullopt;
}

class RangeScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 3 000 rows: k holds 1..1500 twice (second half descending), with
    // a NULL key every 97th row; one index on k, none on g.
    MustExecute(db_, "CREATE TABLE r (k INTEGER, g INTEGER, v DOUBLE)");
    MustExecute(db_, "CREATE INDEX r_k ON r (k)");
    std::string insert = "INSERT INTO r VALUES ";
    for (int i = 0; i < 3000; ++i) {
      const int k = i < 1500 ? i + 1 : 3000 - i;
      insert += (i > 0 ? ", (" : "(") +
                (i % 97 == 0 ? std::string("NULL") : std::to_string(k)) +
                ", " + std::to_string(i % 7) + ", " + std::to_string(i) +
                ".5)";
    }
    MustExecute(db_, insert);
    MustExecute(db_, "ANALYZE r");
  }

  /// Runs `where` as is and with `k` replaced by `k + 0`; the first
  /// must take a range scan (when `ranged`) and return the rows of the
  /// second in the same order.
  void ExpectSameAsFullScan(const std::string& where, bool ranged = true) {
    const std::string sql = "SELECT k, g, v FROM r WHERE " + where;
    std::string plain_where = where;
    for (size_t at = 0; (at = plain_where.find('k', at)) != std::string::npos;
         at += 7) {
      plain_where.replace(at, 1, "(k + 0)");
    }
    const std::string plain = "SELECT k, g, v FROM r WHERE " + plain_where;
    EXPECT_EQ(ScanRange(&db_, sql).has_value(), ranged) << sql;
    EXPECT_FALSE(ScanRange(&db_, plain).has_value()) << plain;
    const ResultSet got = MustExecute(db_, sql);
    const ResultSet want = MustExecute(db_, plain);
    EXPECT_TRUE(testutil::RowsEqual(got, want)) << sql;
  }

  Database db_;
};

TEST_F(RangeScanTest, NarrowRangesMatchFullScanInOrder) {
  ExpectSameAsFullScan("k BETWEEN 101 AND 200");
  ExpectSameAsFullScan("k = 97");
  ExpectSameAsFullScan("k < 40");
  ExpectSameAsFullScan("k <= 40");
  ExpectSameAsFullScan("1490 < k");
  ExpectSameAsFullScan("k >= 1490 AND g = 3");
  ExpectSameAsFullScan("k > 10 AND k < 20");
  ExpectSameAsFullScan("k BETWEEN 9.5 AND 20.25");
  ExpectSameAsFullScan("k < 3.5 OR k IS NULL", /*ranged=*/false);
  ExpectSameAsFullScan("k BETWEEN 200 AND 100");
}

TEST_F(RangeScanTest, WideRangesKeepThePlainScan) {
  // 96 % of the table: the MinOA pattern's `s1.pos BETWEEN 1 AND n`.
  ExpectSameAsFullScan("k BETWEEN 1 AND 1440", /*ranged=*/false);
  ExpectSameAsFullScan("k > 100", /*ranged=*/false);
}

TEST_F(RangeScanTest, ExplainAnalyzeNamesIndexAndRange) {
  const ResultSet rs = MustExecute(
      db_, "EXPLAIN ANALYZE SELECT k FROM r WHERE k BETWEEN 101 AND 200");
  std::string text;
  for (const Row& row : rs.rows()) text += row[0].ToString() + "\n";
  EXPECT_NE(text.find("index=r_k range=[101,200]"), std::string::npos)
      << text;
  // The scan reads the 198 rows of the range (each key twice, less the
  // two NULLed rows i = 194 and i = 2813), not 3000.
  EXPECT_NE(text.find("rows_out=198 "), std::string::npos) << text;
}

TEST_F(RangeScanTest, RangeScanFollowsCommittedWrites) {
  ExpectSameAsFullScan("k BETWEEN 101 AND 200");
  MustExecute(db_, "DELETE FROM r WHERE k BETWEEN 150 AND 160");
  MustExecute(db_, "UPDATE r SET k = 120 WHERE k = 1000");
  MustExecute(db_, "INSERT INTO r VALUES (105, 1, 1), (NULL, 1, 1)");
  ExpectSameAsFullScan("k BETWEEN 101 AND 200");
}

}  // namespace
}  // namespace rfv
