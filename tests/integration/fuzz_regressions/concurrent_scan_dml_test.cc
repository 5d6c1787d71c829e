// Concurrency regression: before the snapshot serving layer, ANY scan
// caught by a DML mutation_epoch bump died with
//
//   ExecutionError: table 't' mutated during scan
//
// in every pull style. The canonical two-session interleaving —
// open a scan, let another session commit DML, keep pulling — must now
// complete against the reader's pinned snapshot. This is the minimal
// deterministic reproducer distilled from the serve_stress battery;
// it runs under the regression_corpus ctest label in tier-1 and in the
// nightly fuzz-campaign job.
//
// The index nested-loop join once probed the live index and fetched
// right rows from the live row store by row id: a DELETE committed
// while a left row's candidates were pending destroyed the rows those
// ids named, and the join copied freed memory (ASan:
// heap-use-after-free in Row::Concat). It now reads rows and index
// image from one snapshot pinned at Open.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/session.h"
#include "exec/operators.h"
#include "expr/builder.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class ConcurrentScanDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // > 1024 rows so vector scans take more than one pull.
    testutil::CreateSeqTable(db_, 1100);
    Result<Table*> t = db_.catalog()->GetTable("seq");
    ASSERT_TRUE(t.ok());
    table_ = *t;
  }

  Database db_;
  Table* table_ = nullptr;
};

TEST_F(ConcurrentScanDmlTest, VectorPullSurvivesInterleavedInsert) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);

  Session other(&db_);
  ASSERT_TRUE(other.Execute("INSERT INTO seq VALUES (2000, 1)").ok());

  size_t total = vp->NumSelected();
  while (true) {
    const Status s = scan.NextVector(&vp, &eof);
    ASSERT_TRUE(s.ok()) << "regressed to the epoch abort: " << s.ToString();
    if (eof) break;
    total += vp->NumSelected();
  }
  EXPECT_EQ(total, 1100u);
}

TEST_F(ConcurrentScanDmlTest, VectorPullSurvivesInterleavedUpdate) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);

  Session other(&db_);
  ASSERT_TRUE(other.Execute("UPDATE seq SET val = 0 WHERE pos <= 10").ok());

  size_t total = vp->NumSelected();
  while (true) {
    const Status s = scan.NextVector(&vp, &eof);
    ASSERT_TRUE(s.ok()) << "regressed to the epoch abort: " << s.ToString();
    if (eof) break;
    total += vp->NumSelected();
  }
  EXPECT_EQ(vp, nullptr);
  EXPECT_EQ(total, 1100u);
}

TEST_F(ConcurrentScanDmlTest, VectorPullSurvivesInterleavedDelete) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);

  Session other(&db_);
  ASSERT_TRUE(other.Execute("DELETE FROM seq WHERE pos = 1").ok());

  size_t total = vp->NumSelected();
  while (true) {
    const Status s = scan.NextVector(&vp, &eof);
    ASSERT_TRUE(s.ok()) << "regressed to the epoch abort: " << s.ToString();
    if (eof) break;
    total += vp->NumSelected();
  }
  EXPECT_EQ(vp, nullptr);
  EXPECT_EQ(total, 1100u);
}

// Left side: one row (k = 600); right side: seq (pos 1..1100, PRIMARY
// KEY). Join seq.pos BETWEEN k - 550 AND k + 550 through the pos index:
// 1 051 candidates, so 27 are still pending after the first output
// vector.
TEST_F(ConcurrentScanDmlTest, IndexJoinSurvivesDeleteOfPendingCandidates) {
  MustExecute(db_, "CREATE TABLE probe (k INTEGER)");
  MustExecute(db_, "INSERT INTO probe VALUES (600)");
  Result<Table*> probe = db_.catalog()->GetTable("probe");
  ASSERT_TRUE(probe.ok());
  const Schema left_schema = (*probe)->schema();
  const Schema right_schema = table_->schema();
  Schema joined = left_schema;
  for (size_t c = 0; c < right_schema.NumColumns(); ++c) {
    joined.AddColumn(right_schema.column(c));
  }
  const ExprPtr cond = eb::Between(
      eb::Col(1, DataType::kInt64),
      eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(550)),
      eb::Add(eb::Col(0, DataType::kInt64), eb::Int(550)));
  std::optional<BandJoinSpec> spec =
      TryExtractBandJoin(*cond, 1, table_, /*indexed_only=*/true);
  ASSERT_TRUE(spec.has_value());
  IndexNestedLoopJoinOp join(
      joined, PhysicalOperatorPtr(new TableScanOp(left_schema, *probe)),
      table_, std::move(*spec), JoinType::kInner);
  ASSERT_TRUE(join.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(join.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(vp->NumSelected(), kVectorSize);
  EXPECT_EQ(vp->column(1).GetValue(vp->sel()[0]), Value::Int(50));

  // Commit a DELETE of every pending candidate (and of the rows after
  // them), then an INSERT that may move the live store.
  Session other(&db_);
  ASSERT_TRUE(other.Execute("DELETE FROM seq WHERE pos > 50").ok());
  ASSERT_TRUE(other.Execute("INSERT INTO seq VALUES (5000, 1)").ok());

  // The open join still reads its snapshot: pos 1 074..1 100, in order.
  std::vector<Row> rest;
  ASSERT_TRUE(DrainChild(&join, &rest).ok());
  std::vector<int64_t> positions;
  for (const Row& row : rest) positions.push_back(row[1].AsInt());
  std::vector<int64_t> want;
  for (int64_t p = 1074; p <= 1100; ++p) want.push_back(p);
  EXPECT_EQ(positions, want);
}

}  // namespace
}  // namespace rfv
