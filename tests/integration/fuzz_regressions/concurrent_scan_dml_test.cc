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

TEST_F(ConcurrentScanDmlTest, RowPullSurvivesInterleavedInsert) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  Row row;
  bool eof = false;
  ASSERT_TRUE(scan.Next(&row, &eof).ok());

  Session other(&db_);
  ASSERT_TRUE(other.Execute("INSERT INTO seq VALUES (2000, 1)").ok());

  size_t rows = 1;
  while (true) {
    const Status s = scan.Next(&row, &eof);
    ASSERT_TRUE(s.ok()) << "regressed to the epoch abort: " << s.ToString();
    if (eof) break;
    ++rows;
  }
  EXPECT_EQ(rows, 1100u);
}

TEST_F(ConcurrentScanDmlTest, VectorPullSurvivesInterleavedUpdate) {
  TableScanOp scan(table_->schema(), table_);
  scan.SetVectorized(true);
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
  scan.SetVectorized(true);
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

// Left side: one row (k = 95); right side: seq (pos 1..1100, PRIMARY
// KEY). Join seq.pos BETWEEN k - 5 AND k + 5 through the pos index.
TEST_F(ConcurrentScanDmlTest, IndexJoinSurvivesDeleteOfPendingCandidates) {
  MustExecute(db_, "CREATE TABLE probe (k INTEGER)");
  MustExecute(db_, "INSERT INTO probe VALUES (95)");
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
      eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(5)),
      eb::Add(eb::Col(0, DataType::kInt64), eb::Int(5)));
  std::optional<BandJoinSpec> spec =
      TryExtractBandJoin(*cond, 1, table_, /*indexed_only=*/true);
  ASSERT_TRUE(spec.has_value());
  IndexNestedLoopJoinOp join(
      joined, PhysicalOperatorPtr(new TableScanOp(left_schema, *probe)),
      table_, right_schema, std::move(*spec), JoinType::kInner);
  ASSERT_TRUE(join.Open().ok());
  Row row;
  bool eof = false;
  ASSERT_TRUE(join.Next(&row, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(row[1], Value::Int(90));

  // Commit a DELETE of every pending candidate (and of the rows after
  // them), then an INSERT that may move the live store.
  Session other(&db_);
  ASSERT_TRUE(other.Execute("DELETE FROM seq WHERE pos > 50").ok());
  ASSERT_TRUE(other.Execute("INSERT INTO seq VALUES (5000, 1)").ok());

  // The open join still reads its snapshot: pos 91..100, in order.
  std::vector<int64_t> positions;
  while (true) {
    ASSERT_TRUE(join.Next(&row, &eof).ok());
    if (eof) break;
    positions.push_back(row[1].AsInt());
  }
  std::vector<int64_t> want;
  for (int64_t p = 91; p <= 100; ++p) want.push_back(p);
  EXPECT_EQ(positions, want);
}

}  // namespace
}  // namespace rfv
