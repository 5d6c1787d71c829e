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

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/session.h"
#include "exec/operators.h"
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

}  // namespace
}  // namespace rfv
