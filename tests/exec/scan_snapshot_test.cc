// A table scan pins a committed copy-on-write snapshot at Open and
// reads it to EOF regardless of DML landing on the live table — the
// serving model's reader half. These tests pin the stable-snapshot
// semantics, including mutations landing *between* pulls of a
// multi-vector scan, the statement-granular BeginWrite/EndWrite commit
// bracket, and the chunk-sharing structure of consecutive snapshots.

#include <gtest/gtest.h>

#include <functional>

#include "common/epoch.h"
#include "db/database.h"
#include "exec/operators.h"
#include "expr/builder.h"
#include "storage/table_snapshot.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class ScanSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t (pos INTEGER, val INTEGER)");
    MustExecute(db_, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
    Result<Table*> t = db_.catalog()->GetTable("t");
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    table_ = *t;
  }

  Database db_;
  Table* table_ = nullptr;
};

TEST_F(ScanSnapshotTest, DeleteUnderOpenScanVectorStable) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  // Mutate before the first vector is pulled: the scan reads the
  // snapshot, not the live store.
  ASSERT_TRUE(table_->DeleteRow(0).ok());
  VectorProjection* vp = nullptr;
  bool eof = true;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 3u);
  EXPECT_FALSE(eof);
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  EXPECT_EQ(vp, nullptr);
  EXPECT_TRUE(eof);
  EXPECT_EQ(table_->NumRows(), 2u);
}

TEST_F(ScanSnapshotTest, ReopenAfterMutationSeesNewData) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  ASSERT_TRUE(table_->Insert(Row({Value::Int(4), Value::Int(40)})).ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainChild(&scan, &rows).ok());
  EXPECT_EQ(rows.size(), 3u);  // old snapshot

  // A fresh Open re-pins and sees the committed insert.
  ASSERT_TRUE(scan.Open().ok());
  rows.clear();
  ASSERT_TRUE(DrainChild(&scan, &rows).ok());
  EXPECT_EQ(rows.size(), 4u);
}

// Mid-stream stability: a table larger than one vector (1024 rows)
// forces a second pull, and DML landing between pulls must not perturb
// it — the snapshot was fixed at Open.

class ScanSnapshotMidStreamTest : public ScanSnapshotTest {
 protected:
  void SetUp() override {
    ScanSnapshotTest::SetUp();
    std::vector<Row> rows;
    for (int64_t i = 4; i <= 1500; ++i) {
      rows.push_back(Row({Value::Int(i), Value::Int(i * 10)}));
    }
    ASSERT_TRUE(table_->InsertBatch(std::move(rows)).ok());
  }
};

TEST_F(ScanSnapshotMidStreamTest, InsertBetweenVectorsInvisible) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(vp->NumSelected(), kVectorSize);

  ASSERT_TRUE(table_->Insert(Row({Value::Int(9999), Value::Int(0)})).ok());

  // The scan keeps reading its pinned snapshot: exactly the rows that
  // were committed at Open, no error, no phantom row 9999.
  std::vector<Row> rest;
  const Status s = DrainChild(&scan, &rest);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(kVectorSize + rest.size(), 1500u);
  EXPECT_EQ(rest.back()[0], Value::Int(1500));
}

TEST_F(ScanSnapshotMidStreamTest, UpdateUnderOpenScanSeesOldValues) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  // One update before the first pull, one of a row still pending after
  // it.
  ASSERT_TRUE(
      table_->UpdateRow(0, Row({Value::Int(1), Value::Int(99)})).ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(vp->NumSelected(), kVectorSize);
  EXPECT_EQ(vp->column(1).GetValue(vp->sel()[0]), Value::Int(10));
  ASSERT_TRUE(
      table_->UpdateRow(1099, Row({Value::Int(1100), Value::Int(-1)})).ok());
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_FALSE(eof);
  // Row 1 100 is lane 1 100 - 1 025 of the second vector.
  EXPECT_EQ(vp->column(0).GetValue(vp->sel()[75]), Value::Int(1100));
  EXPECT_EQ(vp->column(1).GetValue(vp->sel()[75]), Value::Int(11000));
}

TEST_F(ScanSnapshotMidStreamTest, DeleteBetweenVectorsInvisible) {
  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan.NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  ASSERT_EQ(vp->NumSelected(), kVectorSize);
  ASSERT_FALSE(eof);

  ASSERT_TRUE(table_->DeleteRow(0).ok());

  size_t total = vp->NumSelected();
  while (true) {
    const Status s = scan.NextVector(&vp, &eof);
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (eof) break;
    total += vp->NumSelected();
  }
  EXPECT_EQ(vp, nullptr);
  EXPECT_EQ(total, 1500u);
}

TEST_F(ScanSnapshotMidStreamTest, ConsecutiveSnapshotsShareCleanChunks) {
  const TableSnapshotPtr before = table_->PinSnapshot();
  ASSERT_GE(before->num_chunks(), 2u);
  // Appending dirties only the tail; every full chunk below it is
  // shared pointer-for-pointer with the previous snapshot.
  ASSERT_TRUE(table_->Insert(Row({Value::Int(1501), Value::Int(0)})).ok());
  const TableSnapshotPtr after = table_->PinSnapshot();
  EXPECT_EQ(after->num_rows(), before->num_rows() + 1);
  EXPECT_EQ(before->chunk(0).get(), after->chunk(0).get());
  // The tail chunk (1500 rows → chunk 1 holds rows 1024..1499) was
  // copied, not shared.
  EXPECT_NE(before->chunk(1).get(), after->chunk(1).get());
}

// MergeBandJoinOp materializes its right side at Open from the right
// scan's pinned snapshot and, when the keys arrive already ascending,
// skips the sort entirely. That ordered-skip decision and the rows it
// indexes must be the same frozen version: out-of-order (or deleted)
// rows landing on the live table mid-query must not perturb the
// already-open join's output.
TEST_F(ScanSnapshotMidStreamTest, BandJoinOrderedSkipReadsPinnedSnapshot) {
  Table* table = table_;
  // s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 over the 1500-row table,
  // left = right = t; joined schema is (pos, val, pos, val).
  const ExprPtr cond = eb::Between(
      eb::Col(2, DataType::kInt64),
      eb::Sub(eb::Col(0, DataType::kInt64), eb::Int(1)),
      eb::Add(eb::Col(0, DataType::kInt64), eb::Int(1)));
  std::optional<BandJoinSpec> spec =
      TryExtractBandJoin(*cond, /*left_width=*/2, table,
                         /*indexed_only=*/false);
  ASSERT_TRUE(spec.has_value());

  Schema joined({ColumnDef("p1", DataType::kInt64),
                 ColumnDef("v1", DataType::kInt64),
                 ColumnDef("p2", DataType::kInt64),
                 ColumnDef("v2", DataType::kInt64)});
  auto left = std::make_unique<TableScanOp>(table->schema(), table);
  auto right = std::make_unique<TableScanOp>(table->schema(), table);
  auto join = std::make_unique<MergeBandJoinOp>(
      joined, std::move(left), std::move(right), std::move(*spec),
      JoinType::kInner);
  ASSERT_TRUE(join->Open().ok());  // right side drained + ordered-skip

  // Live mutations after Open: an out-of-order key (would break the
  // ordered-skip invariant if re-read) and a deleted boundary row.
  ASSERT_TRUE(table->Insert(Row({Value::Int(0), Value::Int(-1)})).ok());
  ASSERT_TRUE(table->DeleteRow(0).ok());  // live pos=1 gone

  std::vector<Row> rows;
  while (true) {
    VectorProjection* vp = nullptr;
    bool eof = false;
    ASSERT_TRUE(join->NextVector(&vp, &eof).ok());
    if (eof) break;
    vp->AppendSelectedTo(&rows);
  }
  // Snapshot-consistent count: 1500 left rows × 3 band candidates,
  // minus the two clipped edges (pos=1 lacks pos-1=0, pos=1500 lacks
  // 1501) — neither the pos=0 insert nor the pos=1 delete shows.
  EXPECT_EQ(rows.size(), 1500u * 3 - 2);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_EQ(rows[0][2], Value::Int(1));  // no pos=0 candidate appeared
  EXPECT_EQ(rows[1][2], Value::Int(2));
}

TEST_F(ScanSnapshotTest, WriteBracketCommitsAtStatementGranularity) {
  const TableSnapshotPtr committed = table_->PinSnapshot();
  EXPECT_EQ(committed->num_rows(), 3u);
  {
    Table::WriteGuard guard(table_);
    ASSERT_TRUE(table_->Insert(Row({Value::Int(4), Value::Int(40)})).ok());
    ASSERT_TRUE(table_->Insert(Row({Value::Int(5), Value::Int(50)})).ok());
    // Mid-statement pin: still the pre-statement image.
    EXPECT_EQ(table_->PinSnapshot()->num_rows(), 3u);
  }
  // EndWrite published both inserts as one commit.
  EXPECT_EQ(table_->PinSnapshot()->num_rows(), 5u);
}

TEST_F(ScanSnapshotTest, RetiredSnapshotsReclaimedWhenUnpinned) {
  EpochManager& manager = EpochManager::Global();
  // Hold the current snapshot, mutate twice: at least the directly
  // superseded snapshot stays retired while we hold our pin epoch.
  {
    EpochGuard pin;
    const TableSnapshotPtr held = table_->PinSnapshot();
    ASSERT_TRUE(table_->Insert(Row({Value::Int(4), Value::Int(40)})).ok());
    (void)table_->PinSnapshot();  // forces refresh + retire of `held`'s image
    EXPECT_GT(manager.retired_count(), 0u);
  }
  // All pins dropped: the next retire/reclaim cycle can free everything.
  ASSERT_TRUE(table_->Insert(Row({Value::Int(5), Value::Int(50)})).ok());
  (void)table_->PinSnapshot();
  EXPECT_LE(manager.retired_count(), 1u);  // only the just-retired one
}

TEST_F(ScanSnapshotTest, AnalyzeDoesNotBumpEpoch) {
  const uint64_t before = table_->mutation_epoch();
  MustExecute(db_, "ANALYZE t");
  EXPECT_EQ(table_->mutation_epoch(), before);

  TableScanOp scan(table_->schema(), table_);
  ASSERT_TRUE(scan.Open().ok());
  MustExecute(db_, "ANALYZE t");
  VectorProjection* vp = nullptr;
  bool eof = true;
  EXPECT_TRUE(scan.NextVector(&vp, &eof).ok());
  EXPECT_FALSE(eof);
}

// Copy-on-write at chunk granularity, and the snapshot-versioned index
// images: a 4 000-row keyed table spans four chunks.
class ChunkedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::CreateSeqTable(db_, 4000);
    Result<Table*> t = db_.catalog()->GetTable("seq");
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    table_ = *t;
  }

  /// Rows a range scan of pos in [lo, hi] yields from its pinned
  /// snapshot: the first vector, then `between`, then the rest.
  std::vector<Row> RangeScan(int64_t lo, int64_t hi,
                             const std::function<void()>& between) {
    KeyRange range;
    range.column = 0;
    range.index_name = table_->IndexNameOnColumn(0);
    range.lo = Value::Int(lo);
    range.hi = Value::Int(hi);
    TableScanOp scan(table_->schema(), table_, range);
    EXPECT_TRUE(scan.Open().ok());
    std::vector<Row> rows;
    VectorProjection* vp = nullptr;
    bool eof = false;
    EXPECT_TRUE(scan.NextVector(&vp, &eof).ok());
    if (!eof) vp->AppendSelectedTo(&rows);
    between();
    EXPECT_TRUE(DrainChild(&scan, &rows).ok());
    return rows;
  }

  Database db_;
  Table* table_ = nullptr;
};

TEST_F(ChunkedSnapshotTest, UpdateCopiesOnlyTheTouchedChunk) {
  const TableSnapshotPtr before = table_->PinSnapshot();
  ASSERT_EQ(before->num_chunks(), 4u);
  MustExecute(db_, "UPDATE seq SET val = val + 1 WHERE pos BETWEEN 11 AND 20");
  const TableSnapshotPtr after = table_->PinSnapshot();
  ASSERT_EQ(after->num_chunks(), 4u);
  EXPECT_NE(before->chunk(0).get(), after->chunk(0).get());
  // Every chunk after the dirty one is shared pointer-for-pointer.
  for (size_t c = 1; c < 4; ++c) {
    EXPECT_EQ(before->chunk(c).get(), after->chunk(c).get()) << "chunk " << c;
  }
}

TEST_F(ChunkedSnapshotTest, UpdateOfTwoChunksSharesTheRest) {
  const TableSnapshotPtr before = table_->PinSnapshot();
  MustExecute(db_, "UPDATE seq SET val = 0 WHERE pos = 5 OR pos = 3000");
  const TableSnapshotPtr after = table_->PinSnapshot();
  EXPECT_NE(before->chunk(0).get(), after->chunk(0).get());
  EXPECT_EQ(before->chunk(1).get(), after->chunk(1).get());
  EXPECT_NE(before->chunk(2).get(), after->chunk(2).get());
  EXPECT_EQ(before->chunk(3).get(), after->chunk(3).get());
}

TEST_F(ChunkedSnapshotTest, DeleteDirtiesFromTheDeletedRowOnward) {
  const TableSnapshotPtr before = table_->PinSnapshot();
  MustExecute(db_, "DELETE FROM seq WHERE pos = 2000");  // chunk 1
  const TableSnapshotPtr after = table_->PinSnapshot();
  ASSERT_EQ(after->num_rows(), 3999u);
  EXPECT_EQ(before->chunk(0).get(), after->chunk(0).get());
  for (size_t c = 1; c < 4; ++c) {
    EXPECT_NE(before->chunk(c).get(), after->chunk(c).get()) << "chunk " << c;
  }
  EXPECT_EQ(after->row(1999)[0], Value::Int(2001));
}

TEST_F(ChunkedSnapshotTest, NonKeyUpdateReusesTheIndexImage) {
  const OrderedIndexPtr before = table_->PinSnapshot()->IndexOnColumn(0);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->NumEntries(), 4000u);
  MustExecute(db_, "UPDATE seq SET val = val + 1 WHERE pos BETWEEN 11 AND 20");
  EXPECT_EQ(table_->PinSnapshot()->IndexOnColumn(0), before);
  ASSERT_TRUE(table_->UpdateCell(7, 1, Value::Double(1)).ok());
  EXPECT_EQ(table_->PinSnapshot()->IndexOnColumn(0), before);
  // A key change, an insert and a delete each start a new image.
  MustExecute(db_, "UPDATE seq SET pos = 9000 WHERE pos = 12");
  const OrderedIndexPtr moved = table_->PinSnapshot()->IndexOnColumn(0);
  EXPECT_NE(moved, before);
  EXPECT_EQ(moved->Lookup(Value::Int(9000)), std::vector<size_t>{11});
  MustExecute(db_, "INSERT INTO seq VALUES (4001, 1)");
  EXPECT_NE(table_->PinSnapshot()->IndexOnColumn(0), moved);
  // The old image still answers for its own snapshot.
  EXPECT_EQ(before->Lookup(Value::Int(12)), std::vector<size_t>{11});
}

TEST_F(ChunkedSnapshotTest, RangeScanReadsItsPinnedImage) {
  // Between the range's two vectors, deletes below the range shift
  // every row id in it, inserts add keys to its pending part and a key
  // update moves a pending row out of it: the open scan keeps the 1 500
  // rows of its snapshot, in pos order.
  const std::vector<Row> rows = RangeScan(1001, 2500, [this] {
    MustExecute(db_, "DELETE FROM seq WHERE pos <= 50");
    MustExecute(db_, "INSERT INTO seq VALUES (2100, 7), (2101, 7)");
    MustExecute(db_, "UPDATE seq SET pos = pos + 5000 WHERE pos = 2200");
  });
  ASSERT_EQ(rows.size(), 1500u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], Value::Int(static_cast<int64_t>(1001 + i)));
  }
  // A fresh statement sees the committed changes.
  const ResultSet rs =
      MustExecute(db_, "SELECT pos FROM seq WHERE pos BETWEEN 1001 AND 2500");
  EXPECT_EQ(rs.rows().size(), 1501u);
}

// End-to-end shape: SQL-level DML between two executed statements is
// visible to the next statement (each statement opens fresh scans
// against the latest committed snapshot).
TEST_F(ScanSnapshotTest, SequentialSqlStatementsSeeCommittedData) {
  MustExecute(db_, "INSERT INTO t VALUES (4, 40)");
  const ResultSet rs = MustExecute(db_, "SELECT pos, val FROM t");
  EXPECT_EQ(rs.rows().size(), 4u);
}

}  // namespace
}  // namespace rfv
