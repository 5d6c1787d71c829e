#include "view/view_manager.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;

class ViewManagerTest : public ::testing::Test {
 protected:
  void SetUp() override { CreateSeqTable(db_, 10); }

  SequenceViewDef SlidingDef(const std::string& name, int64_t l, int64_t h) {
    SequenceViewDef def;
    def.view_name = name;
    def.base_table = "seq";
    def.value_column = "val";
    def.order_column = "pos";
    def.fn = SeqAggFn::kSum;
    def.window = WindowSpec::SlidingUnchecked(l, h);
    return def;
  }

  Database db_;
};

TEST_F(ViewManagerTest, CreateMaterializesCompleteSequence) {
  const Result<const SequenceViewDef*> view =
      db_.view_manager()->CreateSequenceView(SlidingDef("v21", 2, 1));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ((*view)->n, 10);
  // Content table exists with header (-h+1 = 0) and trailer (n+l = 12).
  const ResultSet rows = MustExecute(
      db_, "SELECT pos, val FROM v21 ORDER BY pos");
  ASSERT_EQ(rows.NumRows(), 13u);  // positions 0..12
  EXPECT_EQ(rows.at(0, 0), Value::Int(0));
  EXPECT_EQ(rows.at(12, 0), Value::Int(12));
}

TEST_F(ViewManagerTest, ContentMatchesWindowQuery) {
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v11", 1, 1)).ok());
  const ResultSet view_rows = MustExecute(
      db_, "SELECT pos, val FROM v11 WHERE pos BETWEEN 1 AND 10 ORDER BY "
           "pos");
  db_.options().enable_view_rewrite = false;
  const ResultSet direct = MustExecute(
      db_, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
           "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(view_rows.at(i, 1).ToDouble(),
                     direct.at(i, 1).ToDouble());
  }
}

TEST_F(ViewManagerTest, IndexCreatedOnPos) {
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v", 1, 1)).ok());
  Result<Table*> content = db_.catalog()->GetTable("v");
  ASSERT_TRUE(content.ok());
  const Result<size_t> pos_col = (*content)->schema().FindColumn("", "pos");
  ASSERT_TRUE(pos_col.ok());
  EXPECT_TRUE((*content)->HasIndexOnColumn(*pos_col));
}

TEST_F(ViewManagerTest, UnindexedViewOption) {
  SequenceViewDef def = SlidingDef("vnoidx", 1, 1);
  def.indexed = false;
  ASSERT_TRUE(db_.view_manager()->CreateSequenceView(def).ok());
  Result<Table*> content = db_.catalog()->GetTable("vnoidx");
  ASSERT_TRUE(content.ok());
  for (size_t c = 0; c < (*content)->schema().NumColumns(); ++c) {
    EXPECT_FALSE((*content)->HasIndexOnColumn(c)) << "column " << c;
  }
}

TEST_F(ViewManagerTest, DuplicateNameRejected) {
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v", 1, 1)).ok());
  EXPECT_EQ(db_.view_manager()
                ->CreateSequenceView(SlidingDef("v", 2, 1))
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ViewManagerTest, MissingBaseTableRejected) {
  SequenceViewDef def = SlidingDef("v", 1, 1);
  def.base_table = "nope";
  EXPECT_EQ(db_.view_manager()->CreateSequenceView(def).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ViewManagerTest, MissingColumnRejected) {
  SequenceViewDef def = SlidingDef("v", 1, 1);
  def.value_column = "nope";
  EXPECT_EQ(db_.view_manager()->CreateSequenceView(def).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ViewManagerTest, GappyPositionsRejected) {
  MustExecute(db_, "CREATE TABLE gappy (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO gappy VALUES (1, 1), (3, 3)");
  SequenceViewDef def = SlidingDef("v", 1, 1);
  def.base_table = "gappy";
  EXPECT_EQ(db_.view_manager()->CreateSequenceView(def).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ViewManagerTest, DuplicatePositionsRejected) {
  MustExecute(db_, "CREATE TABLE dup (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO dup VALUES (1, 1), (1, 2)");
  SequenceViewDef def = SlidingDef("v", 1, 1);
  def.base_table = "dup";
  EXPECT_EQ(db_.view_manager()->CreateSequenceView(def).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ViewManagerTest, RefreshPicksUpBaseChanges) {
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v", 1, 1)).ok());
  MustExecute(db_, "UPDATE seq SET val = 1000 WHERE pos = 5");
  ASSERT_TRUE(db_.view_manager()->RefreshView("v").ok());
  const ResultSet rows =
      MustExecute(db_, "SELECT val FROM v WHERE pos = 5");
  EXPECT_GT(rows.at(0, 0).ToDouble(), 900.0);
}

TEST_F(ViewManagerTest, DropRemovesViewAndContent) {
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v", 1, 1)).ok());
  ASSERT_TRUE(db_.view_manager()->DropView("v").ok());
  EXPECT_EQ(db_.view_manager()->FindView("v"), nullptr);
  EXPECT_FALSE(db_.catalog()->HasTable("v"));
}

TEST_F(ViewManagerTest, FindCandidatesFiltersCorrectly) {
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v1", 1, 1)).ok());
  ASSERT_TRUE(
      db_.view_manager()->CreateSequenceView(SlidingDef("v2", 2, 1)).ok());
  SequenceViewDef min_def = SlidingDef("vmin", 1, 1);
  min_def.fn = SeqAggFn::kMin;
  ASSERT_TRUE(db_.view_manager()->CreateSequenceView(min_def).ok());

  EXPECT_EQ(db_.view_manager()
                ->FindCandidates("seq", "val", "pos", SeqAggFn::kSum)
                .size(),
            2u);
  EXPECT_EQ(db_.view_manager()
                ->FindCandidates("seq", "val", "pos", SeqAggFn::kMin)
                .size(),
            1u);
  EXPECT_TRUE(db_.view_manager()
                  ->FindCandidates("other", "val", "pos", SeqAggFn::kSum)
                  .empty());
}

TEST_F(ViewManagerTest, PartitionedViewMaterializesPerPartition) {
  MustExecute(db_, "CREATE TABLE pseq (grp INTEGER, pos INTEGER, val DOUBLE)");
  MustExecute(db_,
              "INSERT INTO pseq VALUES (1, 1, 10), (1, 2, 20), (1, 3, 30), "
              "(2, 1, 5), (2, 2, 15)");
  SequenceViewDef def;
  def.view_name = "pview";
  def.base_table = "pseq";
  def.value_column = "val";
  def.order_column = "pos";
  def.partition_columns = {"grp"};
  def.fn = SeqAggFn::kSum;
  def.window = WindowSpec::SlidingUnchecked(1, 1);
  const Result<const SequenceViewDef*> view =
      db_.view_manager()->CreateSequenceView(def);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // Partition 1: positions 0..4 (n=3, l=h=1); partition 2: 0..3 (n=2).
  const ResultSet rows = MustExecute(
      db_, "SELECT grp, pos, val FROM pview ORDER BY grp, pos");
  EXPECT_EQ(rows.NumRows(), 9u);
  // Partition boundaries hold: grp=1 pos=3 window is {20,30} = 50, not
  // contaminated by grp=2.
  const ResultSet boundary = MustExecute(
      db_, "SELECT val FROM pview WHERE grp = 1 AND pos = 3");
  EXPECT_DOUBLE_EQ(boundary.at(0, 0).ToDouble(), 50.0);
}

TEST_F(ViewManagerTest, CumulativeView) {
  SequenceViewDef def = SlidingDef("vcum", 0, 0);
  def.window = WindowSpec::Cumulative();
  ASSERT_TRUE(db_.view_manager()->CreateSequenceView(def).ok());
  const ResultSet rows =
      MustExecute(db_, "SELECT pos, val FROM vcum ORDER BY pos");
  EXPECT_EQ(rows.NumRows(), 10u);  // body only: cumulative header is 0
}

}  // namespace
}  // namespace rfv
