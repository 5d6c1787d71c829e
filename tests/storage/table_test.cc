#include "storage/table.h"

#include <gtest/gtest.h>

namespace rfv {
namespace {

Schema SeqSchema() {
  return Schema({ColumnDef("pos", DataType::kInt64),
                 ColumnDef("val", DataType::kDouble)});
}

TEST(TableTest, InsertAndRead) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.Insert(Row({Value::Int(1), Value::Double(10)})).ok());
  ASSERT_TRUE(t.Insert(Row({Value::Int(2), Value::Double(20)})).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(1)[1], Value::Double(20));
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("seq", SeqSchema());
  const Status s = t.Insert(Row({Value::Int(1)}));
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST(TableTest, IntCoercesToDoubleColumn) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.Insert(Row({Value::Int(1), Value::Int(10)})).ok());
  EXPECT_EQ(t.row(0)[1].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(t.row(0)[1].AsDouble(), 10.0);
}

TEST(TableTest, ExactDoubleCoercesToIntColumn) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.Insert(Row({Value::Double(3.0), Value::Double(1)})).ok());
  EXPECT_EQ(t.row(0)[0], Value::Int(3));
  EXPECT_EQ(t.Insert(Row({Value::Double(3.5), Value::Double(1)})).code(),
            StatusCode::kTypeError);
}

TEST(TableTest, NullAllowedAnywhere) {
  Table t("seq", SeqSchema());
  EXPECT_TRUE(t.Insert(Row({Value::Null(), Value::Null()})).ok());
}

TEST(TableTest, StringIntoNumericRejected) {
  Table t("seq", SeqSchema());
  EXPECT_EQ(t.Insert(Row({Value::String("x"), Value::Double(1)})).code(),
            StatusCode::kTypeError);
}

TEST(TableTest, UpdateRowAndCell) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.Insert(Row({Value::Int(1), Value::Double(10)})).ok());
  ASSERT_TRUE(t.UpdateCell(0, 1, Value::Double(99)).ok());
  EXPECT_EQ(t.row(0)[1], Value::Double(99));
  ASSERT_TRUE(t.UpdateRow(0, Row({Value::Int(5), Value::Double(50)})).ok());
  EXPECT_EQ(t.row(0)[0], Value::Int(5));
  EXPECT_EQ(t.UpdateRow(7, Row({Value::Int(1), Value::Double(1)})).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, DeleteCompacts) {
  Table t("seq", SeqSchema());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(t.Insert(Row({Value::Int(i), Value::Double(i)})).ok());
  }
  ASSERT_TRUE(t.DeleteRow(1).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(1)[0], Value::Int(3));
  EXPECT_EQ(t.DeleteRow(9).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, Truncate) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.Insert(Row({Value::Int(1), Value::Double(1)})).ok());
  t.Truncate();
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, InsertBatchValidatesAll) {
  Table t("seq", SeqSchema());
  std::vector<Row> rows;
  rows.push_back(Row({Value::Int(1), Value::Double(1)}));
  rows.push_back(Row({Value::String("bad"), Value::Double(2)}));
  EXPECT_EQ(t.InsertBatch(std::move(rows)).code(), StatusCode::kTypeError);
  EXPECT_EQ(t.NumRows(), 0u);  // all-or-nothing
}

TEST(TableTest, CreateIndexOnMissingColumnFails) {
  Table t("seq", SeqSchema());
  EXPECT_EQ(t.CreateIndex("i", "nope").code(), StatusCode::kNotFound);
}

TEST(TableTest, DuplicateIndexNameFails) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("i", "pos").ok());
  EXPECT_EQ(t.CreateIndex("i", "val").code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, IndexCoversInsertedRows) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("i", "pos").ok());
  for (int i = 5; i >= 1; --i) {
    ASSERT_TRUE(t.Insert(Row({Value::Int(i), Value::Double(i)})).ok());
  }
  const OrderedIndexPtr index = t.GetIndexOnColumn(0);
  ASSERT_NE(index, nullptr);
  const std::vector<size_t> hits = index->Lookup(Value::Int(3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(t.row(hits[0])[0], Value::Int(3));
}

TEST(TableTest, IndexFollowsDelete) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("i", "pos").ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(t.Insert(Row({Value::Int(i), Value::Double(i)})).ok());
  }
  ASSERT_TRUE(t.DeleteRow(0).ok());
  const OrderedIndexPtr index = t.GetIndexOnColumn(0);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->Lookup(Value::Int(1)).empty());
  EXPECT_EQ(index->Lookup(Value::Int(4)), std::vector<size_t>{2});
}

TEST(TableTest, UpdateCellKeepsUnrelatedIndexImages) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("i", "pos").ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(t.Insert(Row({Value::Int(i), Value::Double(i)})).ok());
  }
  const OrderedIndexPtr index = t.GetIndexOnColumn(0);
  ASSERT_NE(index, nullptr);
  // Updating the non-key column keeps the image.
  ASSERT_TRUE(t.UpdateCell(2, 1, Value::Double(99)).ok());
  EXPECT_EQ(t.GetIndexOnColumn(0), index);
  // Updating the key column starts a new one; the old image is intact.
  ASSERT_TRUE(t.UpdateCell(2, 0, Value::Int(33)).ok());
  const OrderedIndexPtr rebuilt = t.GetIndexOnColumn(0);
  EXPECT_NE(rebuilt, index);
  EXPECT_EQ(rebuilt->Lookup(Value::Int(33)).size(), 1u);
  EXPECT_TRUE(rebuilt->Lookup(Value::Int(3)).empty());
  EXPECT_EQ(index->Lookup(Value::Int(3)).size(), 1u);
}

TEST(TableTest, UpdateCellValidatesType) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.Insert(Row({Value::Int(1), Value::Double(1)})).ok());
  EXPECT_EQ(t.UpdateCell(0, 0, Value::String("x")).code(),
            StatusCode::kTypeError);
  // Coercion still applies.
  ASSERT_TRUE(t.UpdateCell(0, 1, Value::Int(7)).ok());
  EXPECT_EQ(t.row(0)[1].type(), DataType::kDouble);
}

TEST(TableTest, HasIndexOnColumn) {
  Table t("seq", SeqSchema());
  EXPECT_FALSE(t.HasIndexOnColumn(0));
  ASSERT_TRUE(t.CreateIndex("i", "pos").ok());
  EXPECT_TRUE(t.HasIndexOnColumn(0));
  EXPECT_FALSE(t.HasIndexOnColumn(1));
  EXPECT_EQ(t.GetIndexOnColumn(1), nullptr);
}

}  // namespace
}  // namespace rfv
