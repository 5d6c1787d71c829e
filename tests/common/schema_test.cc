#include "common/schema.h"

#include <gtest/gtest.h>

#include "common/row.h"

namespace rfv {
namespace {

Schema MakeTwoTableSchema() {
  return Schema({ColumnDef("pos", DataType::kInt64, "s1"),
                 ColumnDef("val", DataType::kDouble, "s1"),
                 ColumnDef("pos", DataType::kInt64, "s2"),
                 ColumnDef("val", DataType::kDouble, "s2")});
}

TEST(SchemaTest, QualifiedLookup) {
  const Schema schema = MakeTwoTableSchema();
  EXPECT_EQ(schema.FindColumn("s1", "pos").value(), 0u);
  EXPECT_EQ(schema.FindColumn("s2", "pos").value(), 2u);
  EXPECT_EQ(schema.FindColumn("s2", "val").value(), 3u);
}

TEST(SchemaTest, UnqualifiedAmbiguityIsBindError) {
  const Schema schema = MakeTwoTableSchema();
  const Result<size_t> r = schema.FindColumn("", "pos");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(SchemaTest, UnqualifiedUniqueSucceeds) {
  Schema schema({ColumnDef("a", DataType::kInt64, "t"),
                 ColumnDef("b", DataType::kInt64, "t")});
  EXPECT_EQ(schema.FindColumn("", "b").value(), 1u);
}

TEST(SchemaTest, MissingColumnIsNotFound) {
  const Schema schema = MakeTwoTableSchema();
  EXPECT_EQ(schema.FindColumn("s1", "nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(schema.FindColumn("", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  const Schema schema = MakeTwoTableSchema();
  EXPECT_EQ(schema.FindColumn("S1", "POS").value(), 0u);
}

TEST(SchemaTest, TryFindReportsAmbiguity) {
  const Schema schema = MakeTwoTableSchema();
  bool ambiguous = false;
  EXPECT_FALSE(schema.TryFindColumn("", "val", &ambiguous).has_value());
  EXPECT_TRUE(ambiguous);
}

TEST(SchemaTest, WithQualifierRewritesAll) {
  const Schema schema = MakeTwoTableSchema().WithQualifier("x");
  EXPECT_EQ(schema.column(0).qualifier, "x");
  EXPECT_EQ(schema.column(3).qualifier, "x");
  // Now every name is ambiguous between the duplicated pos/val pairs.
  bool ambiguous = false;
  schema.TryFindColumn("x", "pos", &ambiguous);
  EXPECT_TRUE(ambiguous);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema left({ColumnDef("a", DataType::kInt64, "l")});
  Schema right({ColumnDef("b", DataType::kString, "r")});
  const Schema joined = Schema::Concat(left, right);
  ASSERT_EQ(joined.NumColumns(), 2u);
  EXPECT_EQ(joined.column(0).name, "a");
  EXPECT_EQ(joined.column(1).name, "b");
}

TEST(SchemaTest, QualifiedName) {
  EXPECT_EQ(ColumnDef("pos", DataType::kInt64, "s1").QualifiedName(),
            "s1.pos");
  EXPECT_EQ(ColumnDef("pos", DataType::kInt64).QualifiedName(), "pos");
}

TEST(RowTest, ConcatAndEquality) {
  const Row left({Value::Int(1), Value::String("a")});
  const Row right({Value::Double(2.5)});
  const Row joined = Row::Concat(left, right);
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined[0], Value::Int(1));
  EXPECT_EQ(joined[2], Value::Double(2.5));
  EXPECT_EQ(joined, Row({Value::Int(1), Value::String("a"),
                         Value::Double(2.5)}));
}

TEST(RowTest, ToString) {
  EXPECT_EQ(Row({Value::Int(1), Value::Null()}).ToString(), "(1, NULL)");
}

}  // namespace
}  // namespace rfv
