#include "storage/index.h"

#include <gtest/gtest.h>

#include "storage/table.h"

namespace rfv {
namespace {

std::unique_ptr<Table> MakeTable(const std::vector<int64_t>& keys) {
  static int counter = 0;
  auto t = std::make_unique<Table>("t" + std::to_string(counter++),
                                   Schema({ColumnDef("k", DataType::kInt64)}));
  for (int64_t k : keys) {
    EXPECT_TRUE(t->Insert(Row({Value::Int(k)})).ok());
  }
  return t;
}

TEST(IndexTest, PointLookup) {
  OrderedIndex index("i", 0);
  for (int64_t k : {5, 1, 3, 2, 4}) index.Insert(Value::Int(k), static_cast<size_t>(k));
  index.EnsureSorted();
  const std::vector<size_t> hits = index.Lookup(Value::Int(3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 3u);
  EXPECT_TRUE(index.Lookup(Value::Int(42)).empty());
}

TEST(IndexTest, DuplicateKeys) {
  OrderedIndex index("i", 0);
  index.Insert(Value::Int(7), 0);
  index.Insert(Value::Int(7), 1);
  index.Insert(Value::Int(8), 2);
  index.EnsureSorted();
  EXPECT_EQ(index.Lookup(Value::Int(7)).size(), 2u);
}

TEST(IndexTest, RangeLookupInclusive) {
  OrderedIndex index("i", 0);
  for (int64_t k = 1; k <= 10; ++k) {
    index.Insert(Value::Int(k), static_cast<size_t>(k));
  }
  index.EnsureSorted();
  EXPECT_EQ(index.LookupRange(Value::Int(3), true, Value::Int(6), true).size(),
            4u);
  EXPECT_EQ(index.LookupRange(Value::Int(8), true, Value::Null(), false).size(),
            3u);
  EXPECT_EQ(index.LookupRange(Value::Null(), false, Value::Int(2), true).size(),
            2u);
  EXPECT_EQ(
      index.LookupRange(Value::Null(), false, Value::Null(), false).size(),
      10u);
}

TEST(IndexTest, EmptyRange) {
  OrderedIndex index("i", 0);
  index.Insert(Value::Int(1), 0);
  index.EnsureSorted();
  EXPECT_TRUE(
      index.LookupRange(Value::Int(5), true, Value::Int(2), true).empty());
}

TEST(IndexTest, EntriesInRangeMatchesLinearScan) {
  // Keys 0..199, each twice (row ids 2k and 2k + 1 hold key k), plus a
  // NULL: every [lo, hi] must give the entries a scan finds, in key
  // order, wherever the gallop stops.
  OrderedIndex index("i", 0);
  index.Insert(Value::Null(), 400);
  for (int64_t k = 0; k < 400; ++k) {
    index.Insert(Value::Int(k / 2), static_cast<size_t>(k));
  }
  index.EnsureSorted();
  for (int64_t lo = -2; lo <= 201; lo += 3) {
    for (int64_t hi = lo - 1; hi <= 202; hi += 7) {
      std::vector<size_t> want;
      for (int64_t r = 0; r < 400; ++r) {
        if (lo <= r / 2 && r / 2 <= hi) want.push_back(static_cast<size_t>(r));
      }
      EXPECT_EQ(index.LookupRange(Value::Int(lo), true, Value::Int(hi), true),
                want);
      std::vector<size_t> got;
      int64_t prev = lo;
      for (const OrderedIndex::Entry& e :
           index.EntriesInRange(Value::Int(lo), Value::Int(hi))) {
        ASSERT_EQ(e.key.type(), DataType::kInt64);
        EXPECT_GE(e.key.AsInt(), prev);
        prev = e.key.AsInt();
        got.push_back(e.row_id);
      }
      EXPECT_EQ(got, want) << "[" << lo << ", " << hi << "]";
    }
  }
}

TEST(IndexTest, RebuildFromTable) {
  auto t = MakeTable({30, 10, 20});
  OrderedIndex index("i", 0);
  index.MarkDirty();
  index.RebuildFrom(*t);
  EXPECT_FALSE(index.dirty());
  EXPECT_EQ(index.NumEntries(), 3u);
  const std::vector<size_t> hits = index.Lookup(Value::Int(10));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);  // row id in table order
}

TEST(IndexTest, NegativeKeysSortBeforePositive) {
  // Complete sequences store header positions <= 0.
  OrderedIndex index("i", 0);
  for (int64_t k : {-2, 3, 0, -1, 1, 2}) {
    index.Insert(Value::Int(k), static_cast<size_t>(k + 2));
  }
  index.EnsureSorted();
  const std::vector<size_t> hits =
      index.LookupRange(Value::Int(-2), true, Value::Int(0), true);
  EXPECT_EQ(hits.size(), 3u);
}

TEST(IndexTest, MixedNumericKeysCompareNumerically) {
  OrderedIndex index("i", 0);
  index.Insert(Value::Double(1.5), 0);
  index.Insert(Value::Int(1), 1);
  index.Insert(Value::Int(2), 2);
  index.EnsureSorted();
  EXPECT_EQ(
      index.LookupRange(Value::Int(1), true, Value::Double(1.75), true).size(),
      2u);
}

}  // namespace
}  // namespace rfv
