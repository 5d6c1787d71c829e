#include "storage/index.h"

#include <gtest/gtest.h>

#include "storage/table.h"

namespace rfv {
namespace {

/// An image over (key, row id) pairs given in any order.
OrderedIndex MakeIndex(std::vector<OrderedIndex::Entry> entries) {
  return OrderedIndex("i", 0, std::move(entries));
}

/// An image of keys where key i sits at row id i.
OrderedIndex IndexOfKeys(const std::vector<Value>& keys) {
  std::vector<OrderedIndex::Entry> entries;
  for (size_t i = 0; i < keys.size(); ++i) entries.push_back({keys[i], i});
  return MakeIndex(std::move(entries));
}

std::vector<size_t> RowIds(const OrderedIndex& index,
                           std::optional<Value> lo,
                           std::optional<Value> hi) {
  return index.RowIdsInRange(lo.has_value() ? &*lo : nullptr,
                             hi.has_value() ? &*hi : nullptr);
}

TEST(IndexTest, PointLookup) {
  const OrderedIndex index = MakeIndex({{Value::Int(5), 5},
                                        {Value::Int(1), 1},
                                        {Value::Int(3), 3},
                                        {Value::Int(2), 2},
                                        {Value::Int(4), 4}});
  const std::vector<size_t> hits = index.Lookup(Value::Int(3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 3u);
  EXPECT_TRUE(index.Lookup(Value::Int(42)).empty());
}

TEST(IndexTest, DuplicateKeys) {
  const OrderedIndex index =
      IndexOfKeys({Value::Int(7), Value::Int(7), Value::Int(8)});
  EXPECT_EQ(index.Lookup(Value::Int(7)).size(), 2u);
}

TEST(IndexTest, RangeLookupInclusive) {
  std::vector<Value> keys;
  for (int64_t k = 1; k <= 10; ++k) keys.push_back(Value::Int(k));
  const OrderedIndex index = IndexOfKeys(keys);
  EXPECT_EQ(RowIds(index, Value::Int(3), Value::Int(6)).size(), 4u);
  EXPECT_EQ(RowIds(index, Value::Int(8), std::nullopt).size(), 3u);
  EXPECT_EQ(RowIds(index, std::nullopt, Value::Int(2)).size(), 2u);
  EXPECT_EQ(RowIds(index, std::nullopt, std::nullopt).size(), 10u);
}

TEST(IndexTest, EmptyRange) {
  const OrderedIndex index = IndexOfKeys({Value::Int(1)});
  EXPECT_TRUE(RowIds(index, Value::Int(5), Value::Int(2)).empty());
}

TEST(IndexTest, EntriesInRangeMatchesLinearScan) {
  // Keys 0..199, each twice (row ids 2k and 2k + 1 hold key k), plus a
  // NULL: every [lo, hi] must give the entries a scan finds, in key
  // order, wherever the gallop stops.
  std::vector<Value> keys;
  for (int64_t k = 0; k < 400; ++k) keys.push_back(Value::Int(k / 2));
  keys.push_back(Value::Null());
  const OrderedIndex index = IndexOfKeys(keys);
  for (int64_t lo = -2; lo <= 201; lo += 3) {
    for (int64_t hi = lo - 1; hi <= 202; hi += 7) {
      std::vector<size_t> want;
      for (int64_t r = 0; r < 400; ++r) {
        if (lo <= r / 2 && r / 2 <= hi) want.push_back(static_cast<size_t>(r));
      }
      EXPECT_EQ(RowIds(index, Value::Int(lo), Value::Int(hi)), want);
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

TEST(IndexTest, OpenLowSideIncludesNullKeys) {
  // NULL sorts below every number, so `key <= 2` read through an open
  // low side holds the NULL row too; range readers re-check the
  // predicate, which drops it.
  const OrderedIndex index =
      IndexOfKeys({Value::Int(3), Value::Null(), Value::Int(1)});
  EXPECT_EQ(RowIds(index, std::nullopt, Value::Int(2)),
            (std::vector<size_t>{1, 2}));
}

TEST(IndexTest, RowIdsComeBackInRowIdOrder) {
  // Keys descend with the row id: the range holds rows 1..3 in key
  // order 3, 2, 1, and the row ids come back ascending.
  const OrderedIndex index = IndexOfKeys(
      {Value::Int(9), Value::Int(8), Value::Int(7), Value::Int(6)});
  EXPECT_EQ(RowIds(index, Value::Int(6), Value::Int(8)),
            (std::vector<size_t>{1, 2, 3}));
}

TEST(IndexTest, BuildFromRows) {
  const std::vector<Row> rows = {Row({Value::Int(30)}), Row({Value::Int(10)}),
                                 Row({Value::Int(20)})};
  const OrderedIndexPtr index = OrderedIndex::Build(
      "i", 0, rows.size(), [&rows](size_t i) -> const Row& { return rows[i]; });
  EXPECT_EQ(index->NumEntries(), 3u);
  const std::vector<size_t> hits = index->Lookup(Value::Int(10));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);  // row id in table order
}

TEST(IndexTest, NegativeKeysSortBeforePositive) {
  // Complete sequences store header positions <= 0.
  std::vector<OrderedIndex::Entry> entries;
  for (int64_t k : {-2, 3, 0, -1, 1, 2}) {
    entries.push_back({Value::Int(k), static_cast<size_t>(k + 2)});
  }
  const OrderedIndex index = MakeIndex(std::move(entries));
  EXPECT_EQ(RowIds(index, Value::Int(-2), Value::Int(0)).size(), 3u);
}

TEST(IndexTest, MixedNumericKeysCompareNumerically) {
  const OrderedIndex index =
      IndexOfKeys({Value::Double(1.5), Value::Int(1), Value::Int(2)});
  EXPECT_EQ(RowIds(index, Value::Int(1), Value::Double(1.75)).size(), 2u);
}

}  // namespace
}  // namespace rfv
