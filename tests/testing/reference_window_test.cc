// Golden checks for the fuzz harness's trusted reference evaluator
// (src/testing/reference_window.h): paper Table-1-style sliding sums
// verified number by number, SQL NULL/tie semantics, and agreement with
// the engine's window operator on the canonical seq-table data used by
// the tests under tests/exec.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "testing/reference_window.h"
#include "test_util.h"

namespace rfv {
namespace fuzzing {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;

Row MakeRow(int64_t pos, Value val) {
  Row row;
  row.Append(Value::Int(pos));
  row.Append(std::move(val));
  return row;
}

std::vector<Row> IntRows(const std::vector<int64_t>& vals) {
  std::vector<Row> rows;
  for (size_t i = 0; i < vals.size(); ++i) {
    rows.push_back(MakeRow(static_cast<int64_t>(i) + 1, Value::Int(vals[i])));
  }
  return rows;
}

RefWindowCall Call(FuzzFn fn, FuzzFrame frame) {
  RefWindowCall call;
  call.fn = fn;
  call.frame = frame;
  call.order_col = 0;
  call.arg_col = fn == FuzzFn::kCountStar ? -1 : 1;
  return call;
}

FuzzFrame Sliding(int64_t l, int64_t h) {
  FuzzFrame f;
  f.cumulative = false;
  f.l = l;
  f.h = h;
  return f;
}

// Paper Table 1 query shape: SUM OVER (ORDER BY pos ROWS BETWEEN
// 1 PRECEDING AND 1 FOLLOWING), hand-computed on 1..5.
TEST(ReferenceWindowTest, Table1SlidingSumGolden) {
  const std::vector<Row> rows = IntRows({1, 2, 3, 4, 5});
  const std::vector<Value> out =
      ReferenceWindow(rows, Call(FuzzFn::kSum, Sliding(1, 1)));
  const std::vector<int64_t> expected = {3, 6, 9, 12, 9};
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].Compare(Value::Int(expected[i])), 0) << "row " << i;
  }
}

// Offsets up to INT64_MAX stop at the partition ends.
TEST(ReferenceWindowTest, Int64MaxOffsetsStopAtThePartition) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Row> rows = IntRows({10, 20, 30, 40});
  const std::vector<std::pair<FuzzFrame, std::vector<int64_t>>> cases = {
      {Sliding(1, kMax), {100, 100, 90, 70}},
      {Sliding(kMax, kMax), {100, 100, 100, 100}},
      {Sliding(kMax, 0), {10, 30, 60, 100}},
  };
  for (const auto& [frame, expected] : cases) {
    const std::vector<Value> out =
        ReferenceWindow(rows, Call(FuzzFn::kSum, frame));
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out[i].Compare(Value::Int(expected[i])), 0) << "row " << i;
    }
  }
}

// Frames that exclude the current row: a negative h ends the frame
// before it, a negative l starts it after it. Rows whose frame lies
// wholly outside the partition get COUNT 0 and NULL, also when the far
// offset is INT64_MAX or the near one is INT64_MAX - 1.
TEST(ReferenceWindowTest, FramesExcludingTheCurrentRow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Row> rows = IntRows({10, 20, 30, 40});
  const Value null = Value::Null();
  const auto I = [](int64_t v) { return Value::Int(v); };
  const std::vector<std::tuple<FuzzFn, FuzzFrame, std::vector<Value>>> cases =
      {
          // 2 PRECEDING AND 1 PRECEDING
          {FuzzFn::kSum, Sliding(2, -1), {null, I(10), I(30), I(50)}},
          {FuzzFn::kCount, Sliding(2, -1), {I(0), I(1), I(2), I(2)}},
          // 1 FOLLOWING AND 3 FOLLOWING
          {FuzzFn::kMax, Sliding(-1, 3), {I(40), I(40), I(40), null}},
          {FuzzFn::kCountStar, Sliding(-1, 3), {I(3), I(2), I(1), I(0)}},
          // INT64_MAX PRECEDING AND 2 PRECEDING
          {FuzzFn::kMin, Sliding(kMax, -2), {null, null, I(10), I(10)}},
          // 2 FOLLOWING AND INT64_MAX FOLLOWING
          {FuzzFn::kSum, Sliding(-2, kMax), {I(70), I(40), null, null}},
          // INT64_MAX - 1 FOLLOWING AND INT64_MAX FOLLOWING: always empty
          {FuzzFn::kCount, Sliding(1 - kMax, kMax), {I(0), I(0), I(0), I(0)}},
          // INT64_MAX PRECEDING AND INT64_MAX - 1 PRECEDING: always empty
          {FuzzFn::kAvg, Sliding(kMax, 1 - kMax), {null, null, null, null}},
      };
  for (const auto& [fn, frame, expected] : cases) {
    const std::vector<Value> out = ReferenceWindow(rows, Call(fn, frame));
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out[i].is_null(), expected[i].is_null())
          << frame.ToSql() << " row " << i;
      if (!expected[i].is_null()) {
        EXPECT_EQ(out[i].Compare(expected[i]), 0)
            << frame.ToSql() << " row " << i;
      }
    }
  }
  EXPECT_EQ(Sliding(2, -1).ToSql(),
            "ROWS BETWEEN 2 PRECEDING AND 1 PRECEDING");
  EXPECT_EQ(Sliding(-1, 3).ToSql(),
            "ROWS BETWEEN 1 FOLLOWING AND 3 FOLLOWING");
}

TEST(ReferenceWindowTest, CumulativeSumGolden) {
  const std::vector<Row> rows = IntRows({5, -2, 7, 0, 1});
  const std::vector<Value> out =
      ReferenceWindow(rows, Call(FuzzFn::kSum, FuzzFrame{}));
  const std::vector<int64_t> expected = {5, 3, 10, 10, 11};
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].Compare(Value::Int(expected[i])), 0) << "row " << i;
  }
}

// Output order must follow input order, not sorted order.
TEST(ReferenceWindowTest, OutputAlignedWithInputOrder) {
  std::vector<Row> rows;
  rows.push_back(MakeRow(3, Value::Int(30)));
  rows.push_back(MakeRow(1, Value::Int(10)));
  rows.push_back(MakeRow(2, Value::Int(20)));
  const std::vector<Value> out =
      ReferenceWindow(rows, Call(FuzzFn::kSum, FuzzFrame{}));
  // Cumulative by pos: pos1=10, pos2=30, pos3=60 — aligned to input.
  EXPECT_EQ(out[0].Compare(Value::Int(60)), 0);
  EXPECT_EQ(out[1].Compare(Value::Int(10)), 0);
  EXPECT_EQ(out[2].Compare(Value::Int(30)), 0);
}

TEST(ReferenceWindowTest, NullSemantics) {
  std::vector<Row> rows;
  rows.push_back(MakeRow(1, Value::Null()));
  rows.push_back(MakeRow(2, Value::Int(4)));
  rows.push_back(MakeRow(3, Value::Null()));

  // SUM skips NULLs; an all-NULL frame is NULL.
  const std::vector<Value> sum =
      ReferenceWindow(rows, Call(FuzzFn::kSum, Sliding(0, 1)));
  EXPECT_EQ(sum[0].Compare(Value::Int(4)), 0);  // frame {1,2}
  EXPECT_EQ(sum[1].Compare(Value::Int(4)), 0);  // frame {2,3}
  EXPECT_TRUE(sum[2].is_null());                // frame {3}

  // COUNT(val) counts non-NULL; COUNT(*) counts rows.
  const std::vector<Value> count =
      ReferenceWindow(rows, Call(FuzzFn::kCount, FuzzFrame{}));
  EXPECT_EQ(count[2].Compare(Value::Int(1)), 0);
  const std::vector<Value> count_star =
      ReferenceWindow(rows, Call(FuzzFn::kCountStar, FuzzFrame{}));
  EXPECT_EQ(count_star[2].Compare(Value::Int(3)), 0);
}

TEST(ReferenceWindowTest, MinMaxGolden) {
  const std::vector<Row> rows = IntRows({4, -1, 9, 2});
  const std::vector<Value> mins =
      ReferenceWindow(rows, Call(FuzzFn::kMin, Sliding(1, 1)));
  const std::vector<Value> maxs =
      ReferenceWindow(rows, Call(FuzzFn::kMax, Sliding(1, 1)));
  const std::vector<int64_t> expected_min = {-1, -1, -1, 2};
  const std::vector<int64_t> expected_max = {4, 9, 9, 9};
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(mins[i].Compare(Value::Int(expected_min[i])), 0) << i;
    EXPECT_EQ(maxs[i].Compare(Value::Int(expected_max[i])), 0) << i;
  }
}

TEST(ReferenceWindowTest, AvgGolden) {
  const std::vector<Row> rows = IntRows({1, 2, 3, 4});
  const std::vector<Value> out =
      ReferenceWindow(rows, Call(FuzzFn::kAvg, Sliding(1, 0)));
  EXPECT_EQ(out[0].Compare(Value::Double(1.0)), 0);
  EXPECT_EQ(out[1].Compare(Value::Double(1.5)), 0);
  EXPECT_EQ(out[2].Compare(Value::Double(2.5)), 0);
  EXPECT_EQ(out[3].Compare(Value::Double(3.5)), 0);
}

// RANK is gapped on ties; ROW_NUMBER never is.
TEST(ReferenceWindowTest, RankingWithTies) {
  std::vector<Row> rows;
  rows.push_back(MakeRow(1, Value::Int(10)));
  rows.push_back(MakeRow(2, Value::Int(10)));
  rows.push_back(MakeRow(3, Value::Int(5)));

  RefWindowCall rank = Call(FuzzFn::kRank, FuzzFrame{});
  rank.order_col = 1;  // ORDER BY val
  const std::vector<Value> ranks = ReferenceWindow(rows, rank);
  EXPECT_EQ(ranks[0].Compare(Value::Int(2)), 0);
  EXPECT_EQ(ranks[1].Compare(Value::Int(2)), 0);
  EXPECT_EQ(ranks[2].Compare(Value::Int(1)), 0);

  RefWindowCall rn = Call(FuzzFn::kRowNumber, FuzzFrame{});
  rn.order_col = 1;
  const std::vector<Value> numbers = ReferenceWindow(rows, rn);
  EXPECT_EQ(numbers[0].Compare(Value::Int(2)), 0);  // stable: input order
  EXPECT_EQ(numbers[1].Compare(Value::Int(3)), 0);
  EXPECT_EQ(numbers[2].Compare(Value::Int(1)), 0);

  rn.order_desc = true;
  const std::vector<Value> desc = ReferenceWindow(rows, rn);
  EXPECT_EQ(desc[0].Compare(Value::Int(1)), 0);
  EXPECT_EQ(desc[1].Compare(Value::Int(2)), 0);
  EXPECT_EQ(desc[2].Compare(Value::Int(3)), 0);
}

TEST(ReferenceWindowTest, PartitionsAreIndependent) {
  std::vector<Row> rows;
  for (int64_t g : {0, 1}) {
    for (int64_t p = 1; p <= 3; ++p) {
      Row row;
      row.Append(Value::Int(g));
      row.Append(Value::Int(p));
      row.Append(Value::Int(p * (g + 1)));
      rows.push_back(std::move(row));
    }
  }
  RefWindowCall call;
  call.fn = FuzzFn::kSum;
  call.partition_col = 0;
  call.order_col = 1;
  call.arg_col = 2;
  const std::vector<Value> out = ReferenceWindow(rows, call);
  // grp 0: 1,3,6; grp 1: 2,6,12.
  const std::vector<int64_t> expected = {1, 3, 6, 2, 6, 12};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].Compare(Value::Int(expected[i])), 0) << i;
  }
}

// Agreement with the engine's window operator on the canonical seq
// table every tests/exec expectation is built on.
TEST(ReferenceWindowTest, MatchesEngineOnSeqTable) {
  Database db;
  CreateSeqTable(db, 25);
  const std::vector<std::pair<FuzzFn, FuzzFrame>> cases = {
      {FuzzFn::kSum, FuzzFrame{}},          {FuzzFn::kSum, Sliding(1, 1)},
      {FuzzFn::kAvg, Sliding(2, 0)},        {FuzzFn::kMin, Sliding(3, 2)},
      {FuzzFn::kMax, FuzzFrame{}},          {FuzzFn::kCount, Sliding(0, 4)},
      {FuzzFn::kSum, Sliding(3, -1)},       {FuzzFn::kCount, Sliding(-2, 5)},
  };
  for (const auto& [fn, frame] : cases) {
    const std::string fn_sql = FuzzFnSql(fn);
    const ResultSet rs = MustExecute(
        db, "SELECT pos, val, " + fn_sql + "(val) OVER (ORDER BY pos " +
                frame.ToSql() + ") FROM seq ORDER BY pos");

    RefWindowCall call;
    call.fn = fn;
    call.frame = frame;
    call.order_col = 0;
    call.arg_col = 1;
    std::vector<Row> base;
    for (const Row& row : rs.rows()) {
      base.push_back(Row({row[0], row[1]}));
    }
    const std::vector<Value> expected = ReferenceWindow(base, call);
    ASSERT_EQ(expected.size(), rs.NumRows());
    for (size_t i = 0; i < rs.NumRows(); ++i) {
      EXPECT_EQ(rs.at(i, 2).Compare(expected[i]), 0)
          << fn_sql << " " << frame.ToSql() << " row " << i;
    }
  }
}

}  // namespace
}  // namespace fuzzing
}  // namespace rfv
