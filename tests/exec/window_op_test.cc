#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/vector.h"
#include "expr/builder.h"
#include "testing/reference_window.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;

// Brute-force frame aggregate over the seq table values (pos 1..n).
std::vector<std::optional<double>> Brute(
    const std::vector<double>& vals, int64_t lo, int64_t hi, bool lo_unb,
    bool hi_unb, const std::string& fn) {
  const int64_t n = static_cast<int64_t>(vals.size());
  std::vector<std::optional<double>> out(vals.size());
  for (int64_t i = 0; i < n; ++i) {
    const int64_t from = lo_unb ? 0 : std::max<int64_t>(0, i + lo);
    const int64_t to = hi_unb ? n - 1 : std::min(n - 1, i + hi);
    if (to < from) {
      out[i] = fn == "COUNT" ? std::optional<double>(0) : std::nullopt;
      continue;
    }
    double acc = fn == "MIN" ? 1e300 : (fn == "MAX" ? -1e300 : 0);
    int64_t count = 0;
    for (int64_t j = from; j <= to; ++j) {
      ++count;
      if (fn == "MIN") acc = std::min(acc, vals[j]);
      else if (fn == "MAX") acc = std::max(acc, vals[j]);
      else acc += vals[j];
    }
    if (fn == "SUM") out[i] = acc;
    else if (fn == "AVG") out[i] = acc / static_cast<double>(count);
    else if (fn == "COUNT") out[i] = static_cast<double>(count);
    else out[i] = acc;
  }
  return out;
}

class WindowFrameSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(WindowFrameSweep, MatchesBruteForce) {
  const auto& [fn, l, h] = GetParam();
  constexpr int kN = 40;
  Database db;
  CreateSeqTable(db, kN);
  std::vector<double> vals;
  {
    const ResultSet base = MustExecute(db, "SELECT val FROM seq ORDER BY pos");
    for (size_t i = 0; i < base.NumRows(); ++i) {
      vals.push_back(base.at(i, 0).AsDouble());
    }
  }
  const std::string frame = "ROWS BETWEEN " + std::to_string(l) +
                            " PRECEDING AND " + std::to_string(h) +
                            " FOLLOWING";
  const ResultSet rs = MustExecute(
      db, "SELECT pos, " + fn + "(val) OVER (ORDER BY pos " + frame +
              ") FROM seq ORDER BY pos");
  const auto expected = Brute(vals, -l, h, false, false, fn);
  ASSERT_EQ(rs.NumRows(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    if (!expected[i].has_value()) {
      EXPECT_TRUE(rs.at(i, 1).is_null()) << fn << " row " << i;
    } else {
      ASSERT_FALSE(rs.at(i, 1).is_null()) << fn << " row " << i;
      EXPECT_DOUBLE_EQ(rs.at(i, 1).ToDouble(), *expected[i])
          << fn << "(" << l << "," << h << ") row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FnAndFrame, WindowFrameSweep,
    ::testing::Combine(::testing::Values("SUM", "AVG", "MIN", "MAX",
                                         "COUNT"),
                       ::testing::Values(0, 1, 3, 7),
                       ::testing::Values(0, 1, 2, 5)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int, int>>&
           info) {
      return std::get<0>(info.param) + "_l" +
             std::to_string(std::get<1>(info.param)) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

TEST(WindowOpTest, CumulativeFrame) {
  Database db;
  CreateSeqTable(db, 20);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED "
          "PRECEDING) FROM seq ORDER BY pos");
  double running = 0;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    const ResultSet v = MustExecute(
        db, "SELECT val FROM seq WHERE pos = " + std::to_string(i + 1));
    running += v.at(0, 0).AsDouble();
    EXPECT_DOUBLE_EQ(rs.at(i, 1).AsDouble(), running);
  }
}

TEST(WindowOpTest, WholePartitionFrame) {
  Database db;
  CreateSeqTable(db, 10);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER () FROM seq ORDER BY pos");
  const ResultSet total = MustExecute(db, "SELECT SUM(val) FROM seq");
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    EXPECT_EQ(rs.at(i, 1), total.at(0, 0));
  }
}

TEST(WindowOpTest, BackwardFrameIsEmptyAtStart) {
  Database db;
  CreateSeqTable(db, 5);
  // Frame 3 PRECEDING .. 1 PRECEDING: empty for the first row.
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
          "PRECEDING AND 1 PRECEDING), COUNT(val) OVER (ORDER BY pos ROWS "
          "BETWEEN 3 PRECEDING AND 1 PRECEDING) FROM seq ORDER BY pos");
  EXPECT_TRUE(rs.at(0, 1).is_null());
  EXPECT_EQ(rs.at(0, 2), Value::Int(0));
  EXPECT_FALSE(rs.at(1, 1).is_null());
}

TEST(WindowOpTest, PartitionByRestartsFrames) {
  Database db;
  MustExecute(db, "CREATE TABLE p (grp INTEGER, pos INTEGER, val DOUBLE)");
  MustExecute(db,
              "INSERT INTO p VALUES (1, 1, 10), (1, 2, 20), (1, 3, 30), "
              "(2, 1, 100), (2, 2, 200)");
  const ResultSet rs = MustExecute(
      db, "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos "
          "ROWS UNBOUNDED PRECEDING) FROM p ORDER BY grp, pos");
  EXPECT_DOUBLE_EQ(rs.at(2, 2).AsDouble(), 60.0);
  EXPECT_DOUBLE_EQ(rs.at(3, 2).AsDouble(), 100.0);  // restart
  EXPECT_DOUBLE_EQ(rs.at(4, 2).AsDouble(), 300.0);
}

TEST(WindowOpTest, PartitionByExpression) {
  Database db;
  CreateSeqTable(db, 12);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (PARTITION BY MOD(pos, 3) ORDER BY "
          "pos ROWS UNBOUNDED PRECEDING) FROM seq ORDER BY pos");
  EXPECT_EQ(rs.NumRows(), 12u);
  // Row pos=4 accumulates pos 1 and 4 (congruence class 1 mod 3).
  const ResultSet vals = MustExecute(db, "SELECT val FROM seq ORDER BY pos");
  EXPECT_DOUBLE_EQ(rs.at(3, 1).AsDouble(),
                   vals.at(0, 0).AsDouble() + vals.at(3, 0).AsDouble());
}

TEST(WindowOpTest, CountStarInWindow) {
  Database db;
  CreateSeqTable(db, 6);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 1 "
          "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_EQ(rs.at(0, 1), Value::Int(2));  // clipped at the start
  EXPECT_EQ(rs.at(2, 1), Value::Int(3));
  EXPECT_EQ(rs.at(5, 1), Value::Int(2));  // clipped at the end
}

TEST(WindowOpTest, NullArgumentsIgnoredBySumAvg) {
  Database db;
  MustExecute(db, "CREATE TABLE t (pos INTEGER, val DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)");
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
          "PRECEDING AND 1 FOLLOWING), AVG(val) OVER (ORDER BY pos ROWS "
          "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM t ORDER BY pos");
  EXPECT_DOUBLE_EQ(rs.at(1, 1).AsDouble(), 40.0);
  EXPECT_DOUBLE_EQ(rs.at(1, 2).AsDouble(), 20.0);  // AVG over 2 non-null
}

TEST(WindowOpTest, MultipleCallsDifferentSortOrders) {
  Database db;
  CreateSeqTable(db, 15);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
          "PRECEDING AND 1 FOLLOWING), SUM(val) OVER (ORDER BY pos DESC "
          "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY "
          "pos");
  // Centered symmetric windows agree in both sort directions.
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    EXPECT_EQ(rs.at(i, 1), rs.at(i, 2));
  }
}

TEST(WindowOpTest, RangeFrameValueDistances) {
  Database db;
  // Sparse timestamps: RANGE must window by value, not by row count.
  MustExecute(db, "CREATE TABLE t (ts INTEGER, v DOUBLE)");
  MustExecute(db,
              "INSERT INTO t VALUES (1, 10), (2, 20), (5, 50), (6, 60), "
              "(20, 200)");
  const ResultSet rs = MustExecute(
      db, "SELECT ts, SUM(v) OVER (ORDER BY ts RANGE BETWEEN 1 PRECEDING "
          "AND 1 FOLLOWING) FROM t ORDER BY ts");
  // ts=1: {1,2}=30; ts=2: {1,2}=30; ts=5: {5,6}=110; ts=6: {5,6}=110;
  // ts=20: {20}=200.
  EXPECT_DOUBLE_EQ(rs.at(0, 1).AsDouble(), 30);
  EXPECT_DOUBLE_EQ(rs.at(1, 1).AsDouble(), 30);
  EXPECT_DOUBLE_EQ(rs.at(2, 1).AsDouble(), 110);
  EXPECT_DOUBLE_EQ(rs.at(3, 1).AsDouble(), 110);
  EXPECT_DOUBLE_EQ(rs.at(4, 1).AsDouble(), 200);
}

TEST(WindowOpTest, RangeCurrentRowIncludesPeers) {
  Database db;
  MustExecute(db, "CREATE TABLE t (k INTEGER, v DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (1, 10), (2, 20), (2, 30), (3, 40)");
  // RANGE UNBOUNDED PRECEDING .. CURRENT ROW: peers (equal keys) are in
  // the frame — unlike ROWS.
  const ResultSet rs = MustExecute(
      db, "SELECT k, v, SUM(v) OVER (ORDER BY k RANGE BETWEEN UNBOUNDED "
          "PRECEDING AND CURRENT ROW) FROM t ORDER BY k, v");
  EXPECT_DOUBLE_EQ(rs.at(1, 2).AsDouble(), 60);  // both k=2 rows included
  EXPECT_DOUBLE_EQ(rs.at(2, 2).AsDouble(), 60);
  EXPECT_DOUBLE_EQ(rs.at(3, 2).AsDouble(), 100);
}

TEST(WindowOpTest, RangeMatchesRowsOnDensePositions) {
  Database db;
  CreateSeqTable(db, 25);
  const ResultSet range = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos RANGE BETWEEN 2 "
          "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  const ResultSet rows = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
          "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  for (size_t i = 0; i < range.NumRows(); ++i) {
    EXPECT_EQ(range.at(i, 1), rows.at(i, 1)) << i;
  }
}

TEST(WindowOpTest, RangeWithMinMax) {
  Database db;
  MustExecute(db, "CREATE TABLE t (ts INTEGER, v DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (1, 5), (3, 1), (4, 9), (10, 2)");
  const ResultSet rs = MustExecute(
      db, "SELECT ts, MIN(v) OVER (ORDER BY ts RANGE BETWEEN 2 PRECEDING "
          "AND 2 FOLLOWING) FROM t ORDER BY ts");
  EXPECT_DOUBLE_EQ(rs.at(0, 1).AsDouble(), 1);  // ts=1 sees {1,3}
  EXPECT_DOUBLE_EQ(rs.at(3, 1).AsDouble(), 2);  // ts=10 sees only itself
}

TEST(WindowOpTest, RangeFrameErrors) {
  Database db;
  MustExecute(db, "CREATE TABLE t (k VARCHAR, v DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES ('a', 1)");
  // Non-numeric key.
  EXPECT_EQ(db.Execute("SELECT SUM(v) OVER (ORDER BY k RANGE BETWEEN 1 "
                       "PRECEDING AND 1 FOLLOWING) FROM t")
                .status()
                .code(),
            StatusCode::kBindError);
  // Descending key.
  MustExecute(db, "CREATE TABLE t2 (k INTEGER, v DOUBLE)");
  MustExecute(db, "INSERT INTO t2 VALUES (1, 1)");
  EXPECT_EQ(db.Execute("SELECT SUM(v) OVER (ORDER BY k DESC RANGE BETWEEN "
                       "1 PRECEDING AND 1 FOLLOWING) FROM t2")
                .status()
                .code(),
            StatusCode::kBindError);
  // NULL keys at runtime.
  MustExecute(db, "CREATE TABLE t3 (k INTEGER, v DOUBLE)");
  MustExecute(db, "INSERT INTO t3 VALUES (NULL, 1), (1, 2)");
  EXPECT_EQ(db.Execute("SELECT SUM(v) OVER (ORDER BY k RANGE BETWEEN 1 "
                       "PRECEDING AND 1 FOLLOWING) FROM t3")
                .status()
                .code(),
            StatusCode::kExecutionError);
}

// Brute-force sweep for RANGE frames over sparse, duplicated keys.
class RangeFrameSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(RangeFrameSweep, MatchesBruteForce) {
  const auto& [fn, l, h] = GetParam();
  Database db;
  MustExecute(db, "CREATE TABLE t (ts INTEGER, v DOUBLE)");
  // Sparse keys with duplicates (peers).
  std::vector<std::pair<int, double>> data;
  int ts = 0;
  unsigned state = 12345 + l * 7 + h;
  for (int i = 0; i < 30; ++i) {
    state = state * 1103515245 + 12345;
    ts += (state >> 16) % 4;  // gaps of 0..3 (duplicates possible)
    data.emplace_back(ts, static_cast<double>((state >> 8) % 100) - 50);
  }
  std::string insert = "INSERT INTO t VALUES ";
  for (size_t i = 0; i < data.size(); ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(data[i].first) + ", " +
              std::to_string(data[i].second) + ")";
  }
  MustExecute(db, insert);

  const ResultSet rs = MustExecute(
      db, "SELECT ts, v, " + fn + "(v) OVER (ORDER BY ts RANGE BETWEEN " +
              std::to_string(l) + " PRECEDING AND " + std::to_string(h) +
              " FOLLOWING) FROM t ORDER BY ts, v");
  ASSERT_EQ(rs.NumRows(), data.size());
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    const double key = rs.at(i, 0).ToDouble();
    double sum = 0;
    double mn = 1e300;
    double mx = -1e300;
    int64_t count = 0;
    for (const auto& [k, v] : data) {
      if (k >= key - l && k <= key + h) {
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        ++count;
      }
    }
    double expected = 0;
    if (fn == "SUM") expected = sum;
    else if (fn == "AVG") expected = sum / static_cast<double>(count);
    else if (fn == "MIN") expected = mn;
    else if (fn == "MAX") expected = mx;
    else expected = static_cast<double>(count);
    ASSERT_FALSE(rs.at(i, 2).is_null()) << fn << " row " << i;
    EXPECT_DOUBLE_EQ(rs.at(i, 2).ToDouble(), expected)
        << fn << "(" << l << "," << h << ") row " << i << " key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FnAndDistance, RangeFrameSweep,
    ::testing::Combine(::testing::Values("SUM", "AVG", "MIN", "MAX",
                                         "COUNT"),
                       ::testing::Values(0, 1, 4), ::testing::Values(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int, int>>&
           info) {
      return std::get<0>(info.param) + "_l" +
             std::to_string(std::get<1>(info.param)) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

TEST(WindowOpTest, RangeQueryNotRewrittenFromViews) {
  Database db;
  CreateSeqTable(db, 10);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos RANGE BETWEEN 1 "
          "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST(WindowOpTest, RowNumber) {
  Database db;
  MustExecute(db, "CREATE TABLE t (grp INTEGER, v DOUBLE)");
  MustExecute(db,
              "INSERT INTO t VALUES (1, 30), (1, 10), (1, 20), (2, 5), "
              "(2, 15)");
  const ResultSet rs = MustExecute(
      db, "SELECT grp, v, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY v "
          "DESC) AS rn FROM t ORDER BY grp, rn");
  ASSERT_EQ(rs.NumRows(), 5u);
  EXPECT_EQ(rs.at(0, 1), Value::Double(30));
  EXPECT_EQ(rs.at(0, 2), Value::Int(1));
  EXPECT_EQ(rs.at(2, 1), Value::Double(10));
  EXPECT_EQ(rs.at(2, 2), Value::Int(3));
  EXPECT_EQ(rs.at(3, 2), Value::Int(1));  // restart per partition
}

TEST(WindowOpTest, RankWithTies) {
  Database db;
  MustExecute(db, "CREATE TABLE t (v DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (10), (20), (20), (30)");
  const ResultSet rs = MustExecute(
      db, "SELECT v, RANK() OVER (ORDER BY v) AS r, ROW_NUMBER() OVER "
          "(ORDER BY v) AS rn FROM t ORDER BY rn");
  EXPECT_EQ(rs.at(0, 1), Value::Int(1));
  EXPECT_EQ(rs.at(1, 1), Value::Int(2));
  EXPECT_EQ(rs.at(2, 1), Value::Int(2));  // tie shares the rank
  EXPECT_EQ(rs.at(3, 1), Value::Int(4));  // gap after the tie
}

TEST(WindowOpTest, TopNAnalysisPaperIntro) {
  // "TOP(n)-analyses" (paper §1): top-2 values via ROW_NUMBER + a
  // derived-table filter.
  Database db;
  CreateSeqTable(db, 30);
  const ResultSet rs = MustExecute(
      db, "SELECT r.pos, r.val FROM (SELECT pos, val, ROW_NUMBER() OVER "
          "(ORDER BY val DESC) AS rn FROM seq) r WHERE r.rn <= 2 ORDER BY "
          "r.val DESC");
  ASSERT_EQ(rs.NumRows(), 2u);
  const ResultSet max = MustExecute(db, "SELECT MAX(val) FROM seq");
  EXPECT_EQ(rs.at(0, 1), max.at(0, 0));
}

TEST(WindowOpTest, RankingFunctionErrors) {
  Database db;
  CreateSeqTable(db, 3);
  EXPECT_EQ(db.Execute("SELECT ROW_NUMBER() OVER () FROM seq")
                .status()
                .code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Execute("SELECT RANK() OVER (ORDER BY pos ROWS BETWEEN 1 "
                       "PRECEDING AND 1 FOLLOWING) FROM seq")
                .status()
                .code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Execute("SELECT ROW_NUMBER(pos) OVER (ORDER BY pos) FROM "
                       "seq")
                .status()
                .code(),
            StatusCode::kBindError);
}

TEST(WindowOpTest, MultiColumnWindowOrdering) {
  // Paper §6: reporting sequences ordered by multiple columns — the
  // native operator sorts by the full (month, day) key list.
  Database db;
  MustExecute(db, "CREATE TABLE t (mon INTEGER, day INTEGER, v DOUBLE)");
  MustExecute(db,
              "INSERT INTO t VALUES (2, 1, 30), (1, 2, 20), (1, 1, 10), "
              "(2, 2, 40)");
  const ResultSet rs = MustExecute(
      db, "SELECT mon, day, SUM(v) OVER (ORDER BY mon, day ROWS UNBOUNDED "
          "PRECEDING) FROM t ORDER BY mon, day");
  // Linearized order (1,1),(1,2),(2,1),(2,2) → cumulative 10,30,60,100.
  EXPECT_DOUBLE_EQ(rs.at(0, 2).AsDouble(), 10);
  EXPECT_DOUBLE_EQ(rs.at(1, 2).AsDouble(), 30);
  EXPECT_DOUBLE_EQ(rs.at(2, 2).AsDouble(), 60);
  EXPECT_DOUBLE_EQ(rs.at(3, 2).AsDouble(), 100);
}

TEST(WindowOpTest, ForwardFrameEmptyAtPartitionEnd) {
  // ROWS BETWEEN 2 FOLLOWING AND 4 FOLLOWING: the last two rows have an
  // empty frame — SUM/AVG/MIN/MAX must be NULL, COUNT must be 0.
  Database db;
  CreateSeqTable(db, 6);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
          "FOLLOWING AND 4 FOLLOWING), COUNT(val) OVER (ORDER BY pos ROWS "
          "BETWEEN 2 FOLLOWING AND 4 FOLLOWING), MIN(val) OVER (ORDER BY "
          "pos ROWS BETWEEN 2 FOLLOWING AND 4 FOLLOWING) FROM seq ORDER "
          "BY pos");
  ASSERT_EQ(rs.NumRows(), 6u);
  for (size_t i = 4; i < 6; ++i) {
    EXPECT_TRUE(rs.at(i, 1).is_null()) << "SUM row " << i;
    EXPECT_EQ(rs.at(i, 2), Value::Int(0)) << "COUNT row " << i;
    EXPECT_TRUE(rs.at(i, 3).is_null()) << "MIN row " << i;
  }
  EXPECT_FALSE(rs.at(3, 1).is_null());  // pos=4 still sees pos=6
}

TEST(WindowOpTest, RangeFrameEmptyOnKeyGaps) {
  // Sparse keys: RANGE BETWEEN 1 FOLLOWING AND 2 FOLLOWING is empty for
  // rows with no successor key within (key+1, key+2].
  Database db;
  MustExecute(db, "CREATE TABLE t (ts INTEGER, v DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (1, 10), (2, 20), (10, 100)");
  const ResultSet rs = MustExecute(
      db, "SELECT ts, SUM(v) OVER (ORDER BY ts RANGE BETWEEN 1 FOLLOWING "
          "AND 2 FOLLOWING), COUNT(v) OVER (ORDER BY ts RANGE BETWEEN 1 "
          "FOLLOWING AND 2 FOLLOWING) FROM t ORDER BY ts");
  // ts=1 sees {2}=20; ts=2 and ts=10 see nothing.
  EXPECT_DOUBLE_EQ(rs.at(0, 1).AsDouble(), 20);
  EXPECT_EQ(rs.at(0, 2), Value::Int(1));
  EXPECT_TRUE(rs.at(1, 1).is_null());
  EXPECT_EQ(rs.at(1, 2), Value::Int(0));
  EXPECT_TRUE(rs.at(2, 1).is_null());
  EXPECT_EQ(rs.at(2, 2), Value::Int(0));
}

TEST(WindowOpTest, RankOverNullOrderKeys) {
  // NULL order keys sort together (first) and are peers: they share one
  // rank, and the next non-NULL key gets a gapped rank.
  Database db;
  MustExecute(db, "CREATE TABLE t (v DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (NULL), (NULL), (10), (10), (20)");
  const ResultSet rs = MustExecute(
      db, "SELECT v, RANK() OVER (ORDER BY v) AS r FROM t ORDER BY r, v");
  ASSERT_EQ(rs.NumRows(), 5u);
  EXPECT_TRUE(rs.at(0, 0).is_null());
  EXPECT_EQ(rs.at(0, 1), Value::Int(1));
  EXPECT_EQ(rs.at(1, 1), Value::Int(1));  // NULLs are rank peers
  EXPECT_EQ(rs.at(2, 1), Value::Int(3));  // gap after the NULL tie
  EXPECT_EQ(rs.at(3, 1), Value::Int(3));
  EXPECT_EQ(rs.at(4, 1), Value::Int(5));
}

// ROWS offsets up to INT64_MAX: the frame ends stop at the partition
// instead of overflowing, in both execution modes and with a view the
// rewriter could consider; a sequence view of such a window is refused.
TEST(WindowOpTest, Int64MaxRowsOffsetsStopAtThePartition) {
  Database db;
  MustExecute(db, "CREATE TABLE t (pos INTEGER, val DOUBLE)");
  MustExecute(db, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
  const std::string max =
      std::to_string(std::numeric_limits<int64_t>::max());
  const auto window_sum = [&](const std::string& frame) {
    return "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN " + frame +
           ") FROM t ORDER BY pos";
  };
  const std::vector<std::pair<std::string, std::vector<double>>> cases = {
      {window_sum("1 PRECEDING AND " + max + " FOLLOWING"),
       {100, 100, 90, 70}},
      {window_sum(max + " PRECEDING AND " + max + " FOLLOWING"),
       {100, 100, 100, 100}},
  };
  for (const bool with_view : {false, true}) {
    if (with_view) {
      MustExecute(db,
                  "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
                  "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
                  "FROM t");
    }
    for (const auto& [sql, expected] : cases) {
      const ResultSet rs = MustExecute(db, sql);
      EXPECT_EQ(rs.rewrite_method(), "") << sql;
      ASSERT_EQ(rs.NumRows(), expected.size()) << sql;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(rs.at(i, 1), Value::Double(expected[i]))
            << sql << " row " << i << " view=" << with_view;
      }
    }
  }
  const Result<ResultSet> view = db.Execute(
      "CREATE MATERIALIZED VIEW huge AS SELECT pos, SUM(val) OVER (ORDER "
      "BY pos ROWS BETWEEN 1 PRECEDING AND " + max + " FOLLOWING) FROM t");
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.catalog()->HasTable("huge"));
}

TEST(WindowOpTest, WindowOverEmptyTable) {
  Database db;
  CreateSeqTable(db, 0);
  EXPECT_EQ(MustExecute(db,
                        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                        "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq")
                .NumRows(),
            0u);
}

// --- Partitioned windows against the reference evaluator
// (src/testing/reference_window.h), which shares no code with the
// operator's sort, partition sweep or frame engine. ---

// pt(grp INTEGER, pos INTEGER, val DOUBLE): kGroups partitions of
// kPerGroup dense positions plus a NULL-keyed partition of kNullGroupRows,
// inserted position by position across the partitions so that the sort
// has to gather each one. Values repeat within a partition (RANK ties)
// and position 7 of every partition has a NULL value. kRows is more than
// kVectorSize, so the output spans two vectors.
class WindowPartitionedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_,
                "CREATE TABLE pt (grp INTEGER, pos INTEGER, val DOUBLE)");
    std::string insert = "INSERT INTO pt VALUES ";
    bool first = true;
    for (int i = 1; i <= kPerGroup; ++i) {
      for (int g = 0; g <= kGroups; ++g) {
        const bool null_group = g == kGroups;
        if (null_group && i > kNullGroupRows) continue;
        if (!first) insert += ", ";
        first = false;
        const int v = ((g * 131 + i * 37 + 11) % 31) - 13;
        insert += "(" + (null_group ? "NULL" : std::to_string(g)) + ", " +
                  std::to_string(i) + ", " +
                  (i == 7 ? "NULL" : std::to_string(v)) + ")";
      }
    }
    MustExecute(db_, insert);
  }

  static constexpr int kGroups = 12;
  static constexpr int kPerGroup = 100;
  static constexpr int kNullGroupRows = 50;
  static constexpr int64_t kRows = kGroups * kPerGroup + kNullGroupRows;
  Database db_;
};

fuzzing::RefWindowCall RefCall(fuzzing::FuzzFn fn, bool cumulative,
                               int64_t l, int64_t h, int order_col = 1,
                               bool order_desc = false) {
  fuzzing::RefWindowCall call;
  call.fn = fn;
  call.frame.cumulative = cumulative;
  call.frame.l = l;
  call.frame.h = h;
  call.partition_col = 0;
  call.order_col = order_col;
  call.order_desc = order_desc;
  call.arg_col = 2;
  return call;
}

TEST_F(WindowPartitionedTest, PartitionedMatchesReference) {
  static_assert(kRows > static_cast<int64_t>(kVectorSize));
  using fuzzing::FuzzFn;
  using fuzzing::ReferenceWindow;
  // The reference scans (grp, pos, val) in the order the window
  // operator reads them, so ROW_NUMBER breaks ties the same way.
  const std::vector<Row> input =
      MustExecute(db_, "SELECT grp, pos, val FROM pt").rows();
  ASSERT_EQ(static_cast<int64_t>(input.size()), kRows);
  const auto sliding = [&](FuzzFn fn, int64_t l, int64_t h) {
    return ReferenceWindow(input, RefCall(fn, false, l, h));
  };
  // The reference frames start at or before the current row, so the
  // forward frame [2, 5] is counted as [0, 5] minus [0, 1].
  std::vector<Value> count_2_to_5;
  {
    const std::vector<Value> to_5 = sliding(FuzzFn::kCount, 0, 5);
    const std::vector<Value> to_1 = sliding(FuzzFn::kCount, 0, 1);
    for (size_t i = 0; i < input.size(); ++i) {
      count_2_to_5.push_back(Value::Int(to_5[i].AsInt() - to_1[i].AsInt()));
    }
  }
  struct Case {
    std::string sql;
    std::vector<Value> expected;  // aligned with `input`
  };
  const std::vector<Case> cases = {
      {"SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 3 "
       "PRECEDING AND 2 FOLLOWING)",
       sliding(FuzzFn::kSum, 3, 2)},
      {"AVG(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 5 "
       "PRECEDING AND CURRENT ROW)",
       sliding(FuzzFn::kAvg, 5, 0)},
      {"MIN(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 4 "
       "PRECEDING AND 4 FOLLOWING)",
       sliding(FuzzFn::kMin, 4, 4)},
      {"MAX(val) OVER (PARTITION BY grp ORDER BY pos ROWS UNBOUNDED "
       "PRECEDING)",
       ReferenceWindow(input, RefCall(FuzzFn::kMax, true, 0, 0))},
      {"COUNT(val) OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 2 "
       "FOLLOWING AND 5 FOLLOWING)",
       count_2_to_5},
      // Positions are dense and unique in every partition, so this RANGE
      // frame covers the same rows as ROWS 2 PRECEDING AND 2 FOLLOWING.
      {"SUM(val) OVER (PARTITION BY grp ORDER BY pos RANGE BETWEEN 2 "
       "PRECEDING AND 2 FOLLOWING)",
       sliding(FuzzFn::kSum, 2, 2)},
      {"RANK() OVER (PARTITION BY grp ORDER BY val)",
       ReferenceWindow(input, RefCall(FuzzFn::kRank, false, 0, 0, 2))},
      {"ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC)",
       ReferenceWindow(input,
                       RefCall(FuzzFn::kRowNumber, false, 0, 0, 2, true))},
  };
  for (const Case& c : cases) {
    const std::string sql =
        "SELECT grp, pos, " + c.sql + " FROM pt ORDER BY grp, pos";
    const ResultSet got = MustExecute(db_, sql);
    std::vector<Row> want;
    for (size_t i = 0; i < input.size(); ++i) {
      want.push_back(Row({input[i][0], input[i][1], c.expected[i]}));
    }
    EXPECT_TRUE(testutil::RowsEqualCanonical(
        got, ResultSet(got.schema(), std::move(want))))
        << sql;
  }
}

TEST_F(WindowPartitionedTest, MetricsReportWindowOperator) {
  const ResultSet rs = MustExecute(
      db_,
      "SELECT grp, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS "
      "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM pt ORDER BY grp");
  ASSERT_FALSE(rs.metrics().empty());
  bool saw_window = false;
  bool saw_scan = false;
  for (const OperatorMetricsEntry& e : rs.metrics()) {
    if (e.name == "window") {
      saw_window = true;
      EXPECT_EQ(e.metrics.rows_out, kRows);
      EXPECT_EQ(e.metrics.peak_buffered_rows, kRows);
      EXPECT_EQ(e.rows_in, kRows);
    }
    if (e.name == "scan") {
      saw_scan = true;
      EXPECT_EQ(e.metrics.rows_out, kRows);
    }
  }
  EXPECT_TRUE(saw_window);
  EXPECT_TRUE(saw_scan);
  EXPECT_FALSE(rs.MetricsToString().empty());
}

// --- Executor-side guards, exercised on directly built operator trees
// (the binder already rejects these shapes for SQL input). ---

struct WhiteBoxFixture {
  Database db;
  Table* table = nullptr;
  Schema scan_schema;

  explicit WhiteBoxFixture(DataType key_type) {
    Result<Table*> t = db.catalog()->CreateTable(
        "wb", Schema({ColumnDef("k", key_type),
                      ColumnDef("v", DataType::kInt64)}));
    EXPECT_TRUE(t.ok());
    table = *t;
    scan_schema = table->schema();
  }

  // SUM(v) OVER (ORDER BY k <frame>) as a raw WindowOp.
  PhysicalOperatorPtr MakeWindow(WindowFrame frame, bool ascending,
                                 AggFn fn = AggFn::kSum) {
    WindowCall call;
    call.kind = WindowFnKind::kAggregate;
    call.fn = fn;
    call.arg = eb::Col(1, DataType::kInt64, "v");
    SortKey key;
    key.expr = eb::Col(0, scan_schema.column(0).type, "k");
    key.ascending = ascending;
    call.order_by.push_back(std::move(key));
    call.frame = frame;
    call.output_name = "w";
    call.output_type = DataType::kInt64;
    Schema out = scan_schema;
    out.AddColumn(ColumnDef("w", call.output_type));
    std::vector<WindowCall> calls;
    calls.push_back(std::move(call));
    return PhysicalOperatorPtr(new WindowOp(
        std::move(out),
        PhysicalOperatorPtr(new TableScanOp(scan_schema, table)),
        std::move(calls)));
  }
};

WindowFrame RangeFrame(int64_t lo, int64_t hi) {
  WindowFrame f;
  f.lo_unbounded = false;
  f.hi_unbounded = false;
  f.lo = lo;
  f.hi = hi;
  f.range_mode = true;
  return f;
}

TEST(WindowRangeGuardTest, DescendingRangeKeyRejected) {
  WhiteBoxFixture fx(DataType::kInt64);
  ASSERT_TRUE(
      fx.table->InsertBatch({Row({Value::Int(1), Value::Int(10)})}).ok());
  PhysicalOperatorPtr op =
      fx.MakeWindow(RangeFrame(-1, 1), /*ascending=*/false);
  const Status s = op->Open();
  EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  EXPECT_NE(s.message().find("ascending"), std::string::npos);
}

TEST(WindowRangeGuardTest, NonNumericRangeKeyRejected) {
  WhiteBoxFixture fx(DataType::kString);
  ASSERT_TRUE(
      fx.table->InsertBatch({Row({Value::String("a"), Value::Int(10)})})
          .ok());
  PhysicalOperatorPtr op =
      fx.MakeWindow(RangeFrame(-1, 1), /*ascending=*/true);
  const Status s = op->Open();
  EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  EXPECT_NE(s.message().find("numeric"), std::string::npos);
}

TEST(WindowRangeGuardTest, InvertedRangeBoundsGiveEmptyFrames) {
  WhiteBoxFixture fx(DataType::kInt64);
  ASSERT_TRUE(fx.table
                  ->InsertBatch({Row({Value::Int(1), Value::Int(10)}),
                                 Row({Value::Int(2), Value::Int(20)}),
                                 Row({Value::Int(3), Value::Int(30)})})
                  .ok());
  // lo > hi: every frame is empty — SUM must be NULL, COUNT must be 0.
  PhysicalOperatorPtr sum =
      fx.MakeWindow(RangeFrame(2, 1), /*ascending=*/true);
  Result<std::vector<Row>> rows = ExecuteToVector(sum.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  for (const Row& r : *rows) EXPECT_TRUE(r[2].is_null());

  PhysicalOperatorPtr count =
      fx.MakeWindow(RangeFrame(2, 1), /*ascending=*/true, AggFn::kCount);
  rows = ExecuteToVector(count.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  for (const Row& r : *rows) EXPECT_EQ(r[2], Value::Int(0));
}

TEST(WindowOverflowTest, Int64SumOverflowIsAnError) {
  Database db;
  Result<Table*> t = db.catalog()->CreateTable(
      "big", Schema({ColumnDef("pos", DataType::kInt64),
                     ColumnDef("v", DataType::kInt64)}));
  ASSERT_TRUE(t.ok());
  const int64_t huge = std::numeric_limits<int64_t>::max() - 1;
  ASSERT_TRUE((*t)->InsertBatch({Row({Value::Int(1), Value::Int(huge)}),
                                 Row({Value::Int(2), Value::Int(huge)})})
                  .ok());
  const Result<ResultSet> r = db.Execute(
      "SELECT pos, SUM(v) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND "
      "CURRENT ROW) FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("overflow"), std::string::npos);
}

TEST(WindowOverflowTest, TransientOverflowOutsideAnyFrameIsFine) {
  // The sweep pushes row i+1 before popping row i-1, so the accumulator
  // transiently holds a superset of any single frame. That superset may
  // exceed int64 even when every real frame fits — this must NOT error.
  Database db;
  Result<Table*> t = db.catalog()->CreateTable(
      "big", Schema({ColumnDef("pos", DataType::kInt64),
                     ColumnDef("v", DataType::kInt64)}));
  ASSERT_TRUE(t.ok());
  const int64_t big = std::numeric_limits<int64_t>::max() / 2 + 10;
  ASSERT_TRUE((*t)->InsertBatch({Row({Value::Int(1), Value::Int(big)}),
                                 Row({Value::Int(2), Value::Int(big)}),
                                 Row({Value::Int(3), Value::Int(big)})})
                  .ok());
  // Frame = current row only: every real frame sums to `big` (fits),
  // but while the sweep advances, row i+1 is pushed before row i is
  // popped, so the accumulator transiently holds 2*big (overflow).
  const Result<ResultSet> r = db.Execute(
      "SELECT pos, SUM(v) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW AND "
      "CURRENT ROW) FROM big ORDER BY pos");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at(0, 1), Value::Int(big));
  EXPECT_EQ(r->at(1, 1), Value::Int(big));
  EXPECT_EQ(r->at(2, 1), Value::Int(big));
}

}  // namespace
}  // namespace rfv
