#include "view/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;
using testutil::RowsEqual;

class ViewMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
    std::string insert = "INSERT INTO seq VALUES ";
    for (int i = 1; i <= 30; ++i) {
      if (i > 1) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
    }
    MustExecute(db_, insert);
  }

  void CreateView(const std::string& name, const std::string& fn, int l,
                  int h) {
    MustExecute(db_, "CREATE MATERIALIZED VIEW " + name + " AS SELECT pos, " +
                         fn + "(val) OVER (ORDER BY pos ROWS BETWEEN " +
                         std::to_string(l) + " PRECEDING AND " +
                         std::to_string(h) + " FOLLOWING) FROM seq");
  }

  /// The view content must equal a freshly refreshed copy.
  void ExpectViewFresh(const std::string& name) {
    const ResultSet before = MustExecute(
        db_, "SELECT pos, val FROM " + name + " ORDER BY pos");
    ASSERT_TRUE(db_.view_manager()->RefreshView(name).ok());
    const ResultSet after = MustExecute(
        db_, "SELECT pos, val FROM " + name + " ORDER BY pos");
    EXPECT_TRUE(RowsEqual(before, after)) << name;
  }

  Database db_;
};

TEST_F(ViewMaintenanceTest, UpdateTouchesWindowRowsOnly) {
  CreateView("v", "SUM", 2, 1);  // w = 4
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 15, 100.0);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  EXPECT_EQ(*touched, 4u);
  // Base table took the update.
  const ResultSet base = MustExecute(db_, "SELECT val FROM seq WHERE pos = 15");
  EXPECT_DOUBLE_EQ(base.at(0, 0).ToDouble(), 100.0);
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, UpdateNearBoundaryTouchesHeader) {
  CreateView("v", "SUM", 1, 2);
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 1, 50.0);
  ASSERT_TRUE(touched.ok());
  // Affected positions [1-2, 1+1] = [-1, 2], all stored.
  EXPECT_EQ(*touched, 4u);
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, UpdateMaintainsCumulativeView) {
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW vcum AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 10, 99.0);
  ASSERT_TRUE(touched.ok());
  ExpectViewFresh("vcum");
}

TEST_F(ViewMaintenanceTest, UpdateMaintainsMinMaxViews) {
  CreateView("vmin", "MIN", 2, 2);
  CreateView("vmax", "MAX", 1, 1);
  ASSERT_TRUE(
      PropagateBaseUpdate(db_.view_manager(), "seq", 12, -50.0).ok());
  ExpectViewFresh("vmin");
  ExpectViewFresh("vmax");
  ASSERT_TRUE(
      PropagateBaseUpdate(db_.view_manager(), "seq", 12, 50.0).ok());
  ExpectViewFresh("vmin");
  ExpectViewFresh("vmax");
}

TEST_F(ViewMaintenanceTest, UpdateMaintainsMinMaxViewsOnUnindexedBase) {
  // Five rows under seven-row windows: every affected window is clipped
  // at both ends, and with no position index the base span is read in
  // one pass.
  MustExecute(db_, "CREATE TABLE short_seq (pos INTEGER, val DOUBLE)");
  MustExecute(db_,
              "INSERT INTO short_seq VALUES (1, 4), (2, -1), (3, 9), (4, 2), "
              "(5, 6)");
  for (const char* fn : {"MIN", "MAX"}) {
    MustExecute(db_, std::string("CREATE MATERIALIZED VIEW s") + fn +
                         " AS SELECT pos, " + fn +
                         "(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
                         "AND 3 FOLLOWING) FROM short_seq");
  }
  const std::vector<std::pair<int64_t, double>> updates = {
      {3, -5.0}, {1, 20.0}, {5, -7.0}, {3, 30.0}};
  for (const auto& [position, value] : updates) {
    ASSERT_TRUE(PropagateBaseUpdate(db_.view_manager(), "short_seq", position,
                                    value)
                    .ok());
    ExpectViewFresh("sMIN");
    ExpectViewFresh("sMAX");
  }
}

TEST_F(ViewMaintenanceTest, MultipleViewsMaintainedTogether) {
  CreateView("v1", "SUM", 1, 1);
  CreateView("v2", "SUM", 3, 0);
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 20, 42.0);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(*touched, 3u + 4u);
  ExpectViewFresh("v1");
  ExpectViewFresh("v2");
}

TEST_F(ViewMaintenanceTest, InsertShiftsPositions) {
  CreateView("v", "SUM", 1, 1);
  const Result<size_t> touched =
      PropagateBaseInsert(db_.view_manager(), "seq", 10, 500.0);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  // Base has 31 rows, value 500 now at position 10.
  const ResultSet base = MustExecute(db_, "SELECT val FROM seq WHERE pos = 10");
  EXPECT_DOUBLE_EQ(base.at(0, 0).ToDouble(), 500.0);
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(31));
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, DeleteShiftsPositions) {
  CreateView("v", "SUM", 1, 1);
  ASSERT_TRUE(PropagateBaseDelete(db_.view_manager(), "seq", 10).ok());
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(29));
  // Positions stay dense 1..29.
  EXPECT_EQ(MustExecute(db_, "SELECT MAX(pos) FROM seq").at(0, 0),
            Value::Int(29));
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, UpdateMissingPositionFails) {
  CreateView("v", "SUM", 1, 1);
  EXPECT_EQ(
      PropagateBaseUpdate(db_.view_manager(), "seq", 99, 1.0).status().code(),
      StatusCode::kNotFound);
}

TEST_F(ViewMaintenanceTest, NoDependentViewsFails) {
  EXPECT_EQ(
      PropagateBaseUpdate(db_.view_manager(), "seq", 1, 1.0).status().code(),
      StatusCode::kNotFound);
}

// Each update changes four rows of v (w = 4). The content writes are
// one bracketed statement, so a reader pinning v while updates run sees
// all four of a position's rows changed or none, never one to three.
TEST_F(ViewMaintenanceTest, ReaderNeverSeesHalfMaintainedWindow) {
  CreateView("v", "SUM", 2, 1);
  Result<Table*> content = db_.catalog()->GetTable("v");
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  const TableSnapshotPtr initial = (*content)->PinSnapshot();
  const size_t val_col = (*content)->schema().NumColumns() - 1;
  std::atomic<bool> done{false};
  std::atomic<int64_t> pins{0};
  std::atomic<int64_t> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const TableSnapshotPtr snap = (*content)->PinSnapshot();
      size_t changed = 0;
      for (size_t r = 0; r < snap->num_rows(); ++r) {
        if (snap->row(r)[val_col] != initial->row(r)[val_col]) ++changed;
      }
      if (snap->num_rows() != initial->num_rows() ||
          (changed != 0 && changed != 4)) {
        torn.fetch_add(1);
      }
      pins.fetch_add(1);
    }
  });
  while (pins.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 2000; ++i) {
    // Position 15 holds 15 % 7 = 1: alternate between 100 and back.
    const double value = i % 2 == 0 ? 100.0 : 1.0;
    EXPECT_TRUE(
        PropagateBaseUpdate(db_.view_manager(), "seq", 15, value).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0) << "of " << pins.load() << " pins";
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, QueriesAfterMaintenanceAreCorrect) {
  CreateView("v", "SUM", 2, 1);
  ASSERT_TRUE(PropagateBaseUpdate(db_.view_manager(), "seq", 7, 123.0).ok());
  const std::string query =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet via_view = MustExecute(db_, query);
  EXPECT_EQ(via_view.rewrite_method(), "direct");
  db_.options().enable_view_rewrite = false;
  const ResultSet direct = MustExecute(db_, query);
  EXPECT_TRUE(RowsEqual(via_view, direct));
}

}  // namespace
}  // namespace rfv
