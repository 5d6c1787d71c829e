// The serving-layer stress battery: N reader sessions scanning the base
// table and a materialized view while a writer session appends and
// updates the base table and refreshes the view. The acceptance contract of the
// snapshot scheme:
//
//   * no reader ever errors (the old mutation_epoch abort is gone);
//   * every reader-observed row count corresponds to SOME committed
//     statement — appends land in multiples of kRowsPerInsert, so a
//     torn (mid-statement) snapshot would show a stray remainder;
//   * per-statement atomicity of updates — a multi-row UPDATE is either
//     fully visible or not at all, never half-applied.
//
// Runs in tier-1, and the CI tsan/asan legs run it with the race and
// lifetime checkers on — that is where the real verification happens.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/session.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

constexpr int kInitialRows = 1100;  // spans two snapshot chunks
constexpr int kRowsPerInsert = 7;
constexpr int kWriterStatements = 60;
constexpr int kReaderThreads = 3;

class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::CreateSeqTable(db_, kInitialRows);
    // Uniform band the writer's multi-row UPDATE will repaint; readers
    // assert they never see a half-painted band.
    MustExecute(db_, "UPDATE seq SET val = 0 WHERE pos <= 50");
    MustExecute(db_,
                "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
                "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
                "FROM seq");
    Session setup(&db_);
    const Result<ResultSet> base = setup.Execute("SELECT pos FROM seq");
    const Result<ResultSet> view = setup.Execute("SELECT pos FROM v");
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(view.ok());
    base_initial_ = base->rows().size();
    // The view's content tracks the base it was refreshed against with a
    // constant row offset (header/trailer padding); remember it so view
    // counts can be mapped back to a base epoch.
    view_offset_ = static_cast<long>(view->rows().size()) -
                   static_cast<long>(base_initial_);
  }

  /// next_pos for the writer's INSERT batches.
  int64_t next_pos_ = kInitialRows + 1;
  size_t base_initial_ = 0;
  long view_offset_ = 0;
  Database db_;
};

TEST_F(ServeStressTest, ReadersSeeConsistentSnapshotsUnderWrites) {
  std::atomic<bool> writer_done{false};
  std::atomic<int> reader_failures{0};

  const auto reader = [this, &writer_done, &reader_failures]() {
    Session session(&db_);
    // Rewrites would answer from the view when derivable; this reader
    // checks the base-scan path deterministically.
    session.options().enable_view_rewrite = false;
    while (!writer_done.load(std::memory_order_relaxed)) {
      // 1. Base count: must be initial + k·kRowsPerInsert for whole k.
      const Result<ResultSet> base = session.Execute("SELECT pos FROM seq");
      if (!base.ok()) {
        ADD_FAILURE() << "base scan failed: " << base.status().ToString();
        reader_failures.fetch_add(1);
        break;
      }
      const size_t count = base->rows().size();
      if (count < base_initial_ ||
          (count - base_initial_) % kRowsPerInsert != 0) {
        ADD_FAILURE() << "torn base snapshot: " << count << " rows";
        reader_failures.fetch_add(1);
        break;
      }
      // 2. Update band: fully painted with one generation or untouched.
      const Result<ResultSet> band =
          session.Execute("SELECT val FROM seq WHERE pos <= 50");
      if (!band.ok() || band->rows().size() != 50u) {
        ADD_FAILURE() << "band scan failed";
        reader_failures.fetch_add(1);
        break;
      }
      const Value& first = band->rows().front()[0];
      for (const Row& row : band->rows()) {
        if (!(row[0] == first)) {
          ADD_FAILURE() << "torn UPDATE: mixed band generations";
          reader_failures.fetch_add(1);
          return;
        }
      }
      // 3. View content: count maps to a refreshed base epoch.
      const Result<ResultSet> view = session.Execute("SELECT pos FROM v");
      if (!view.ok()) {
        ADD_FAILURE() << "view scan failed: " << view.status().ToString();
        reader_failures.fetch_add(1);
        break;
      }
      const long view_base =
          static_cast<long>(view->rows().size()) - view_offset_;
      if (view_base < static_cast<long>(base_initial_) ||
          (view_base - static_cast<long>(base_initial_)) % kRowsPerInsert !=
              0) {
        ADD_FAILURE() << "torn view snapshot: " << view->rows().size()
                      << " rows";
        reader_failures.fetch_add(1);
        break;
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int r = 0; r < kReaderThreads; ++r) readers.emplace_back(reader);

  // The writer: append a batch, repaint the band, refresh the view —
  // all through the SQL front door so the full admission + write-mutex
  // + WriteGuard path is exercised.
  Session writer(&db_);
  for (int i = 0; i < kWriterStatements; ++i) {
    switch (i % 3) {
      case 0: {
        std::string insert = "INSERT INTO seq VALUES ";
        for (int r = 0; r < kRowsPerInsert; ++r) {
          if (r > 0) insert += ", ";
          insert += "(" + std::to_string(next_pos_++) + ", 1)";
        }
        const Result<ResultSet> rs = writer.Execute(insert);
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        break;
      }
      case 1: {
        const Result<ResultSet> rs = writer.Execute(
            "UPDATE seq SET val = " + std::to_string(i) + " WHERE pos <= 50");
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        break;
      }
      case 2: {
        const Status s = db_.view_manager()->RefreshView("v");
        ASSERT_TRUE(s.ok()) << s.ToString();
        break;
      }
    }
  }
  writer_done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);

  // Final state sanity: all appends arrived.
  Session check(&db_);
  const Result<ResultSet> final_rows = check.Execute("SELECT pos FROM seq");
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(final_rows->rows().size(),
            base_initial_ + (kWriterStatements + 2) / 3 * kRowsPerInsert);
}

// Same battery against EXPLAIN ANALYZE (it executes the plan) plus
// concurrent DML on a second session — a cheap way to drive the
// operator-metrics collection path concurrently.
TEST_F(ServeStressTest, ExplainAnalyzeRacesDml) {
  std::atomic<bool> done{false};
  std::thread analyzer([this, &done] {
    Session s(&db_);
    while (!done.load(std::memory_order_relaxed)) {
      const Result<ResultSet> rs =
          s.Execute("EXPLAIN ANALYZE SELECT pos, val FROM seq");
      EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    }
  });
  Session writer(&db_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer
                    .Execute("INSERT INTO seq VALUES (" +
                             std::to_string(next_pos_++) + ", 1)")
                    .ok());
  }
  done.store(true);
  analyzer.join();
}

}  // namespace
}  // namespace rfv
