// Session: per-session options isolation, the prepared statement of
// record, last_error bookkeeping, and concurrent sessions executing
// against one Database.

#include "db/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "db/database.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE seq (pos INTEGER, val INTEGER)");
    MustExecute(db_, "INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30)");
  }

  Database db_;
};

TEST_F(SessionTest, IdsAreUniqueAndMonotone) {
  Session a(&db_);
  Session b(&db_);
  EXPECT_GT(a.id(), 0);
  EXPECT_GT(b.id(), a.id());
  EXPECT_EQ(a.database(), &db_);
}

TEST_F(SessionTest, ExecuteDelegatesToDatabase) {
  Session s(&db_);
  const Result<ResultSet> rs = s.Execute("SELECT pos, val FROM seq");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows().size(), 3u);
  EXPECT_EQ(s.statements_executed(), 1);
  EXPECT_TRUE(s.last_error().ok());
}

TEST_F(SessionTest, OptionsAreIsolatedPerSession) {
  Session a(&db_);
  Session b(&db_);
  ASSERT_TRUE(a.options().enable_view_rewrite);
  a.options().enable_view_rewrite = false;
  a.options().exec.enable_hash_join = false;
  // Neither the sibling session nor the engine defaults moved.
  EXPECT_TRUE(b.options().enable_view_rewrite);
  EXPECT_TRUE(db_.options().enable_view_rewrite);
  EXPECT_TRUE(b.options().exec.enable_hash_join);
  EXPECT_TRUE(db_.options().exec.enable_hash_join);
}

TEST_F(SessionTest, SessionOptionsAffectOnlyThatSessionsQueries) {
  Session plain(&db_);
  Session nested(&db_);
  nested.options().exec.enable_merge_band_join = false;
  nested.options().exec.enable_index_nested_loop_join = false;
  nested.options().exec.enable_hash_join = false;
  const std::string sql =
      "EXPLAIN ANALYZE SELECT s1.pos FROM seq s1, seq s2 "
      "WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1";
  const Result<ResultSet> a = plain.Execute(sql);
  const Result<ResultSet> b = nested.Execute(sql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto has_op = [](const ResultSet& rs, const std::string& name) {
    for (const OperatorMetricsEntry& e : rs.metrics()) {
      if (e.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_op(*a, "merge_band_join"));
  EXPECT_TRUE(has_op(*b, "nested_loop_join"));
  EXPECT_FALSE(has_op(*b, "merge_band_join"));
}

TEST_F(SessionTest, LastErrorRecordsFailure) {
  Session s(&db_);
  const Result<ResultSet> rs = s.Execute("SELECT nope FROM seq");
  ASSERT_FALSE(rs.ok());
  EXPECT_FALSE(s.last_error().ok());
  EXPECT_EQ(s.last_error().code(), rs.status().code());
  EXPECT_EQ(s.statements_executed(), 1);

  // A subsequent success clears it.
  ASSERT_TRUE(s.Execute("SELECT val FROM seq").ok());
  EXPECT_TRUE(s.last_error().ok());
  EXPECT_EQ(s.statements_executed(), 2);
}

TEST_F(SessionTest, PrepareValidatesAndStores) {
  Session s(&db_);
  ASSERT_FALSE(s.has_prepared());
  ASSERT_TRUE(s.Prepare("SELECT pos FROM seq").ok());
  EXPECT_TRUE(s.has_prepared());
  EXPECT_EQ(s.prepared_sql(), "SELECT pos FROM seq");

  const Result<ResultSet> rs = s.ExecutePrepared();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows().size(), 3u);
}

TEST_F(SessionTest, PrepareRejectsGarbageAndKeepsOldStatement) {
  Session s(&db_);
  ASSERT_TRUE(s.Prepare("SELECT pos FROM seq").ok());
  const Status bad = s.Prepare("SELEKT pos FROM");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(s.last_error().ok());
  // The statement of record survives a failed re-prepare.
  EXPECT_TRUE(s.has_prepared());
  EXPECT_EQ(s.prepared_sql(), "SELECT pos FROM seq");
}

TEST_F(SessionTest, ExecutePreparedWithoutPrepareIsInvalidArgument) {
  Session s(&db_);
  const Result<ResultSet> rs = s.ExecutePrepared();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, ConcurrentSessionsShareOneDatabase) {
  constexpr int kSessions = 8;
  constexpr int kQueriesEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([this, &failures] {
      Session s(&db_);
      for (int q = 0; q < kQueriesEach; ++q) {
        const Result<ResultSet> rs = s.Execute("SELECT pos, val FROM seq");
        if (!rs.ok() || rs->rows().size() != 3u) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rfv
