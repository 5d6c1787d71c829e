// The concurrent-session interleave oracle: generator determinism,
// schedule well-formedness, the oracle passing on the real engine, and
// the transcript rendering.

#include "testing/interleave.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "db/database.h"

namespace rfv {
namespace fuzzing {
namespace {

TEST(InterleaveGeneratorTest, DeterministicForSeedAndIndex) {
  const InterleaveScenario a = GenerateInterleaveScenario(42, 7);
  const InterleaveScenario b = GenerateInterleaveScenario(42, 7);
  EXPECT_EQ(a.ToSqlScript(), b.ToSqlScript());
  EXPECT_EQ(a.num_sessions, b.num_sessions);
  ASSERT_EQ(a.steps.size(), b.steps.size());

  const InterleaveScenario c = GenerateInterleaveScenario(42, 8);
  EXPECT_NE(a.ToSqlScript(), c.ToSqlScript());
}

TEST(InterleaveGeneratorTest, SchedulesAreWellFormed) {
  for (int index = 0; index < 20; ++index) {
    const InterleaveScenario scenario = GenerateInterleaveScenario(3, index);
    EXPECT_GE(scenario.num_sessions, 2);
    EXPECT_LE(scenario.num_sessions, 4);
    EXPECT_FALSE(scenario.setup.empty());
    EXPECT_FALSE(scenario.steps.empty());
    std::set<int> sessions_seen;
    for (const InterleaveStep& step : scenario.steps) {
      EXPECT_GE(step.session, 0);
      EXPECT_LT(step.session, scenario.num_sessions);
      EXPECT_FALSE(step.sql.empty());
      sessions_seen.insert(step.session);
    }
    // Every session contributes at least the generator's 4-step floor.
    EXPECT_EQ(static_cast<int>(sessions_seen.size()), scenario.num_sessions);
  }
}

TEST(InterleaveOracleTest, CleanEnginePassesManySeeds) {
  for (int index = 0; index < 10; ++index) {
    const InterleaveScenario scenario = GenerateInterleaveScenario(11, index);
    const InterleaveVerdict verdict = RunInterleaveScenario(scenario);
    EXPECT_TRUE(verdict.ok())
        << scenario.Id() << "\n" << verdict.Summary() << "\n"
        << scenario.ToSqlScript();
    EXPECT_GT(verdict.checks, 0) << scenario.Id();
  }
}

// Key-writer scenarios: session 0 writes the indexed table k while the
// other sessions read it through range scans and the index nested-loop
// join, and every read must match some prefix of the writes.
TEST(InterleaveOracleTest, KeyWriterScenariosPass) {
  int key_writers = 0;
  for (int index = 0; index < 20; ++index) {
    const InterleaveScenario scenario = GenerateInterleaveScenario(11, index);
    if (!scenario.key_writer) continue;
    ++key_writers;
    int reads = 0;
    for (const InterleaveStep& step : scenario.steps) {
      if (step.check == InterleaveStep::Check::kSnapshotOfKeyWriter) {
        EXPECT_NE(step.session, 0);
        ++reads;
      }
    }
    EXPECT_GT(reads, 0) << scenario.Id();
    const InterleaveVerdict verdict = RunInterleaveScenario(scenario);
    EXPECT_TRUE(verdict.ok())
        << scenario.Id() << "\n" << verdict.Summary() << "\n"
        << scenario.ToSqlScript();
  }
  EXPECT_GT(key_writers, 0);
}

// The readers' join really runs as an index nested-loop join under the
// options the oracle sets, and the narrow range SELECT as a range scan.
TEST(InterleaveOracleTest, KeyWriterReadersUseTheIndex) {
  Database db;
  db.options().exec.enable_merge_band_join = false;
  db.options().exec.enable_hash_join = false;
  ASSERT_TRUE(db.Execute("CREATE TABLE k (id INTEGER PRIMARY KEY, val "
                         "INTEGER)")
                  .ok());
  std::string insert = "INSERT INTO k VALUES (1, 7)";
  for (int id = 2; id <= 40; ++id) {
    insert += ", (" + std::to_string(id) + ", " + std::to_string(7 * id) + ")";
  }
  ASSERT_TRUE(db.Execute(insert).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE p (lo INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO p VALUES (3), (30)").ok());
  const auto uses = [&db](const std::string& sql, const std::string& what) {
    const Result<ResultSet> rs = db.Execute("EXPLAIN ANALYZE " + sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok()) return false;
    std::string text;
    for (const Row& row : rs->rows()) text += row[0].ToString() + "\n";
    return text.find(what) != std::string::npos;
  };
  EXPECT_TRUE(uses("SELECT p.lo, k.id, k.val FROM p, k WHERE k.id BETWEEN "
                   "p.lo AND p.lo + 3",
                   "index_nested_loop_join"));
  EXPECT_TRUE(
      uses("SELECT id, val FROM k WHERE id BETWEEN 5 AND 5 + 5", "index=k_"));
}

TEST(InterleaveOracleTest, TranscriptNamesEverySessionStatement) {
  const InterleaveScenario scenario = GenerateInterleaveScenario(5, 0);
  const std::string script = scenario.ToSqlScript();
  EXPECT_NE(script.find("CREATE TABLE t"), std::string::npos);
  EXPECT_NE(script.find("-- s0"), std::string::npos);
  EXPECT_NE(script.find("-- s1"), std::string::npos);
  // One annotated statement per scheduled step.
  size_t annotations = 0;
  for (size_t pos = script.find("-- s"); pos != std::string::npos;
       pos = script.find("-- s", pos + 1)) {
    ++annotations;
  }
  EXPECT_EQ(annotations, scenario.steps.size());
}

}  // namespace
}  // namespace fuzzing
}  // namespace rfv
