// Regression-corpus replay: every `.sql` transcript under
// tests/integration/fuzz_regressions/ (shrunk fuzz repros, interleave
// schedules) must execute cleanly, statement by statement, against a
// fresh Database. The `.cc` twins in this directory pin the precise
// semantics of each repro; this tier guarantees the corpus itself never
// rots — a transcript that stops parsing or starts erroring is a
// regression even before any oracle runs. New repros join the corpus by
// dropping the .sql file here; no code change needed. A statement whose
// correct outcome is an error is preceded by the comment line
// `-- expect-error: <text>`: it must fail, with <text> in the message.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "test_util.h"

namespace rfv {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(RFV_REGRESSION_SQL_DIR)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One transcript statement and the error text it must fail with
/// (empty: it must succeed).
struct CorpusStatement {
  std::string sql;
  std::string expect_error;
};

/// Splits a transcript into statements: `--` comment lines dropped
/// (an `-- expect-error: <text>` line tags the next statement), text
/// split on `;` (the corpus contains no string literals with
/// semicolons — keep it that way).
std::vector<CorpusStatement> SplitStatements(const std::string& script) {
  static const std::string kExpectError = "-- expect-error:";
  std::vector<CorpusStatement> statements;
  std::string current;
  std::string expect_error;
  std::istringstream lines(script);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t comment = line.find("--");
    if (comment != std::string::npos &&
        line.compare(comment, kExpectError.size(), kExpectError) == 0) {
      expect_error = line.substr(comment + kExpectError.size());
      expect_error.erase(0, expect_error.find_first_not_of(' '));
    }
    for (const char c : line.substr(0, comment) + "\n") {
      if (c != ';') {
        current += c;
        continue;
      }
      if (current.find_first_not_of(" \t\n\r") != std::string::npos) {
        statements.push_back({current, expect_error});
        expect_error.clear();
      }
      current.clear();
    }
  }
  if (current.find_first_not_of(" \t\n\r") != std::string::npos) {
    statements.push_back({current, expect_error});
  }
  return statements;
}

TEST(RegressionSqlReplayTest, CorpusIsNonEmpty) {
  EXPECT_GE(CorpusFiles().size(), 3u);
}

TEST(RegressionSqlReplayTest, EveryTranscriptReplaysCleanly) {
  for (const std::filesystem::path& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();

    const std::vector<CorpusStatement> statements =
        SplitStatements(buffer.str());
    ASSERT_FALSE(statements.empty());

    Database db;
    for (const CorpusStatement& statement : statements) {
      const Result<ResultSet> rs = db.Execute(statement.sql);
      if (statement.expect_error.empty()) {
        EXPECT_TRUE(rs.ok()) << "statement failed: " << statement.sql
                             << "\n  " << rs.status().ToString();
      } else {
        ASSERT_FALSE(rs.ok()) << "statement should fail with \""
                              << statement.expect_error
                              << "\": " << statement.sql;
        EXPECT_NE(rs.status().message().find(statement.expect_error),
                  std::string::npos)
            << statement.sql << "\n  " << rs.status().ToString();
      }
    }
  }
}

}  // namespace
}  // namespace rfv
