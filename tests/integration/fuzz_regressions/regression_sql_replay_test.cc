// Regression-corpus replay: every `.sql` transcript under
// tests/integration/fuzz_regressions/ (shrunk fuzz repros, interleave
// schedules) must execute cleanly, statement by statement, against a
// fresh Database. The `.cc` twins in this directory pin the precise
// semantics of each repro; this tier guarantees the corpus itself never
// rots — a transcript that stops parsing or starts erroring is a
// regression even before any oracle runs. New repros join the corpus by
// dropping the .sql file here; no code change needed. Two comment
// directives tag the statement that follows them:
//  - `-- expect-error: <text>`: it must fail, with <text> in the
//    message;
//  - `-- expect-rows: <rows>`: it must return exactly <rows>, in order,
//    each written as Row::ToString renders it (`(1, 100, 5)`), separated
//    by spaces. Consecutive expect-rows lines add up; an empty list
//    expects no rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
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

/// One transcript statement, the error text it must fail with (empty:
/// it must succeed) and the rows it must return (unset: any).
struct CorpusStatement {
  std::string sql;
  std::string expect_error;
  std::optional<std::string> expect_rows;
};

/// The text after `directive` when the comment starting at `comment`
/// is that directive, leading spaces trimmed.
std::optional<std::string> DirectiveText(const std::string& line,
                                         size_t comment,
                                         const std::string& directive) {
  if (comment == std::string::npos ||
      line.compare(comment, directive.size(), directive) != 0) {
    return std::nullopt;
  }
  std::string text = line.substr(comment + directive.size());
  text.erase(0, text.find_first_not_of(' '));
  text.erase(text.find_last_not_of(" \r") + 1);
  return text;
}

/// Splits a transcript into statements: `--` comment lines dropped
/// (the expect-error and expect-rows directives tag the next
/// statement), text split on `;` (the corpus contains no string
/// literals with semicolons — keep it that way).
std::vector<CorpusStatement> SplitStatements(const std::string& script) {
  std::vector<CorpusStatement> statements;
  std::string current;
  CorpusStatement tags;
  std::istringstream lines(script);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t comment = line.find("--");
    if (std::optional<std::string> error =
            DirectiveText(line, comment, "-- expect-error:")) {
      tags.expect_error = *error;
    }
    if (std::optional<std::string> rows =
            DirectiveText(line, comment, "-- expect-rows:")) {
      if (!tags.expect_rows.has_value()) {
        tags.expect_rows = *rows;
      } else if (!rows->empty()) {
        *tags.expect_rows += (tags.expect_rows->empty() ? "" : " ") + *rows;
      }
    }
    for (const char c : line.substr(0, comment) + "\n") {
      if (c != ';') {
        current += c;
        continue;
      }
      if (current.find_first_not_of(" \t\n\r") != std::string::npos) {
        tags.sql = current;
        statements.push_back(std::move(tags));
        tags = CorpusStatement();
      }
      current.clear();
    }
  }
  if (current.find_first_not_of(" \t\n\r") != std::string::npos) {
    tags.sql = current;
    statements.push_back(std::move(tags));
  }
  return statements;
}

/// A result's rows as an expect-rows directive writes them.
std::string RenderRows(const ResultSet& rs) {
  std::string out;
  for (const Row& row : rs.rows()) {
    if (!out.empty()) out += " ";
    out += row.ToString();
  }
  return out;
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
        if (rs.ok() && statement.expect_rows.has_value()) {
          EXPECT_EQ(RenderRows(*rs), *statement.expect_rows)
              << statement.sql;
        }
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
