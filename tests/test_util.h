#ifndef RFVIEW_TESTS_TEST_UTIL_H_
#define RFVIEW_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "db/database.h"
#include "testing/result_compare.h"

namespace rfv {
namespace testutil {

/// Executes SQL, failing the test on error.
inline ResultSet MustExecute(Database& db, const std::string& sql) {
  Result<ResultSet> r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n  " << r.status().ToString();
  return r.ok() ? std::move(r).value() : ResultSet();
}

/// True when both result sets have identical values row by row.
/// Thin alias over the fuzz harness's comparison module — the single
/// implementation of row value-equality (src/testing/result_compare.h).
inline bool SameRows(const ResultSet& a, const ResultSet& b) {
  return fuzzing::SameRows(a, b);
}

/// gtest-friendly diff of two result sets (same shared implementation).
inline ::testing::AssertionResult RowsEqual(const ResultSet& a,
                                            const ResultSet& b) {
  const std::optional<std::string> diff = fuzzing::DiffRows(a, b);
  if (!diff.has_value()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "result sets differ:\n" << *diff;
}

/// RowsEqual under canonical row ordering (order-insensitive compare —
/// for plans that legitimately emit rows in different orders).
inline ::testing::AssertionResult RowsEqualCanonical(const ResultSet& a,
                                                     const ResultSet& b) {
  const std::optional<std::string> diff = fuzzing::DiffRowsCanonical(a, b);
  if (!diff.has_value()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "result sets differ (canonical order):\n" << *diff;
}

/// Executes `sql` on the forced nested-loop plan: the merge band, index
/// nested-loop and hash joins off, so every join is a NestedLoopJoinOp
/// that evaluates its condition row by row. It shares no join code with
/// the default plans, which makes it the reference their answers are
/// checked against. The options are restored afterwards.
inline Result<ResultSet> ExecuteNestedLoop(Database& db,
                                           const std::string& sql) {
  ExecOptions& exec = db.options().exec;
  const ExecOptions saved = exec;
  exec.enable_merge_band_join = false;
  exec.enable_index_nested_loop_join = false;
  exec.enable_hash_join = false;
  Result<ResultSet> r = db.Execute(sql);
  exec = saved;
  return r;
}

/// Creates seq(pos INTEGER PRIMARY KEY, val DOUBLE) with n rows; values
/// are a deterministic pseudo-random-ish pattern including negatives.
inline void CreateSeqTable(Database& db, int n,
                           const std::string& name = "seq") {
  MustExecute(db, "CREATE TABLE " + name +
                      " (pos INTEGER PRIMARY KEY, val DOUBLE)");
  if (n == 0) return;
  std::string insert = "INSERT INTO " + name + " VALUES ";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) insert += ", ";
    const int v = ((i * 37 + 11) % 101) - 23;
    insert += "(" + std::to_string(i) + ", " + std::to_string(v) + ")";
  }
  MustExecute(db, insert);
}

namespace json_detail {

inline void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

inline bool ParseValue(const std::string& s, size_t* i);

inline bool ParseString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\') {
      ++*i;
      if (*i >= s.size()) return false;
      const char e = s[*i];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k) {
          ++*i;
          if (*i >= s.size() || !std::isxdigit(static_cast<unsigned char>(
                                    s[*i]))) {
            return false;
          }
        }
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                 e != 'n' && e != 'r' && e != 't') {
        return false;
      }
    } else if (static_cast<unsigned char>(s[*i]) < 0x20) {
      return false;  // raw control characters must be escaped
    }
    ++*i;
  }
  if (*i >= s.size()) return false;
  ++*i;  // closing quote
  return true;
}

inline bool ParseNumber(const std::string& s, size_t* i) {
  const size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
  if (*i == start || (s[start] == '-' && *i == start + 1)) return false;
  if (*i < s.size() && s[*i] == '.') {
    ++*i;
    while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i]))) {
      ++*i;
    }
  }
  if (*i < s.size() && (s[*i] == 'e' || s[*i] == 'E')) {
    ++*i;
    if (*i < s.size() && (s[*i] == '+' || s[*i] == '-')) ++*i;
    while (*i < s.size() && std::isdigit(static_cast<unsigned char>(s[*i]))) {
      ++*i;
    }
  }
  return true;
}

inline bool ParseValue(const std::string& s, size_t* i) {
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  const char c = s[*i];
  if (c == '"') return ParseString(s, i);
  if (c == '{') {
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == '}') { ++*i; return true; }
    while (true) {
      SkipWs(s, i);
      if (!ParseString(s, i)) return false;
      SkipWs(s, i);
      if (*i >= s.size() || s[*i] != ':') return false;
      ++*i;
      if (!ParseValue(s, i)) return false;
      SkipWs(s, i);
      if (*i < s.size() && s[*i] == ',') { ++*i; continue; }
      if (*i < s.size() && s[*i] == '}') { ++*i; return true; }
      return false;
    }
  }
  if (c == '[') {
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == ']') { ++*i; return true; }
    while (true) {
      if (!ParseValue(s, i)) return false;
      SkipWs(s, i);
      if (*i < s.size() && s[*i] == ',') { ++*i; continue; }
      if (*i < s.size() && s[*i] == ']') { ++*i; return true; }
      return false;
    }
  }
  if (s.compare(*i, 4, "true") == 0) { *i += 4; return true; }
  if (s.compare(*i, 5, "false") == 0) { *i += 5; return true; }
  if (s.compare(*i, 4, "null") == 0) { *i += 4; return true; }
  return ParseNumber(s, i);
}

}  // namespace json_detail

/// Strict whole-string JSON validity check (small recursive-descent
/// parser; used to verify the Chrome trace export round-trips).
inline bool IsValidJson(const std::string& s) {
  size_t i = 0;
  if (!json_detail::ParseValue(s, &i)) return false;
  json_detail::SkipWs(s, &i);
  return i == s.size();
}

}  // namespace testutil
}  // namespace rfv

#endif  // RFVIEW_TESTS_TEST_UTIL_H_
