#include "db/query_log.h"

#include <cctype>
#include <cstdio>

#include "common/metrics_registry.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "parser/lexer.h"

namespace rfv {

namespace {

bool IsLiteral(const Token& t) {
  return t.type == TokenType::kIntLiteral ||
         t.type == TokenType::kDoubleLiteral ||
         t.type == TokenType::kStringLiteral;
}

/// Canonical rendering of one token inside a fingerprint. Literals
/// strip to `?`; semicolons normalize away entirely.
std::string CanonicalToken(const Token& t) {
  switch (t.type) {
    case TokenType::kEnd:
    case TokenType::kSemicolon: return "";
    case TokenType::kIdentifier: return ToLower(t.text);
    case TokenType::kIntLiteral:
    case TokenType::kDoubleLiteral:
    case TokenType::kStringLiteral: return "?";
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kComma: return ",";
    case TokenType::kDot: return ".";
    case TokenType::kStar: return "*";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kEq: return "=";
    case TokenType::kNe: return "<>";
    case TokenType::kLt: return "<";
    case TokenType::kLe: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGe: return ">=";
  }
  return "";
}

/// Lowercases and collapses whitespace runs — the fingerprint of text
/// the lexer rejects (still groups retries of the same broken query).
std::string FallbackFingerprint(const std::string& sql) {
  std::string out;
  bool pending_space = false;
  for (const char raw : sql) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isspace(c)) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) out += ' ';
    pending_space = false;
    out += static_cast<char>(std::tolower(c));
  }
  return out;
}

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatCost(double cost) {
  if (cost < 0) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", cost);
  return buf;
}

}  // namespace

std::string NormalizeFingerprint(const std::string& sql) {
  const Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return FallbackFingerprint(sql);

  std::string out;
  const auto append = [&out](const std::string& text) {
    if (text.empty()) return;
    const bool no_space_before =
        text == "," || text == ")" || text == ".";
    const bool no_space_after =
        !out.empty() && (out.back() == '(' || out.back() == '.');
    if (!out.empty() && !no_space_before && !no_space_after) out += ' ';
    out += text;
  };

  const std::vector<Token>& ts = *tokens;
  for (size_t i = 0; i < ts.size(); ++i) {
    // All-literal IN lists collapse to a single placeholder, so
    // `x IN (1, 2, 3)` and `x IN (4)` share one template.
    if (ts[i].type == TokenType::kIdentifier &&
        ToLower(ts[i].text) == "in" && i + 1 < ts.size() &&
        ts[i + 1].type == TokenType::kLParen) {
      size_t j = i + 2;
      size_t literals = 0;
      while (j < ts.size() &&
             (IsLiteral(ts[j]) || ts[j].type == TokenType::kComma)) {
        if (IsLiteral(ts[j])) ++literals;
        ++j;
      }
      if (j < ts.size() && ts[j].type == TokenType::kRParen && literals > 0) {
        append("in");
        append("(");
        append("?");
        append(")");
        i = j;
        continue;
      }
    }
    append(CanonicalToken(ts[i]));
  }
  return out;
}

std::string QueryEvent::ToJson() const {
  std::string j = "{\"query_id\": " + std::to_string(query_id);
  j += ", \"kind\": \"" + JsonEscape(kind) + "\"";
  j += ", \"status\": \"" + JsonEscape(status) + "\"";
  j += ", \"error\": \"" + JsonEscape(error) + "\"";
  j += ", \"sql\": \"" + JsonEscape(sql) + "\"";
  j += ", \"fingerprint\": \"" + JsonEscape(fingerprint) + "\"";
  j += ", \"duration_ms\": " + FormatMs(duration_ns);
  j += ", \"phases\": {";
  for (size_t i = 0; i < phase_ns.size(); ++i) {
    if (i > 0) j += ", ";
    j += "\"" + JsonEscape(phase_ns[i].first) +
         "\": " + FormatMs(phase_ns[i].second);
  }
  j += "}";
  j += ", \"rows_in\": " + std::to_string(rows_in);
  j += ", \"rows_out\": " + std::to_string(rows_out);
  j += ", \"rewrite\": {\"decision\": \"" + JsonEscape(rewrite) + "\"";
  j += ", \"view\": \"" + JsonEscape(rewrite_view) + "\"";
  j += ", \"cost_estimate\": " + FormatCost(cost_estimate);
  j += ", \"candidates\": [";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const QueryEventCandidate& c = candidates[i];
    if (i > 0) j += ", ";
    j += "{\"view\": \"" + JsonEscape(c.view) + "\"";
    j += ", \"derivable\": " + std::string(c.derivable ? "true" : "false");
    j += ", \"method\": \"" + JsonEscape(c.method) + "\"";
    j += ", \"chosen\": " + std::string(c.chosen ? "true" : "false");
    j += ", \"cost\": " + FormatCost(c.cost);
    j += ", \"detail\": \"" + JsonEscape(c.detail) + "\"}";
  }
  j += "]}";
  j += ", \"operators\": [";
  for (size_t i = 0; i < operators.size(); ++i) {
    const QueryEventOperator& o = operators[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "\"open_ms\": %.3f, \"next_ms\": %.3f", o.open_ms,
                  o.next_ms);
    if (i > 0) j += ", ";
    j += "{\"op\": \"" + JsonEscape(o.op) + "\"";
    j += ", \"depth\": " + std::to_string(o.depth);
    j += ", \"rows_in\": " + std::to_string(o.rows_in);
    j += ", \"rows_out\": " + std::to_string(o.rows_out);
    j += ", \"next_calls\": " + std::to_string(o.next_calls);
    j += ", \"vectors_out\": " + std::to_string(o.vectors_out);
    j += ", " + std::string(buf);
    j += ", \"peak_buffered_rows\": " + std::to_string(o.peak_buffered_rows);
    j += "}";
  }
  j += "]}";
  return j;
}

void QueryLog::Append(QueryEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
  ++total_appended_;
  EvictLocked();
}

void QueryLog::EvictLocked() {
  if (events_.size() <= capacity_) return;
  static Counter* dropped = MetricsRegistry::Global().GetCounter(
      "rfv_workload_events_dropped_total", {},
      "QueryEvents evicted from the bounded workload ring");
  while (events_.size() > capacity_) {
    events_.pop_front();
    dropped->Increment();
  }
}

std::vector<QueryEvent> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryEvent>(events_.begin(), events_.end());
}

std::string QueryLog::ToJsonl() const {
  std::string out;
  for (const QueryEvent& e : Snapshot()) {
    out += e.ToJson();
    out += "\n";
  }
  return out;
}

size_t QueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t QueryLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void QueryLog::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  EvictLocked();
}

int64_t QueryLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_appended_;
}

}  // namespace rfv
