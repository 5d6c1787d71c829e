#ifndef RFVIEW_PARSER_PARSER_H_
#define RFVIEW_PARSER_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"
#include "parser/token.h"

namespace rfv {

/// Recursive-descent parser for the SQL subset used by the paper's
/// workloads and operator patterns:
///
///   SELECT <exprs | * | alias.*> FROM <tables, joins, subqueries>
///     [WHERE] [GROUP BY] [HAVING] [UNION ALL ...] [ORDER BY] [LIMIT]
///   with reporting functions `agg(expr) OVER (PARTITION BY ...
///     ORDER BY ... ROWS {BETWEEN <bound> AND <bound> | <bound>})`
///   CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
///   CREATE INDEX i ON t (col)
///   CREATE [MATERIALIZED] VIEW v AS SELECT ...
///   INSERT INTO t [(cols)] VALUES (...), ...
///   UPDATE t SET col = expr, ... [WHERE ...]
///   DELETE FROM t [WHERE ...]
///   DROP TABLE t
///
/// Identifiers and keywords are case-insensitive. Errors: kParseError
/// with line/column context.
class Parser {
 public:
  /// Parses exactly one statement (a trailing `;` is allowed).
  static Result<Statement> ParseStatement(const std::string& sql);

  /// Parses a standalone scalar expression (test helper).
  static Result<AstExprPtr> ParseExpression(const std::string& sql);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // --- token helpers ---
  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool Check(TokenType type) const { return Peek().type == type; }
  bool Accept(TokenType type);
  Status Expect(TokenType type, const std::string& what);
  /// Keyword helpers operate on kIdentifier tokens, case-insensitively.
  bool CheckKeyword(const std::string& kw, size_t ahead = 0) const;
  bool AcceptKeyword(const std::string& kw);
  Status ExpectKeyword(const std::string& kw);
  Status ErrorHere(const std::string& what) const;
  /// True when the current identifier is reserved (cannot be an alias).
  bool AtReservedKeyword() const;

  // --- statements ---
  Result<Statement> ParseSingleStatement();
  Result<std::unique_ptr<SelectStmt>> ParseSelect();
  Result<std::unique_ptr<SelectStmt>> ParseSelectCore();
  Result<Statement> ParseCreate();
  Result<Statement> ParseInsert();
  Result<Statement> ParseUpdate();
  Result<Statement> ParseDelete();
  Result<Statement> ParseDrop();

  // --- clauses ---
  Result<std::unique_ptr<TableRef>> ParseFromClause();
  Result<std::unique_ptr<TableRef>> ParseJoinChain();
  Result<std::unique_ptr<TableRef>> ParseTablePrimary();
  /// Table name, optionally schema-qualified: `name` or `schema.name`
  /// (rendered dot-joined, e.g. "rfv_system.queries").
  Result<std::string> ParseTableName();
  Result<std::vector<OrderItemAst>> ParseOrderByList();
  Result<DataType> ParseTypeName();

  // --- expressions (precedence climbing) ---
  Result<AstExprPtr> ParseExpr();
  Result<AstExprPtr> ParseOr();
  Result<AstExprPtr> ParseAnd();
  Result<AstExprPtr> ParseNot();
  Result<AstExprPtr> ParsePredicate();
  Result<AstExprPtr> ParseAdditive();
  Result<AstExprPtr> ParseMultiplicative();
  Result<AstExprPtr> ParseUnary();
  Result<AstExprPtr> ParsePrimary();
  Result<std::unique_ptr<WindowSpecAst>> ParseOverClause();
  Result<FrameBound> ParseFrameBound();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace rfv

#endif  // RFVIEW_PARSER_PARSER_H_
