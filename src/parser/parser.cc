#include "parser/parser.h"

#include <array>

#include "common/logging.h"
#include "common/str_util.h"
#include "parser/lexer.h"

namespace rfv {

namespace {

/// Identifiers that may not be used as implicit (AS-less) aliases or
/// column names in positions where we would otherwise greedily consume
/// them.
constexpr std::array<const char*, 28> kReservedKeywords = {
    "select", "from",  "where",  "group",  "having", "order",   "limit",
    "union",  "join",  "left",   "right",  "inner",  "outer",   "cross",
    "on",     "and",   "or",     "not",    "as",     "case",    "when",
    "then",   "else",  "end",    "between", "in",    "is",      "values",
};

bool IsReserved(const std::string& ident) {
  const std::string lower = ToLower(ident);
  for (const char* kw : kReservedKeywords) {
    if (lower == kw) return true;
  }
  return false;
}

AstExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<AstExpr>();
  e->kind = AstExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

AstExprPtr MakeBinary(AstBinaryOp op, AstExprPtr lhs, AstExprPtr rhs) {
  auto e = std::make_unique<AstExpr>();
  e->kind = AstExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

}  // namespace

// --- public entry points ---------------------------------------------------

Result<Statement> Parser::ParseStatement(const std::string& sql) {
  std::vector<Token> tokens;
  RFV_ASSIGN_OR_RETURN(tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  Statement stmt;
  RFV_ASSIGN_OR_RETURN(stmt, parser.ParseSingleStatement());
  parser.Accept(TokenType::kSemicolon);
  if (!parser.Check(TokenType::kEnd)) {
    return parser.ErrorHere("unexpected trailing input");
  }
  return stmt;
}

Result<AstExprPtr> Parser::ParseExpression(const std::string& sql) {
  std::vector<Token> tokens;
  RFV_ASSIGN_OR_RETURN(tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  AstExprPtr expr;
  RFV_ASSIGN_OR_RETURN(expr, parser.ParseExpr());
  if (!parser.Check(TokenType::kEnd)) {
    return parser.ErrorHere("unexpected trailing input after expression");
  }
  return expr;
}

// --- token helpers ----------------------------------------------------------

const Token& Parser::Peek(size_t ahead) const {
  const size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::Advance() {
  const Token& t = Peek();
  if (pos_ < tokens_.size() - 1) ++pos_;
  return t;
}

bool Parser::Accept(TokenType type) {
  if (Check(type)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType type, const std::string& what) {
  if (!Check(type)) return ErrorHere("expected " + what);
  Advance();
  return Status::OK();
}

bool Parser::CheckKeyword(const std::string& kw, size_t ahead) const {
  const Token& t = Peek(ahead);
  return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
}

bool Parser::AcceptKeyword(const std::string& kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(const std::string& kw) {
  if (!CheckKeyword(kw)) return ErrorHere("expected keyword " + ToUpper(kw));
  Advance();
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& what) const {
  const Token& t = Peek();
  std::string context = t.type == TokenType::kEnd ? "<end of input>" : t.text;
  if (context.empty()) context = "<symbol>";
  return Status::ParseError(what + " near '" + context + "' at line " +
                            std::to_string(t.line) + ", column " +
                            std::to_string(t.column));
}

bool Parser::AtReservedKeyword() const {
  const Token& t = Peek();
  return t.type == TokenType::kIdentifier && IsReserved(t.text);
}

// --- statements -------------------------------------------------------------

Result<Statement> Parser::ParseSingleStatement() {
  if (CheckKeyword("select")) {
    Statement stmt;
    stmt.kind = Statement::Kind::kSelect;
    RFV_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    return stmt;
  }
  if (CheckKeyword("create")) return ParseCreate();
  if (CheckKeyword("insert")) return ParseInsert();
  if (CheckKeyword("update")) return ParseUpdate();
  if (CheckKeyword("delete")) return ParseDelete();
  if (CheckKeyword("drop")) return ParseDrop();
  if (AcceptKeyword("analyze")) {
    Statement stmt;
    stmt.kind = Statement::Kind::kAnalyze;
    stmt.analyze = std::make_unique<AnalyzeStmt>();
    if (Peek().type == TokenType::kIdentifier && !AtReservedKeyword()) {
      stmt.analyze->table_name = Advance().text;
    }
    return stmt;
  }
  if (AcceptKeyword("explain")) {
    const bool analyze = AcceptKeyword("analyze");
    if (!CheckKeyword("select") && !CheckKeyword("insert") &&
        !CheckKeyword("update") && !CheckKeyword("delete")) {
      return ErrorHere(
          "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE statements");
    }
    Statement stmt;
    RFV_ASSIGN_OR_RETURN(stmt, ParseSingleStatement());
    stmt.explained_kind = stmt.kind;
    stmt.kind = Statement::Kind::kExplain;
    stmt.explain_analyze = analyze;
    return stmt;
  }
  return ErrorHere("expected a statement");
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  std::unique_ptr<SelectStmt> head;
  RFV_ASSIGN_OR_RETURN(head, ParseSelectCore());
  SelectStmt* tail = head.get();
  while (CheckKeyword("union")) {
    Advance();
    RFV_RETURN_IF_ERROR(ExpectKeyword("all"));
    std::unique_ptr<SelectStmt> next;
    RFV_ASSIGN_OR_RETURN(next, ParseSelectCore());
    tail->union_all_next = std::move(next);
    tail = tail->union_all_next.get();
  }
  if (AcceptKeyword("order")) {
    RFV_RETURN_IF_ERROR(ExpectKeyword("by"));
    RFV_ASSIGN_OR_RETURN(head->order_by, ParseOrderByList());
  }
  if (AcceptKeyword("limit")) {
    if (!Check(TokenType::kIntLiteral)) {
      return ErrorHere("expected integer after LIMIT");
    }
    head->limit = Advance().int_value;
  }
  return head;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectCore() {
  RFV_RETURN_IF_ERROR(ExpectKeyword("select"));
  auto stmt = std::make_unique<SelectStmt>();
  if (AcceptKeyword("distinct")) {
    stmt->distinct = true;
  } else {
    AcceptKeyword("all");
  }

  // Select list.
  do {
    SelectItem item;
    if (Accept(TokenType::kStar)) {
      item.is_star = true;
    } else if (Peek().type == TokenType::kIdentifier &&
               Peek(1).type == TokenType::kDot &&
               Peek(2).type == TokenType::kStar) {
      item.is_star = true;
      item.star_qualifier = Advance().text;
      Advance();  // dot
      Advance();  // star
    } else {
      RFV_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("as")) {
        if (Peek().type != TokenType::kIdentifier) {
          return ErrorHere("expected alias after AS");
        }
        item.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier &&
                 !AtReservedKeyword()) {
        item.alias = Advance().text;
      }
    }
    stmt->select_list.push_back(std::move(item));
  } while (Accept(TokenType::kComma));

  if (AcceptKeyword("from")) {
    RFV_ASSIGN_OR_RETURN(stmt->from, ParseFromClause());
  }
  if (AcceptKeyword("where")) {
    RFV_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (CheckKeyword("group")) {
    Advance();
    RFV_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      AstExprPtr e;
      RFV_ASSIGN_OR_RETURN(e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (Accept(TokenType::kComma));
  }
  if (AcceptKeyword("having")) {
    RFV_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  return stmt;
}

Result<DataType> Parser::ParseTypeName() {
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected a type name");
  }
  const std::string name = ToLower(Advance().text);
  DataType type;
  if (name == "int" || name == "integer" || name == "bigint" ||
      name == "smallint" || name == "date") {
    type = DataType::kInt64;
  } else if (name == "double" || name == "float" || name == "real" ||
             name == "decimal" || name == "numeric") {
    type = DataType::kDouble;
  } else if (name == "varchar" || name == "char" || name == "text" ||
             name == "string") {
    type = DataType::kString;
  } else if (name == "boolean" || name == "bool") {
    type = DataType::kBool;
  } else {
    return ErrorHere("unknown type name '" + name + "'");
  }
  // Optional length/precision: VARCHAR(30), DECIMAL(10,2).
  if (Accept(TokenType::kLParen)) {
    while (!Check(TokenType::kRParen) && !Check(TokenType::kEnd)) Advance();
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  }
  return type;
}

Result<Statement> Parser::ParseCreate() {
  RFV_RETURN_IF_ERROR(ExpectKeyword("create"));
  if (AcceptKeyword("table")) {
    auto create = std::make_unique<CreateTableStmt>();
    // Qualified names parse (so the catalog can reject writes into a
    // virtual schema with a proper error) even though user schemas
    // don't exist.
    RFV_ASSIGN_OR_RETURN(create->table_name, ParseTableName());
    RFV_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    do {
      ColumnSpec col;
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected column name");
      }
      col.name = Advance().text;
      RFV_ASSIGN_OR_RETURN(col.type, ParseTypeName());
      if (AcceptKeyword("primary")) {
        RFV_RETURN_IF_ERROR(ExpectKeyword("key"));
        col.primary_key = true;
      }
      if (AcceptKeyword("not")) {
        RFV_RETURN_IF_ERROR(ExpectKeyword("null"));  // accepted, not enforced
      }
      create->columns.push_back(std::move(col));
    } while (Accept(TokenType::kComma));
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateTable;
    stmt.create_table = std::move(create);
    return stmt;
  }
  if (AcceptKeyword("index")) {
    auto create = std::make_unique<CreateIndexStmt>();
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected index name");
    }
    create->index_name = Advance().text;
    RFV_RETURN_IF_ERROR(ExpectKeyword("on"));
    RFV_ASSIGN_OR_RETURN(create->table_name, ParseTableName());
    RFV_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name");
    }
    create->column_name = Advance().text;
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateIndex;
    stmt.create_index = std::move(create);
    return stmt;
  }
  const bool materialized = AcceptKeyword("materialized");
  if (AcceptKeyword("view")) {
    auto create = std::make_unique<CreateViewStmt>();
    create->materialized = materialized;
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected view name");
    }
    create->view_name = Advance().text;
    RFV_RETURN_IF_ERROR(ExpectKeyword("as"));
    RFV_ASSIGN_OR_RETURN(create->query, ParseSelect());
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateView;
    stmt.create_view = std::move(create);
    return stmt;
  }
  return ErrorHere("expected TABLE, INDEX or [MATERIALIZED] VIEW");
}

Result<std::string> Parser::ParseTableName() {
  if (Peek().type != TokenType::kIdentifier || AtReservedKeyword()) {
    return ErrorHere("expected table name");
  }
  std::string name = Advance().text;
  if (Accept(TokenType::kDot)) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected table name after schema qualifier");
    }
    name += "." + Advance().text;
  }
  return name;
}

Result<Statement> Parser::ParseInsert() {
  RFV_RETURN_IF_ERROR(ExpectKeyword("insert"));
  RFV_RETURN_IF_ERROR(ExpectKeyword("into"));
  auto insert = std::make_unique<InsertStmt>();
  RFV_ASSIGN_OR_RETURN(insert->table_name, ParseTableName());
  if (Accept(TokenType::kLParen)) {
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected column name");
      }
      insert->columns.push_back(Advance().text);
    } while (Accept(TokenType::kComma));
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  }
  RFV_RETURN_IF_ERROR(ExpectKeyword("values"));
  do {
    RFV_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    std::vector<AstExprPtr> row;
    do {
      AstExprPtr e;
      RFV_ASSIGN_OR_RETURN(e, ParseExpr());
      row.push_back(std::move(e));
    } while (Accept(TokenType::kComma));
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    insert->rows.push_back(std::move(row));
  } while (Accept(TokenType::kComma));
  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.insert = std::move(insert);
  return stmt;
}

Result<Statement> Parser::ParseUpdate() {
  RFV_RETURN_IF_ERROR(ExpectKeyword("update"));
  auto update = std::make_unique<UpdateStmt>();
  RFV_ASSIGN_OR_RETURN(update->table_name, ParseTableName());
  RFV_RETURN_IF_ERROR(ExpectKeyword("set"));
  do {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name");
    }
    std::string column = Advance().text;
    RFV_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    AstExprPtr value;
    RFV_ASSIGN_OR_RETURN(value, ParseExpr());
    update->assignments.emplace_back(std::move(column), std::move(value));
  } while (Accept(TokenType::kComma));
  if (AcceptKeyword("where")) {
    RFV_ASSIGN_OR_RETURN(update->where, ParseExpr());
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kUpdate;
  stmt.update = std::move(update);
  return stmt;
}

Result<Statement> Parser::ParseDelete() {
  RFV_RETURN_IF_ERROR(ExpectKeyword("delete"));
  RFV_RETURN_IF_ERROR(ExpectKeyword("from"));
  auto del = std::make_unique<DeleteStmt>();
  RFV_ASSIGN_OR_RETURN(del->table_name, ParseTableName());
  if (AcceptKeyword("where")) {
    RFV_ASSIGN_OR_RETURN(del->where, ParseExpr());
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kDelete;
  stmt.del = std::move(del);
  return stmt;
}

Result<Statement> Parser::ParseDrop() {
  RFV_RETURN_IF_ERROR(ExpectKeyword("drop"));
  RFV_RETURN_IF_ERROR(ExpectKeyword("table"));
  auto drop = std::make_unique<DropTableStmt>();
  RFV_ASSIGN_OR_RETURN(drop->table_name, ParseTableName());
  Statement stmt;
  stmt.kind = Statement::Kind::kDropTable;
  stmt.drop_table = std::move(drop);
  return stmt;
}

// --- FROM clause ------------------------------------------------------------

Result<std::unique_ptr<TableRef>> Parser::ParseFromClause() {
  std::unique_ptr<TableRef> left;
  RFV_ASSIGN_OR_RETURN(left, ParseJoinChain());
  while (Accept(TokenType::kComma)) {
    std::unique_ptr<TableRef> right;
    RFV_ASSIGN_OR_RETURN(right, ParseJoinChain());
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_kind = TableRef::JoinKind::kCross;
    join->left = std::move(left);
    join->right = std::move(right);
    left = std::move(join);
  }
  return left;
}

Result<std::unique_ptr<TableRef>> Parser::ParseJoinChain() {
  std::unique_ptr<TableRef> left;
  RFV_ASSIGN_OR_RETURN(left, ParseTablePrimary());
  while (true) {
    TableRef::JoinKind join_kind;
    if (CheckKeyword("join") || CheckKeyword("inner")) {
      AcceptKeyword("inner");
      RFV_RETURN_IF_ERROR(ExpectKeyword("join"));
      join_kind = TableRef::JoinKind::kInner;
    } else if (CheckKeyword("left")) {
      Advance();
      AcceptKeyword("outer");
      RFV_RETURN_IF_ERROR(ExpectKeyword("join"));
      join_kind = TableRef::JoinKind::kLeftOuter;
    } else if (CheckKeyword("cross")) {
      Advance();
      RFV_RETURN_IF_ERROR(ExpectKeyword("join"));
      join_kind = TableRef::JoinKind::kCross;
    } else {
      break;
    }
    std::unique_ptr<TableRef> right;
    RFV_ASSIGN_OR_RETURN(right, ParseTablePrimary());
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_kind = join_kind;
    join->left = std::move(left);
    join->right = std::move(right);
    if (join_kind != TableRef::JoinKind::kCross) {
      RFV_RETURN_IF_ERROR(ExpectKeyword("on"));
      RFV_ASSIGN_OR_RETURN(join->on, ParseExpr());
    }
    left = std::move(join);
  }
  return left;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTablePrimary() {
  auto ref = std::make_unique<TableRef>();
  if (Accept(TokenType::kLParen)) {
    ref->kind = TableRef::Kind::kSubquery;
    RFV_ASSIGN_OR_RETURN(ref->subquery, ParseSelect());
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  } else {
    if (Peek().type != TokenType::kIdentifier || AtReservedKeyword()) {
      return ErrorHere("expected table name or subquery");
    }
    ref->kind = TableRef::Kind::kTable;
    RFV_ASSIGN_OR_RETURN(ref->table_name, ParseTableName());
  }
  if (AcceptKeyword("as")) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected alias after AS");
    }
    ref->alias = Advance().text;
  } else if (Peek().type == TokenType::kIdentifier && !AtReservedKeyword()) {
    ref->alias = Advance().text;
  }
  if (ref->kind == TableRef::Kind::kSubquery && ref->alias.empty()) {
    return ErrorHere("derived table requires an alias");
  }
  return ref;
}

Result<std::vector<OrderItemAst>> Parser::ParseOrderByList() {
  std::vector<OrderItemAst> items;
  do {
    OrderItemAst item;
    RFV_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (AcceptKeyword("desc")) {
      item.ascending = false;
    } else {
      AcceptKeyword("asc");
    }
    items.push_back(std::move(item));
  } while (Accept(TokenType::kComma));
  return items;
}

// --- expressions ------------------------------------------------------------

Result<AstExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<AstExprPtr> Parser::ParseOr() {
  AstExprPtr left;
  RFV_ASSIGN_OR_RETURN(left, ParseAnd());
  while (AcceptKeyword("or")) {
    AstExprPtr right;
    RFV_ASSIGN_OR_RETURN(right, ParseAnd());
    left = MakeBinary(AstBinaryOp::kOr, std::move(left), std::move(right));
  }
  return left;
}

Result<AstExprPtr> Parser::ParseAnd() {
  AstExprPtr left;
  RFV_ASSIGN_OR_RETURN(left, ParseNot());
  while (AcceptKeyword("and")) {
    AstExprPtr right;
    RFV_ASSIGN_OR_RETURN(right, ParseNot());
    left = MakeBinary(AstBinaryOp::kAnd, std::move(left), std::move(right));
  }
  return left;
}

Result<AstExprPtr> Parser::ParseNot() {
  if (AcceptKeyword("not")) {
    AstExprPtr operand;
    RFV_ASSIGN_OR_RETURN(operand, ParseNot());
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kUnary;
    e->unary_op = AstUnaryOp::kNot;
    e->children.push_back(std::move(operand));
    return e;
  }
  return ParsePredicate();
}

Result<AstExprPtr> Parser::ParsePredicate() {
  AstExprPtr left;
  RFV_ASSIGN_OR_RETURN(left, ParseAdditive());

  // IS [NOT] NULL
  if (CheckKeyword("is")) {
    Advance();
    const bool negated = AcceptKeyword("not");
    RFV_RETURN_IF_ERROR(ExpectKeyword("null"));
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kIsNull;
    e->negated = negated;
    e->children.push_back(std::move(left));
    return e;
  }

  bool negated = false;
  if (CheckKeyword("not") &&
      (CheckKeyword("between", 1) || CheckKeyword("in", 1))) {
    Advance();
    negated = true;
  }
  if (AcceptKeyword("between")) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kBetween;
    e->negated = negated;
    e->children.push_back(std::move(left));
    AstExprPtr lo;
    RFV_ASSIGN_OR_RETURN(lo, ParseAdditive());
    RFV_RETURN_IF_ERROR(ExpectKeyword("and"));
    AstExprPtr hi;
    RFV_ASSIGN_OR_RETURN(hi, ParseAdditive());
    e->children.push_back(std::move(lo));
    e->children.push_back(std::move(hi));
    return e;
  }
  if (AcceptKeyword("in")) {
    RFV_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after IN"));
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kIn;
    e->negated = negated;
    e->children.push_back(std::move(left));
    do {
      AstExprPtr candidate;
      RFV_ASSIGN_OR_RETURN(candidate, ParseExpr());
      e->children.push_back(std::move(candidate));
    } while (Accept(TokenType::kComma));
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return e;
  }
  if (negated) return ErrorHere("expected BETWEEN or IN after NOT");

  AstBinaryOp op;
  switch (Peek().type) {
    case TokenType::kEq: op = AstBinaryOp::kEq; break;
    case TokenType::kNe: op = AstBinaryOp::kNe; break;
    case TokenType::kLt: op = AstBinaryOp::kLt; break;
    case TokenType::kLe: op = AstBinaryOp::kLe; break;
    case TokenType::kGt: op = AstBinaryOp::kGt; break;
    case TokenType::kGe: op = AstBinaryOp::kGe; break;
    default: return left;
  }
  Advance();
  AstExprPtr right;
  RFV_ASSIGN_OR_RETURN(right, ParseAdditive());
  return MakeBinary(op, std::move(left), std::move(right));
}

Result<AstExprPtr> Parser::ParseAdditive() {
  AstExprPtr left;
  RFV_ASSIGN_OR_RETURN(left, ParseMultiplicative());
  while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
    const AstBinaryOp op = Check(TokenType::kPlus) ? AstBinaryOp::kAdd
                                                   : AstBinaryOp::kSub;
    Advance();
    AstExprPtr right;
    RFV_ASSIGN_OR_RETURN(right, ParseMultiplicative());
    left = MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  AstExprPtr left;
  RFV_ASSIGN_OR_RETURN(left, ParseUnary());
  while (Check(TokenType::kStar) || Check(TokenType::kSlash) ||
         Check(TokenType::kPercent)) {
    AstBinaryOp op;
    if (Check(TokenType::kStar)) {
      op = AstBinaryOp::kMul;
    } else if (Check(TokenType::kSlash)) {
      op = AstBinaryOp::kDiv;
    } else {
      op = AstBinaryOp::kMod;
    }
    Advance();
    AstExprPtr right;
    RFV_ASSIGN_OR_RETURN(right, ParseUnary());
    left = MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<AstExprPtr> Parser::ParseUnary() {
  if (Accept(TokenType::kMinus)) {
    AstExprPtr operand;
    RFV_ASSIGN_OR_RETURN(operand, ParseUnary());
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kUnary;
    e->unary_op = AstUnaryOp::kNeg;
    e->children.push_back(std::move(operand));
    return e;
  }
  Accept(TokenType::kPlus);  // unary plus is a no-op
  return ParsePrimary();
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral:
      Advance();
      return MakeLiteral(Value::Int(t.int_value));
    case TokenType::kDoubleLiteral:
      Advance();
      return MakeLiteral(Value::Double(t.double_value));
    case TokenType::kStringLiteral:
      Advance();
      return MakeLiteral(Value::String(t.text));
    case TokenType::kLParen: {
      Advance();
      AstExprPtr inner;
      RFV_ASSIGN_OR_RETURN(inner, ParseExpr());
      RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    case TokenType::kIdentifier:
      break;
    default:
      return ErrorHere("expected an expression");
  }

  // NULL / TRUE / FALSE literals.
  if (AcceptKeyword("null")) return MakeLiteral(Value::Null());
  if (AcceptKeyword("true")) return MakeLiteral(Value::Bool(true));
  if (AcceptKeyword("false")) return MakeLiteral(Value::Bool(false));

  // Searched CASE.
  if (AcceptKeyword("case")) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kCase;
    if (!CheckKeyword("when")) {
      return ErrorHere("only searched CASE (CASE WHEN ...) is supported");
    }
    while (AcceptKeyword("when")) {
      AstExprPtr cond;
      RFV_ASSIGN_OR_RETURN(cond, ParseExpr());
      RFV_RETURN_IF_ERROR(ExpectKeyword("then"));
      AstExprPtr then;
      RFV_ASSIGN_OR_RETURN(then, ParseExpr());
      e->children.push_back(std::move(cond));
      e->children.push_back(std::move(then));
    }
    if (AcceptKeyword("else")) {
      AstExprPtr els;
      RFV_ASSIGN_OR_RETURN(els, ParseExpr());
      e->children.push_back(std::move(els));
      e->has_else = true;
    }
    RFV_RETURN_IF_ERROR(ExpectKeyword("end"));
    return e;
  }

  // Function call?
  if (Peek(1).type == TokenType::kLParen) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kFunctionCall;
    e->function_name = ToUpper(Advance().text);
    Advance();  // (
    if (!Check(TokenType::kRParen)) {
      do {
        if (Check(TokenType::kStar)) {  // COUNT(*)
          Advance();
          auto star = std::make_unique<AstExpr>();
          star->kind = AstExprKind::kStar;
          e->children.push_back(std::move(star));
        } else {
          AstExprPtr arg;
          RFV_ASSIGN_OR_RETURN(arg, ParseExpr());
          e->children.push_back(std::move(arg));
        }
      } while (Accept(TokenType::kComma));
    }
    RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (CheckKeyword("over")) {
      Advance();
      RFV_ASSIGN_OR_RETURN(e->over, ParseOverClause());
    }
    return e;
  }

  // Column reference: ident or ident.ident.
  if (AtReservedKeyword()) return ErrorHere("expected an expression");
  auto e = std::make_unique<AstExpr>();
  e->kind = AstExprKind::kColumn;
  e->name = Advance().text;
  if (Accept(TokenType::kDot)) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name after '.'");
    }
    e->qualifier = std::move(e->name);
    e->name = Advance().text;
  }
  return e;
}

Result<std::unique_ptr<WindowSpecAst>> Parser::ParseOverClause() {
  RFV_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after OVER"));
  auto spec = std::make_unique<WindowSpecAst>();
  if (AcceptKeyword("partition")) {
    RFV_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      AstExprPtr e;
      RFV_ASSIGN_OR_RETURN(e, ParseExpr());
      spec->partition_by.push_back(std::move(e));
    } while (Accept(TokenType::kComma));
  }
  if (AcceptKeyword("order")) {
    RFV_RETURN_IF_ERROR(ExpectKeyword("by"));
    RFV_ASSIGN_OR_RETURN(spec->order_by, ParseOrderByList());
  }
  if (CheckKeyword("rows") || CheckKeyword("range")) {
    spec->range_mode = CheckKeyword("range");
    Advance();
    spec->has_frame = true;
    if (AcceptKeyword("between")) {
      RFV_ASSIGN_OR_RETURN(spec->frame_lo, ParseFrameBound());
      RFV_RETURN_IF_ERROR(ExpectKeyword("and"));
      RFV_ASSIGN_OR_RETURN(spec->frame_hi, ParseFrameBound());
    } else {
      // Single-bound shorthand: `ROWS <bound>` means bound .. CURRENT ROW.
      RFV_ASSIGN_OR_RETURN(spec->frame_lo, ParseFrameBound());
      spec->frame_hi.kind = FrameBound::Kind::kCurrentRow;
    }
  }
  RFV_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  return spec;
}

Result<FrameBound> Parser::ParseFrameBound() {
  FrameBound bound;
  if (AcceptKeyword("unbounded")) {
    if (AcceptKeyword("preceding")) {
      bound.kind = FrameBound::Kind::kUnboundedPreceding;
      return bound;
    }
    if (AcceptKeyword("following")) {
      bound.kind = FrameBound::Kind::kUnboundedFollowing;
      return bound;
    }
    return ErrorHere("expected PRECEDING or FOLLOWING after UNBOUNDED");
  }
  if (AcceptKeyword("current")) {
    RFV_RETURN_IF_ERROR(ExpectKeyword("row"));
    bound.kind = FrameBound::Kind::kCurrentRow;
    return bound;
  }
  if (Check(TokenType::kIntLiteral)) {
    bound.offset = Advance().int_value;
    if (AcceptKeyword("preceding")) {
      bound.kind = FrameBound::Kind::kPreceding;
      return bound;
    }
    if (AcceptKeyword("following")) {
      bound.kind = FrameBound::Kind::kFollowing;
      return bound;
    }
    return ErrorHere("expected PRECEDING or FOLLOWING after frame offset");
  }
  return ErrorHere("expected a window frame bound");
}

}  // namespace rfv
