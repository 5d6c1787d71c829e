#include "parser/parser.h"

#include <gtest/gtest.h>

namespace rfv {
namespace {

Statement MustParse(const std::string& sql) {
  Result<Statement> r = Parser::ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n  " << r.status().ToString();
  return r.ok() ? std::move(r).value() : Statement{};
}

AstExprPtr MustParseExpr(const std::string& sql) {
  Result<AstExprPtr> r = Parser::ParseExpression(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n  " << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(ParserTest, MinimalSelect) {
  const Statement stmt = MustParse("SELECT a FROM t");
  ASSERT_EQ(stmt.kind, Statement::Kind::kSelect);
  ASSERT_EQ(stmt.select->select_list.size(), 1u);
  EXPECT_EQ(stmt.select->from->table_name, "t");
}

TEST(ParserTest, SelectListAliases) {
  const Statement stmt = MustParse("SELECT a AS x, b y, a + b FROM t");
  const auto& items = stmt.select->select_list;
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].alias, "x");
  EXPECT_EQ(items[1].alias, "y");
  EXPECT_TRUE(items[2].alias.empty());
}

TEST(ParserTest, StarAndQualifiedStar) {
  const Statement stmt = MustParse("SELECT *, s1.* FROM t s1");
  const auto& items = stmt.select->select_list;
  ASSERT_EQ(items.size(), 2u);
  EXPECT_TRUE(items[0].is_star);
  EXPECT_TRUE(items[0].star_qualifier.empty());
  EXPECT_TRUE(items[1].is_star);
  EXPECT_EQ(items[1].star_qualifier, "s1");
}

TEST(ParserTest, ExpressionPrecedence) {
  EXPECT_EQ(MustParseExpr("1 + 2 * 3")->ToString(), "(1 + (2 * 3))");
  EXPECT_EQ(MustParseExpr("(1 + 2) * 3")->ToString(), "((1 + 2) * 3)");
  EXPECT_EQ(MustParseExpr("a OR b AND c")->ToString(), "(a OR (b AND c))");
  EXPECT_EQ(MustParseExpr("NOT a = b")->ToString(), "NOT (a = b)");
}

TEST(ParserTest, ComparisonOperators) {
  EXPECT_EQ(MustParseExpr("a <> b")->ToString(), "(a <> b)");
  EXPECT_EQ(MustParseExpr("a <= b")->ToString(), "(a <= b)");
  EXPECT_EQ(MustParseExpr("a >= b")->ToString(), "(a >= b)");
}

TEST(ParserTest, BetweenInIsNull) {
  EXPECT_EQ(MustParseExpr("a BETWEEN 1 AND 5")->ToString(),
            "a BETWEEN 1 AND 5");
  EXPECT_EQ(MustParseExpr("a NOT BETWEEN 1 AND 5")->ToString(),
            "a NOT BETWEEN 1 AND 5");
  EXPECT_EQ(MustParseExpr("a IN (1, 2, 3)")->ToString(), "a IN (1, 2, 3)");
  EXPECT_EQ(MustParseExpr("a NOT IN (1)")->ToString(), "a NOT IN (1)");
  EXPECT_EQ(MustParseExpr("a IS NULL")->ToString(), "a IS NULL");
  EXPECT_EQ(MustParseExpr("a IS NOT NULL")->ToString(), "a IS NOT NULL");
}

TEST(ParserTest, CaseExpression) {
  const AstExprPtr e = MustParseExpr(
      "CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END");
  ASSERT_EQ(e->kind, AstExprKind::kCase);
  EXPECT_TRUE(e->has_else);
  EXPECT_EQ(e->children.size(), 5u);
}

TEST(ParserTest, SimpleCaseRejected) {
  EXPECT_FALSE(Parser::ParseExpression("CASE a WHEN 1 THEN 2 END").ok());
}

TEST(ParserTest, FunctionCalls) {
  EXPECT_EQ(MustParseExpr("MOD(a, 4)")->ToString(), "MOD(a, 4)");
  EXPECT_EQ(MustParseExpr("COALESCE(val, 0)")->ToString(),
            "COALESCE(val, 0)");
  const AstExprPtr count_star = MustParseExpr("COUNT(*)");
  ASSERT_EQ(count_star->children.size(), 1u);
  EXPECT_EQ(count_star->children[0]->kind, AstExprKind::kStar);
}

TEST(ParserTest, PercentIsModulo) {
  const AstExprPtr e = MustParseExpr("a % 4");
  ASSERT_EQ(e->kind, AstExprKind::kBinary);
  EXPECT_EQ(e->binary_op, AstBinaryOp::kMod);
}

TEST(ParserTest, WindowFunctionFullSpec) {
  const Statement stmt = MustParse(
      "SELECT SUM(x) OVER (PARTITION BY a, b ORDER BY c DESC ROWS BETWEEN "
      "2 PRECEDING AND 3 FOLLOWING) FROM t");
  const AstExpr& call = *stmt.select->select_list[0].expr;
  ASSERT_NE(call.over, nullptr);
  EXPECT_EQ(call.over->partition_by.size(), 2u);
  ASSERT_EQ(call.over->order_by.size(), 1u);
  EXPECT_FALSE(call.over->order_by[0].ascending);
  ASSERT_TRUE(call.over->has_frame);
  EXPECT_EQ(call.over->frame_lo.kind, FrameBound::Kind::kPreceding);
  EXPECT_EQ(call.over->frame_lo.offset, 2);
  EXPECT_EQ(call.over->frame_hi.kind, FrameBound::Kind::kFollowing);
  EXPECT_EQ(call.over->frame_hi.offset, 3);
}

TEST(ParserTest, WindowFrameShorthand) {
  const Statement stmt = MustParse(
      "SELECT SUM(x) OVER (ORDER BY c ROWS UNBOUNDED PRECEDING) FROM t");
  const WindowSpecAst& over = *stmt.select->select_list[0].expr->over;
  ASSERT_TRUE(over.has_frame);
  EXPECT_EQ(over.frame_lo.kind, FrameBound::Kind::kUnboundedPreceding);
  EXPECT_EQ(over.frame_hi.kind, FrameBound::Kind::kCurrentRow);
}

TEST(ParserTest, WindowFrameCurrentRowToFollowing) {
  const Statement stmt = MustParse(
      "SELECT AVG(x) OVER (ORDER BY c ROWS BETWEEN CURRENT ROW AND 6 "
      "FOLLOWING) FROM t");
  const WindowSpecAst& over = *stmt.select->select_list[0].expr->over;
  EXPECT_EQ(over.frame_lo.kind, FrameBound::Kind::kCurrentRow);
  EXPECT_EQ(over.frame_hi.offset, 6);
}

TEST(ParserTest, JoinForms) {
  const Statement stmt = MustParse(
      "SELECT 1 FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y");
  const TableRef& top = *stmt.select->from;
  ASSERT_EQ(top.kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.join_kind, TableRef::JoinKind::kLeftOuter);
  ASSERT_EQ(top.left->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.left->join_kind, TableRef::JoinKind::kInner);
}

TEST(ParserTest, CommaJoinIsCross) {
  const Statement stmt = MustParse("SELECT 1 FROM a, b WHERE a.x = b.x");
  EXPECT_EQ(stmt.select->from->join_kind, TableRef::JoinKind::kCross);
  ASSERT_NE(stmt.select->where, nullptr);
}

TEST(ParserTest, DerivedTableRequiresAlias) {
  EXPECT_TRUE(Parser::ParseStatement(
                  "SELECT 1 FROM (SELECT a FROM t) sub").ok());
  EXPECT_FALSE(
      Parser::ParseStatement("SELECT 1 FROM (SELECT a FROM t)").ok());
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  const Statement stmt = MustParse(
      "SELECT a, SUM(b) FROM t WHERE c > 0 GROUP BY a HAVING SUM(b) > 10 "
      "ORDER BY a DESC LIMIT 5");
  EXPECT_EQ(stmt.select->group_by.size(), 1u);
  ASSERT_NE(stmt.select->having, nullptr);
  ASSERT_EQ(stmt.select->order_by.size(), 1u);
  EXPECT_FALSE(stmt.select->order_by[0].ascending);
  EXPECT_EQ(stmt.select->limit, 5);
}

TEST(ParserTest, UnionAllChain) {
  const Statement stmt = MustParse(
      "SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v "
      "ORDER BY 1");
  ASSERT_NE(stmt.select->union_all_next, nullptr);
  ASSERT_NE(stmt.select->union_all_next->union_all_next, nullptr);
  EXPECT_EQ(stmt.select->order_by.size(), 1u);  // attaches to the head
}

TEST(ParserTest, PlainUnionRejected) {
  EXPECT_FALSE(
      Parser::ParseStatement("SELECT a FROM t UNION SELECT b FROM u").ok());
}

TEST(ParserTest, CreateTable) {
  const Statement stmt = MustParse(
      "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE, name "
      "VARCHAR(30), flag BOOLEAN)");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateTable);
  const CreateTableStmt& ct = *stmt.create_table;
  ASSERT_EQ(ct.columns.size(), 4u);
  EXPECT_TRUE(ct.columns[0].primary_key);
  EXPECT_EQ(ct.columns[0].type, DataType::kInt64);
  EXPECT_EQ(ct.columns[1].type, DataType::kDouble);
  EXPECT_EQ(ct.columns[2].type, DataType::kString);
  EXPECT_EQ(ct.columns[3].type, DataType::kBool);
}

TEST(ParserTest, CreateIndex) {
  const Statement stmt = MustParse("CREATE INDEX i ON t (pos)");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateIndex);
  EXPECT_EQ(stmt.create_index->index_name, "i");
  EXPECT_EQ(stmt.create_index->column_name, "pos");
}

TEST(ParserTest, CreateMaterializedView) {
  const Statement stmt = MustParse(
      "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER (ORDER BY "
      "pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM seq");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateView);
  EXPECT_TRUE(stmt.create_view->materialized);
  EXPECT_EQ(stmt.create_view->view_name, "v");
}

TEST(ParserTest, InsertRows) {
  const Statement stmt = MustParse(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)");
  ASSERT_EQ(stmt.kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt.insert->columns.size(), 2u);
  EXPECT_EQ(stmt.insert->rows.size(), 2u);
}

TEST(ParserTest, UpdateAndDelete) {
  const Statement update =
      MustParse("UPDATE t SET a = a + 1, b = 0 WHERE c = 5");
  ASSERT_EQ(update.kind, Statement::Kind::kUpdate);
  EXPECT_EQ(update.update->assignments.size(), 2u);
  ASSERT_NE(update.update->where, nullptr);

  const Statement del = MustParse("DELETE FROM t WHERE a IS NULL");
  ASSERT_EQ(del.kind, Statement::Kind::kDelete);
}

TEST(ParserTest, DropTable) {
  EXPECT_EQ(MustParse("DROP TABLE t").kind, Statement::Kind::kDropTable);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parser::ParseStatement("SELECT a FROM t garbage garbage").ok());
}

TEST(ParserTest, ErrorsCarryLocation) {
  const Result<Statement> r = Parser::ParseStatement("SELECT FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, NegativeNumbersAndUnaryMinus) {
  EXPECT_EQ(MustParseExpr("-a + 2")->ToString(), "(-a + 2)");
  EXPECT_EQ(MustParseExpr("3 - -2")->ToString(), "(3 - -2)");
}

TEST(ParserTest, RangeFrameParses) {
  const Statement stmt = MustParse(
      "SELECT SUM(x) OVER (ORDER BY c RANGE BETWEEN 3 PRECEDING AND 2 "
      "FOLLOWING) FROM t");
  const WindowSpecAst& over = *stmt.select->select_list[0].expr->over;
  ASSERT_TRUE(over.has_frame);
  EXPECT_TRUE(over.range_mode);
  EXPECT_EQ(over.frame_lo.offset, 3);
  EXPECT_EQ(over.frame_hi.offset, 2);
}

TEST(ParserTest, RangeShorthandParses) {
  const Statement stmt =
      MustParse("SELECT SUM(x) OVER (ORDER BY c RANGE 2 PRECEDING) FROM t");
  const WindowSpecAst& over = *stmt.select->select_list[0].expr->over;
  EXPECT_TRUE(over.range_mode);
  EXPECT_EQ(over.frame_hi.kind, FrameBound::Kind::kCurrentRow);
}

TEST(ParserTest, SelectDistinct) {
  EXPECT_TRUE(MustParse("SELECT DISTINCT a FROM t").select->distinct);
  EXPECT_FALSE(MustParse("SELECT a FROM t").select->distinct);
  EXPECT_FALSE(MustParse("SELECT ALL a FROM t").select->distinct);
}

TEST(ParserTest, ExplainStatement) {
  const Statement stmt = MustParse("EXPLAIN SELECT a FROM t");
  EXPECT_EQ(stmt.kind, Statement::Kind::kExplain);
  ASSERT_NE(stmt.select, nullptr);
  EXPECT_FALSE(Parser::ParseStatement("EXPLAIN DROP TABLE t").ok());
}

TEST(ParserTest, RankingFunctionCallsParse) {
  const Statement stmt = MustParse(
      "SELECT ROW_NUMBER() OVER (ORDER BY v DESC), RANK() OVER (ORDER BY "
      "v) FROM t");
  const AstExpr& rn = *stmt.select->select_list[0].expr;
  EXPECT_EQ(rn.function_name, "ROW_NUMBER");
  EXPECT_TRUE(rn.children.empty());
  ASSERT_NE(rn.over, nullptr);
}

TEST(ParserTest, PaperIntroductionQueryParses) {
  // The full query from the paper's §1 (syntax check).
  EXPECT_TRUE(Parser::ParseStatement(
                  "SELECT c_date, c_transaction, "
                  "SUM(c_transaction) OVER (ORDER BY c_date ROWS UNBOUNDED "
                  "PRECEDING) AS cum_sum_total, "
                  "SUM(c_transaction) OVER (PARTITION BY MONTH(c_date) "
                  "ORDER BY c_date ROWS UNBOUNDED PRECEDING) AS "
                  "cum_sum_month, "
                  "AVG(c_transaction) OVER (PARTITION BY MONTH(c_date), "
                  "l_region ORDER BY c_date ROWS BETWEEN 1 PRECEDING AND 1 "
                  "FOLLOWING) AS c_3mvg_avg, "
                  "AVG(c_transaction) OVER (ORDER BY c_date ROWS BETWEEN "
                  "CURRENT ROW AND 6 FOLLOWING) AS c_7mvg_avg "
                  "FROM c_transactions, l_locations "
                  "WHERE c_locid = l_locid AND c_custid = 4711")
                  .ok());
}

}  // namespace
}  // namespace rfv
