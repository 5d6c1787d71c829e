#include "db/database.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

TEST(DatabaseTest, CreateTableAndInsert) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR)");
  const ResultSet rs =
      MustExecute(db, "INSERT INTO t VALUES (1, 2.5, 'x'), (2, NULL, 'y')");
  EXPECT_EQ(rs.affected(), 2);
  EXPECT_EQ(MustExecute(db, "SELECT COUNT(*) FROM t").at(0, 0),
            Value::Int(2));
}

TEST(DatabaseTest, InsertWithColumnList) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b DOUBLE)");
  MustExecute(db, "INSERT INTO t (b, a) VALUES (1.5, 7)");
  const ResultSet rs = MustExecute(db, "SELECT a, b FROM t");
  EXPECT_EQ(rs.at(0, 0), Value::Int(7));
  EXPECT_EQ(rs.at(0, 1), Value::Double(1.5));
}

TEST(DatabaseTest, InsertArityMismatchRejected) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b DOUBLE)");
  EXPECT_EQ(db.Execute("INSERT INTO t (a) VALUES (1, 2)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, InsertComputedConstants) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (2 + 3 * 4)");
  EXPECT_EQ(MustExecute(db, "SELECT a FROM t").at(0, 0), Value::Int(14));
}

TEST(DatabaseTest, PrimaryKeyCreatesIndex) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER PRIMARY KEY, b DOUBLE)");
  Result<Table*> table = db.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->HasIndexOnColumn(0));
}

TEST(DatabaseTest, CreateIndexStatement) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b DOUBLE)");
  MustExecute(db, "CREATE INDEX bidx ON t (b)");
  Result<Table*> table = db.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->HasIndexOnColumn(1));
}

TEST(DatabaseTest, UpdateWithWhere) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)");
  const ResultSet rs =
      MustExecute(db, "UPDATE t SET b = a * 10 WHERE a >= 2");
  EXPECT_EQ(rs.affected(), 2);
  EXPECT_EQ(MustExecute(db, "SELECT SUM(b) FROM t").at(0, 0), Value::Int(50));
}

TEST(DatabaseTest, SelfReferencingUpdate) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2)");
  MustExecute(db, "UPDATE t SET a = a + 1");
  const ResultSet rs = MustExecute(db, "SELECT a FROM t ORDER BY a");
  EXPECT_EQ(rs.at(0, 0), Value::Int(2));
  EXPECT_EQ(rs.at(1, 0), Value::Int(3));
}

TEST(DatabaseTest, DeleteWithWhere) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2), (3), (4)");
  const ResultSet rs = MustExecute(db, "DELETE FROM t WHERE MOD(a, 2) = 0");
  EXPECT_EQ(rs.affected(), 2);
  EXPECT_EQ(MustExecute(db, "SELECT COUNT(*) FROM t").at(0, 0),
            Value::Int(2));
}

TEST(DatabaseTest, DeleteAll) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "INSERT INTO t VALUES (1), (2)");
  MustExecute(db, "DELETE FROM t");
  EXPECT_EQ(MustExecute(db, "SELECT COUNT(*) FROM t").at(0, 0),
            Value::Int(0));
}

TEST(DatabaseTest, DropTable) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER)");
  MustExecute(db, "DROP TABLE t");
  EXPECT_EQ(db.Execute("SELECT a FROM t").status().code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, DropViewUnregistersRewrite) {
  Database db;
  testutil::CreateSeqTable(db, 20);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  MustExecute(db, "DROP TABLE v");
  const ResultSet rs = MustExecute(
      db,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST(DatabaseTest, NonMaterializedViewRejected) {
  Database db;
  testutil::CreateSeqTable(db, 5);
  EXPECT_EQ(db.Execute("CREATE VIEW v AS SELECT pos FROM seq")
                .status()
                .code(),
            StatusCode::kNotSupported);
}

TEST(DatabaseTest, GenericMaterializedViewSnapshots) {
  Database db;
  testutil::CreateSeqTable(db, 5);
  MustExecute(db,
              "CREATE MATERIALIZED VIEW top AS SELECT pos, val FROM seq "
              "WHERE val > 0");
  const ResultSet rs = MustExecute(db, "SELECT COUNT(*) FROM top");
  EXPECT_GT(rs.at(0, 0).AsInt(), 0);
}

TEST(DatabaseTest, ExplainRendersPlan) {
  Database db;
  testutil::CreateSeqTable(db, 3);
  const ResultSet rs = MustExecute(
      db, "EXPLAIN SELECT s1.pos FROM seq s1, seq s2 WHERE s1.pos = s2.pos");
  std::string plan;
  for (const Row& row : rs.rows()) plan += row[0].AsString() + "\n";
  EXPECT_NE(plan.find("InnerJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Scan(seq"), std::string::npos) << plan;
  // Not a window query: no rewrite decision precedes the plan.
  EXPECT_EQ(plan.find("Rewrite:"), std::string::npos) << plan;
}

TEST(DatabaseTest, ParseErrorsSurface) {
  Database db;
  EXPECT_EQ(db.Execute("SELEC 1").status().code(), StatusCode::kParseError);
  EXPECT_EQ(db.Execute("").status().code(), StatusCode::kParseError);
}

TEST(DatabaseTest, ResultSetHelpers) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute(db, "INSERT INTO t VALUES (1, 'x')");
  const ResultSet rs = MustExecute(db, "SELECT a AS num, b AS name FROM t");
  EXPECT_EQ(rs.ColumnIndex("num"), 0);
  EXPECT_EQ(rs.ColumnIndex("NAME"), 1);
  EXPECT_EQ(rs.ColumnIndex("missing"), -1);
  EXPECT_NE(rs.ToString().find("num"), std::string::npos);
}

TEST(DatabaseTest, SelectDistinct) {
  Database db;
  MustExecute(db, "CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute(db,
              "INSERT INTO t VALUES (1, 'x'), (1, 'x'), (1, 'y'), (2, 'x'), "
              "(NULL, 'x'), (NULL, 'x')");
  EXPECT_EQ(MustExecute(db, "SELECT DISTINCT a, b FROM t").NumRows(), 4u);
  EXPECT_EQ(MustExecute(db, "SELECT DISTINCT a FROM t").NumRows(), 3u);
  // DISTINCT composes with ORDER BY and expressions.
  const ResultSet rs =
      MustExecute(db, "SELECT DISTINCT a * 10 AS x FROM t ORDER BY x");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_TRUE(rs.at(0, 0).is_null());
  EXPECT_EQ(rs.at(1, 0), Value::Int(10));
}

TEST(DatabaseTest, PaperIntroductionQueryEndToEnd) {
  Database db;
  MustExecute(db,
              "CREATE TABLE l_locations (l_locid INTEGER PRIMARY KEY, "
              "l_city VARCHAR, l_region VARCHAR)");
  MustExecute(db,
              "INSERT INTO l_locations VALUES (1, 'Erlangen', 'Franconia'), "
              "(2, 'Munich', 'Bavaria')");
  MustExecute(db,
              "CREATE TABLE c_transactions (c_custid INTEGER, c_date "
              "INTEGER, c_locid INTEGER, c_transaction DOUBLE)");
  MustExecute(db,
              "INSERT INTO c_transactions VALUES "
              "(4711, 20010105, 1, 10), (4711, 20010110, 2, 20), "
              "(4711, 20010120, 1, 30), (4711, 20010203, 2, 40), "
              "(4711, 20010215, 1, 50), (9999, 20010101, 1, 999)");
  const ResultSet rs = MustExecute(
      db,
      "SELECT c_date, c_transaction, "
      "SUM(c_transaction) OVER (ORDER BY c_date ROWS UNBOUNDED PRECEDING) "
      "AS cum_sum_total, "
      "SUM(c_transaction) OVER (PARTITION BY MONTH(c_date) ORDER BY c_date "
      "ROWS UNBOUNDED PRECEDING) AS cum_sum_month, "
      "AVG(c_transaction) OVER (PARTITION BY MONTH(c_date), l_region ORDER "
      "BY c_date ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS c_3mvg_avg, "
      "AVG(c_transaction) OVER (ORDER BY c_date ROWS BETWEEN CURRENT ROW "
      "AND 6 FOLLOWING) AS c_7mvg_avg "
      "FROM c_transactions, l_locations "
      "WHERE c_locid = l_locid AND c_custid = 4711 ORDER BY c_date");
  ASSERT_EQ(rs.NumRows(), 5u);
  // Overall cumulative: 10, 30, 60, 100, 150.
  EXPECT_DOUBLE_EQ(rs.at(4, 2).ToDouble(), 150.0);
  // Monthly cumulative restarts in February: 40, 90.
  EXPECT_DOUBLE_EQ(rs.at(3, 3).ToDouble(), 40.0);
  EXPECT_DOUBLE_EQ(rs.at(4, 3).ToDouble(), 90.0);
  // Reporting functions do not shrink the data volume: one output per
  // input (paper §1).
  EXPECT_EQ(rs.NumRows(), 5u);
}

}  // namespace
}  // namespace rfv
