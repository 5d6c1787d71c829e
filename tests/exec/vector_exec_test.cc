// Execution-contract tests for the vector pull protocol:
//
//  NextVector contract: every call yields either a projection with at
//  least one selected row and *eof = false, or nullptr with *eof =
//  true, and the operator body is never re-entered after it reported
//  eof. The shell skips empty body results and holds back an eof that
//  arrives together with rows (TableScanOp's final partial chunk,
//  LimitOp truncating mid-vector, a join's last output vector) — these
//  tests pin that shape and that no final rows are dropped.
//
// Also covered: limit hit mid-vector, UNION ALL over interleaved empty
// children, the row pull of vectorized operators (Next serves their
// vectors' rows), row-only joins over columnar ones, and row/vector mode
// equivalence over a small query suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "expr/builder.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "rewrite/pattern_sql.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class ExecContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t5 (a INTEGER)");
    MustExecute(db_, "INSERT INTO t5 VALUES (1), (2), (3), (4), (5)");
    MustExecute(db_, "CREATE TABLE empty1 (a INTEGER)");
    MustExecute(db_, "CREATE TABLE empty2 (a INTEGER)");
    MustExecute(db_, "CREATE TABLE empty3 (a INTEGER)");
    MustExecute(db_, "CREATE TABLE t2 (a INTEGER)");
    MustExecute(db_, "INSERT INTO t2 VALUES (10), (11)");
  }

  Table* GetTable(const std::string& name) {
    Result<Table*> t = db_.catalog()->GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : nullptr;
  }

  // A scan in vector mode (its columnar body runs) unless `vectorized`
  // is false.
  PhysicalOperatorPtr Scan(const std::string& name, bool vectorized = true) {
    Table* table = GetTable(name);
    auto scan = std::make_unique<TableScanOp>(table->schema(), table);
    scan->SetVectorized(vectorized);
    return scan;
  }

  Database db_;
};

// Asserts the end of a NextVector stream: nullptr with eof, on the call
// that ends it and on one more.
void ExpectVectorEof(PhysicalOperator* op) {
  for (int i = 0; i < 2; ++i) {
    VectorProjection* vp = nullptr;
    bool eof = false;
    ASSERT_TRUE(op->NextVector(&vp, &eof).ok());
    EXPECT_EQ(vp, nullptr);
    EXPECT_TRUE(eof);
  }
}

// ---------------------------------------------------------------------
// NextVector contract: rows without eof, then nullptr with eof.
// ---------------------------------------------------------------------

TEST_F(ExecContractTest, ScanFinalVectorIsNonEmptyThenEof) {
  PhysicalOperatorPtr scan = Scan("t5");
  ASSERT_TRUE(scan->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = true;
  ASSERT_TRUE(scan->NextVector(&vp, &eof).ok());
  // 5 rows fit one vector: the body reports them and eof together; the
  // shell passes the rows on and holds the eof back for the next call.
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 5u);
  EXPECT_FALSE(eof);
  ExpectVectorEof(scan.get());
  EXPECT_EQ(scan->metrics().next_calls, 3);
  EXPECT_EQ(scan->metrics().rows_out, 5);
  EXPECT_EQ(scan->metrics().vectors_out, 1);
}

TEST_F(ExecContractTest, LimitVectorTruncatesSelectionThenEof) {
  auto limit = std::make_unique<LimitOp>(GetTable("t5")->schema(),
                                         Scan("t5"), /*limit=*/3);
  limit->SetVectorized(true);
  ASSERT_TRUE(limit->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = true;
  ASSERT_TRUE(limit->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 3u);
  EXPECT_FALSE(eof);
  // The physical vector still holds all 5 scanned rows; only the
  // selection was narrowed.
  EXPECT_EQ(vp->num_rows(), 5u);
  ExpectVectorEof(limit.get());
}

// A scripted vector-native operator: each NextVectorImpl call plays the
// next step (a vector of `rows` selected rows, or none, and an eof
// flag) and fails the test when called after it reported eof.
class ScriptedVectorOp : public PhysicalOperator {
 public:
  struct Step {
    int rows = -1;  ///< -1 = no projection; 0 = an empty selection
    bool eof = false;
  };
  explicit ScriptedVectorOp(std::vector<Step> script)
      : PhysicalOperator(Schema({ColumnDef("a", DataType::kInt64)})),
        script_(std::move(script)) {}
  const char* name() const override { return "scripted"; }
  bool VectorNative() const override { return true; }
  size_t impl_calls() const { return next_; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    value_ = 0;
    return Status::OK();
  }
  Status NextImpl(Row* row, bool* eof) override {
    (void)row;
    *eof = true;
    return Status::Internal("the row body of a vectorized operator ran");
  }
  Status NextVectorImpl(VectorProjection** out, bool* eof) override {
    if (next_ >= script_.size()) {
      ADD_FAILURE() << "NextVectorImpl called after the end of its script";
      *eof = true;
      return Status::OK();
    }
    EXPECT_FALSE(next_ > 0 && script_[next_ - 1].eof)
        << "NextVectorImpl re-entered after reporting eof";
    const Step& step = script_[next_++];
    if (step.rows >= 0) {
      vp_.Reset(1, static_cast<size_t>(step.rows));
      for (int i = 0; i < step.rows; ++i) vp_.column(0).SetInt(i, ++value_);
      *out = &vp_;
    }
    *eof = step.eof;
    return Status::OK();
  }

 private:
  std::vector<Step> script_;
  size_t next_ = 0;
  int64_t value_ = 0;
  VectorProjection vp_;
};

TEST(NextVectorShellTest, SkipsEmptyResultsAndHoldsBackEofWithRows) {
  // Null, empty, 2 rows, empty, 3 rows together with eof.
  ScriptedVectorOp op({{-1, false}, {0, false}, {2, false}, {0, false},
                       {3, true}});
  op.SetVectorized(true);
  ASSERT_TRUE(op.Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = true;
  ASSERT_TRUE(op.NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 2u);
  EXPECT_FALSE(eof);
  EXPECT_EQ(op.impl_calls(), 3u);
  ASSERT_TRUE(op.NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 3u);
  EXPECT_FALSE(eof);
  ExpectVectorEof(&op);
  EXPECT_EQ(op.impl_calls(), 5u);  // the held-back eof re-enters nothing
  EXPECT_EQ(op.metrics().next_calls, 4);
  EXPECT_EQ(op.metrics().rows_out, 5);
  EXPECT_EQ(op.metrics().vectors_out, 2);
}

TEST(NextVectorShellTest, EmptyEofEndsTheStreamAtOnce) {
  ScriptedVectorOp op({{0, false}, {0, true}});
  op.SetVectorized(true);
  ASSERT_TRUE(op.Open().ok());
  ExpectVectorEof(&op);
  EXPECT_EQ(op.impl_calls(), 2u);
}

TEST(NextVectorShellTest, NextServesTheRowsOfTheVectors) {
  ScriptedVectorOp op({{2, false}, {0, false}, {-1, false}, {1, true}});
  op.SetVectorized(true);
  ASSERT_TRUE(op.Open().ok());
  std::vector<int64_t> got;
  Row row;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(op.Next(&row, &eof).ok());
    if (eof) break;
    got.push_back(row[0].AsInt());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3}));
  ASSERT_TRUE(op.Next(&row, &eof).ok());  // still eof, nothing re-entered
  EXPECT_TRUE(eof);
  EXPECT_EQ(op.impl_calls(), 4u);
  EXPECT_EQ(op.metrics().rows_out, 3);
  EXPECT_EQ(op.metrics().vectors_out, 2);
}

TEST_F(ExecContractTest, DrainChildKeepsFinalVectorRows) {
  // A consumer that tested eof before draining would lose the truncated
  // final vector entirely.
  auto limit = std::make_unique<LimitOp>(GetTable("t5")->schema(),
                                         Scan("t5"), /*limit=*/4);
  limit->SetVectorized(true);
  ASSERT_TRUE(limit->Open().ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainChild(limit.get(), &rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[3][0], Value::Int(4));
}

// ---------------------------------------------------------------------
// UNION ALL with empty children interleaved among non-empty ones.
// ---------------------------------------------------------------------

class UnionModesTest : public ExecContractTest {
 protected:
  PhysicalOperatorPtr MakeUnion(bool vectorized) {
    std::vector<PhysicalOperatorPtr> children;
    for (const char* name : {"empty1", "t5", "empty2", "t2", "empty3"}) {
      children.push_back(Scan(name, vectorized));
    }
    auto u = std::make_unique<UnionAllOp>(GetTable("t5")->schema(),
                                          std::move(children));
    u->SetVectorized(vectorized);
    return u;
  }

  void ExpectAllRows(const std::vector<Row>& rows) {
    ASSERT_EQ(rows.size(), 7u);
    EXPECT_EQ(rows[0][0], Value::Int(1));
    EXPECT_EQ(rows[4][0], Value::Int(5));
    EXPECT_EQ(rows[5][0], Value::Int(10));
    EXPECT_EQ(rows[6][0], Value::Int(11));
  }
};

TEST_F(UnionModesTest, RowPath) {
  PhysicalOperatorPtr u = MakeUnion(/*vectorized=*/false);
  Result<std::vector<Row>> rows = ExecuteToVector(u.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectAllRows(*rows);
}

TEST_F(UnionModesTest, VectorPath) {
  PhysicalOperatorPtr u = MakeUnion(/*vectorized=*/true);
  Result<std::vector<Row>> rows = ExecuteToVector(u.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectAllRows(*rows);
}

TEST_F(UnionModesTest, VectorPathSkipsEmptyChildrenWithinOneCall) {
  PhysicalOperatorPtr u = MakeUnion(/*vectorized=*/true);
  ASSERT_TRUE(u->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = true;
  // First call: skips empty1, yields t5's rows.
  ASSERT_TRUE(u->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 5u);
  EXPECT_FALSE(eof);
  // Second call: skips empty2, yields t2's rows.
  ASSERT_TRUE(u->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 2u);
  EXPECT_FALSE(eof);
  // Third call: drains empty3 and ends the stream.
  ExpectVectorEof(u.get());
  EXPECT_EQ(u->metrics().next_calls, 4);
}

// Parses, binds, optimizes and estimates `sql`, then builds its physical
// plan with the default (vectorized) options.
PhysicalOperatorPtr BuildSqlPlan(Database* db, const std::string& sql) {
  Result<Statement> stmt = Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  Binder binder(db->catalog());
  Result<LogicalPlanPtr> bound = binder.BindSelect(*stmt->select);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return nullptr;
  LogicalPlanPtr plan = OptimizePlan(std::move(bound).value());
  EstimateCardinality(plan.get());
  Result<PhysicalOperatorPtr> built = BuildPhysicalPlan(*plan);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : nullptr;
}

// The first operator of type Op in `root`'s tree (depth first), or null.
template <typename Op>
Op* FindOp(PhysicalOperator* root) {
  std::vector<const PhysicalOperator*> stack = {root};
  while (!stack.empty()) {
    const PhysicalOperator* node = stack.back();
    stack.pop_back();
    if (auto* op = dynamic_cast<const Op*>(node)) return const_cast<Op*>(op);
    node->AppendChildren(&stack);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// The two execution modes agree on a small SQL suite (end to end,
// including plans that mix vector-native and row-only operators).
// ---------------------------------------------------------------------

class ExecModesSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t (a INTEGER, b DOUBLE, s VARCHAR)");
    MustExecute(db_,
                "INSERT INTO t VALUES (1, 10.0, 'x'), (2, 20.0, 'y'), "
                "(3, NULL, 'x'), (4, 40.0, NULL), (2, 25.0, 'z'), "
                "(6, 5.5, 'x'), (7, NULL, 'y')");
  }

  // Runs `sql` under the vector and row modes and checks they produce
  // identical rows in identical order, cell types included (Int(2) and
  // Double(2.0) compare equal, so a sort that swapped such a tie would
  // pass a value comparison). Returns the vector-mode rows.
  ResultSet ExpectModesAgree(const std::string& sql) {
    db_.options().exec.use_vectorized_execution = true;
    const ResultSet vec = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = false;
    const ResultSet row = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = true;
    EXPECT_TRUE(testutil::RowsEqual(vec, row)) << sql;
    EXPECT_TRUE(SameTags(vec, row)) << sql;
    return vec;
  }

  static bool SameTags(const ResultSet& a, const ResultSet& b) {
    if (a.NumRows() != b.NumRows()) return false;
    for (size_t i = 0; i < a.NumRows(); ++i) {
      for (size_t c = 0; c < a.schema().NumColumns(); ++c) {
        if (a.at(i, c).type() != b.at(i, c).type()) return false;
      }
    }
    return true;
  }

  // The vector-mode EXPLAIN ANALYZE entry of the first operator named
  // `op` in `sql`'s plan.
  OperatorMetricsEntry VectorEntry(const std::string& sql,
                                   const std::string& op) {
    const ResultSet plan = MustExecute(db_, "EXPLAIN ANALYZE " + sql);
    for (const OperatorMetricsEntry& e : plan.metrics()) {
      if (e.name == op) return e;
    }
    ADD_FAILURE() << "no " << op << " in the plan of " << sql;
    return OperatorMetricsEntry();
  }

  // Creates `name` (k INTEGER, v DOUBLE) with rows k = 1..n in order
  // (descending when `reverse`); v = k % 7 is an INTEGER-tagged cell
  // for odd k and a DOUBLE one for even k.
  void CreateBig(const std::string& name, int n, bool reverse) {
    MustExecute(db_, "CREATE TABLE " + name + " (k INTEGER, v DOUBLE)");
    std::string insert = "INSERT INTO " + name + " VALUES ";
    for (int i = 1; i <= n; ++i) {
      const int k = reverse ? n + 1 - i : i;
      const std::string v = std::to_string(k % 7) + (k % 2 == 0 ? ".0" : "");
      insert += (i > 1 ? ", (" : "(") + std::to_string(k) + ", " + v + ")";
    }
    MustExecute(db_, insert);
  }

  Database db_;
};

TEST_F(ExecModesSqlTest, FilterProjectExpressions) {
  ExpectModesAgree(
      "SELECT a, CASE WHEN a > 2 THEN 100 / a ELSE 0 - a END FROM t "
      "WHERE a BETWEEN 1 AND 6");
  ExpectModesAgree(
      "SELECT a, COALESCE(b, 0.0), MOD(a, 3) FROM t WHERE b > 0 OR s = 'y'");
  ExpectModesAgree("SELECT a FROM t WHERE a IN (2, 4, 9)");
}

TEST_F(ExecModesSqlTest, AllRowsFilteredOut) {
  ExpectModesAgree("SELECT a FROM t WHERE a > 1000");
  ExpectModesAgree("SELECT a FROM t WHERE b IS NULL AND b IS NOT NULL");
}

TEST_F(ExecModesSqlTest, GroupByAndAggregates) {
  ExpectModesAgree(
      "SELECT s, COUNT(*), SUM(a), AVG(b), MIN(b), MAX(a) FROM t GROUP BY s "
      "ORDER BY s");
  // Single-int-key grouping exercises the aggregate's int64 fast path;
  // grouping by a double expression forces the migration to Value keys.
  ExpectModesAgree("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a");
  ExpectModesAgree("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
}

TEST_F(ExecModesSqlTest, LimitAndUnion) {
  ExpectModesAgree("SELECT a FROM t ORDER BY a LIMIT 3");
  ExpectModesAgree("SELECT a FROM t LIMIT 0");
  ExpectModesAgree(
      "SELECT a FROM t WHERE a < 3 UNION ALL SELECT a FROM t WHERE a > 100 "
      "UNION ALL SELECT a FROM t WHERE a > 5");
}

// ---------------------------------------------------------------------
// Row-only left inputs under the columnar joins: the hash and band
// joins pull an index nested-loop or nested-loop join through
// NextVector, whose shell writes the join's rows into lanes. 2 500
// left rows cross the 1 024-row vector boundary twice.
// ---------------------------------------------------------------------

class RowOnlyLeftInputTest : public ExecModesSqlTest {
 protected:
  void SetUp() override {
    ExecModesSqlTest::SetUp();
    CreateBig("big", 2500, /*reverse=*/false);
    MustExecute(db_, "CREATE INDEX big_k ON big (k)");
    // Every other key of big; no index, so equi joins on it hash.
    MustExecute(db_, "CREATE TABLE half (k INTEGER, w INTEGER)");
    std::string insert = "INSERT INTO half VALUES ";
    for (int k = 2; k <= 2500; k += 2) {
      insert += (k > 2 ? ", (" : "(") + std::to_string(k) + ", " +
                std::to_string(k * 3) + ")";
    }
    MustExecute(db_, insert);
    // One row below every v: the nested loop passes all of big through.
    MustExecute(db_, "CREATE TABLE low (w DOUBLE)");
    MustExecute(db_, "INSERT INTO low VALUES (-1.0)");
  }

  // Checks that `sql`'s vector plan has `parent` with `left` as its
  // first (left) input, and that the left input answered at least
  // `min_vectors` NextVector calls with rows.
  void ExpectLeftInput(const std::string& sql, const std::string& parent,
                       const std::string& left, int64_t min_vectors) {
    const ResultSet plan = MustExecute(db_, "EXPLAIN ANALYZE " + sql);
    const std::vector<OperatorMetricsEntry>& entries = plan.metrics();
    for (size_t i = 0; i + 1 < entries.size(); ++i) {
      if (entries[i].name != parent) continue;
      EXPECT_EQ(entries[i + 1].name, left) << sql;
      EXPECT_EQ(entries[i + 1].depth, entries[i].depth + 1) << sql;
      EXPECT_GE(entries[i + 1].metrics.vectors_out, min_vectors) << sql;
      return;
    }
    ADD_FAILURE() << "no " << parent << " in the plan of " << sql;
  }
};

TEST_F(RowOnlyLeftInputTest, HashJoinOverIndexNestedLoop) {
  const std::string sql =
      "SELECT a.k, b.v, c.w FROM big a JOIN big b ON b.k = a.k "
      "JOIN half c ON c.k = b.k";
  const ResultSet rs = ExpectModesAgree(sql);
  ASSERT_EQ(rs.NumRows(), 1250u);
  ExpectLeftInput(sql, "hash_join", "index_nested_loop_join", 3);
}

TEST_F(RowOnlyLeftInputTest, BandJoinOverNestedLoop) {
  const std::string sql =
      "SELECT a.k, c.k FROM big a JOIN low b ON a.v > b.w "
      "JOIN big c ON c.k BETWEEN a.k - 1 AND a.k + 1";
  const ResultSet rs = ExpectModesAgree(sql);
  ASSERT_EQ(rs.NumRows(), 3u * 2500u - 2u);
  ExpectLeftInput(sql, "merge_band_join", "nested_loop_join", 3);
}

TEST_F(RowOnlyLeftInputTest, LeftJoinsOverRowOnlyInputs) {
  // Odd keys find no partner in half: their rows come back NULL-padded.
  const std::string hash_sql =
      "SELECT a.k, c.w FROM big a JOIN big b ON b.k = a.k "
      "LEFT JOIN half c ON c.k = b.k";
  const ResultSet hash = ExpectModesAgree(hash_sql);
  ASSERT_EQ(hash.NumRows(), 2500u);
  ExpectLeftInput(hash_sql, "hash_join", "index_nested_loop_join", 3);
  // Past k = 1 000 the band runs off the end of big.
  const std::string band_sql =
      "SELECT a.k, c.k FROM big a JOIN low b ON a.v > b.w "
      "LEFT JOIN big c ON c.k BETWEEN a.k + 1500 AND a.k + 1501";
  const ResultSet band = ExpectModesAgree(band_sql);
  ASSERT_EQ(band.NumRows(), 2u * 999u + 1u + 1500u);
  ExpectLeftInput(band_sql, "merge_band_join", "nested_loop_join", 3);
}

// ---------------------------------------------------------------------
// Columnar operators under row-only joins: the nested-loop and index
// nested-loop joins pull their left input through Next, which a
// vectorized operator answers from the rows of its own vectors. (A
// vectorized hash join once answered Next from its row-mode hash table,
// which only the row-mode Open fills: no rows, or NULL-padded ones under
// a LEFT JOIN.)
// ---------------------------------------------------------------------

class UnderRowOnlyJoinTest : public ExecModesSqlTest {
 protected:
  void SetUp() override {
    ExecModesSqlTest::SetUp();
    MustExecute(db_, "CREATE TABLE a (k INTEGER, x INTEGER)");
    MustExecute(db_, "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)");
    MustExecute(db_, "CREATE TABLE b (k INTEGER, y INTEGER)");
    MustExecute(db_, "INSERT INTO b VALUES (1, 100), (2, 200), (3, 300)");
    MustExecute(db_, "CREATE TABLE c (z INTEGER)");
    MustExecute(db_, "INSERT INTO c VALUES (5), (25)");
  }

  // `sql`'s vector-mode plan, one operator per entry in pre-order, each
  // name indented by one space per level.
  std::vector<std::string> PlanShape(const std::string& sql) {
    const ResultSet plan = MustExecute(db_, "EXPLAIN ANALYZE " + sql);
    std::vector<std::string> shape;
    for (const OperatorMetricsEntry& e : plan.metrics()) {
      shape.push_back(std::string(static_cast<size_t>(e.depth), ' ') +
                      e.name);
    }
    return shape;
  }

  // Checks that both modes agree on `sql`, that its plan is `shape` and
  // that it returns exactly `want`, in order.
  void ExpectAnswer(const std::string& sql,
                    const std::vector<std::string>& shape,
                    const std::vector<std::vector<int64_t>>& want) {
    const ResultSet rs = ExpectModesAgree(sql);
    EXPECT_EQ(PlanShape(sql), shape) << sql;
    ASSERT_EQ(rs.NumRows(), want.size()) << sql;
    for (size_t i = 0; i < want.size(); ++i) {
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_EQ(rs.at(i, c), Value::Int(want[i][c]))
            << sql << " row " << i << " column " << c;
      }
    }
  }
};

TEST_F(UnderRowOnlyJoinTest, HashJoinUnderNestedLoopJoin) {
  ExpectAnswer(
      "SELECT a.k, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON a.x <> c.z",
      {"project", " nested_loop_join", "  hash_join", "   scan", "   scan",
       "  scan"},
      {{1, 100, 5}, {1, 100, 25}, {2, 200, 5}, {2, 200, 25}, {3, 300, 5},
       {3, 300, 25}});
}

TEST_F(UnderRowOnlyJoinTest, LeftHashJoinUnderNestedLoopJoin) {
  ExpectAnswer(
      "SELECT a.k, b.y, c.z FROM a LEFT JOIN b ON a.k = b.k "
      "JOIN c ON a.x <> c.z",
      {"project", " nested_loop_join", "  hash_join", "   scan", "   scan",
       "  scan"},
      {{1, 100, 5}, {1, 100, 25}, {2, 200, 5}, {2, 200, 25}, {3, 300, 5},
       {3, 300, 25}});
}

TEST_F(UnderRowOnlyJoinTest, HashJoinUnderIndexNestedLoopJoin) {
  MustExecute(db_, "INSERT INTO a VALUES (3, 31)");
  MustExecute(db_, "INSERT INTO c VALUES (31)");
  MustExecute(db_, "CREATE INDEX c_z ON c (z)");
  ExpectAnswer(
      "SELECT a.k, c.z FROM a JOIN b ON a.k = b.k JOIN c ON c.z = a.x",
      {"project", " index_nested_loop_join", "  hash_join", "   scan",
       "   scan"},
      {{3, 31}});
}

TEST_F(UnderRowOnlyJoinTest, ColumnarInputsOfANestedLoopJoin) {
  // A band join, an aggregate, ORDER BY ... LIMIT and UNION ALL, each in
  // a derived table on the nested loop's left side.
  ExpectAnswer(
      "SELECT d.k, d.y, c.z FROM (SELECT a.k, b.y FROM a JOIN b "
      "ON b.k BETWEEN a.k - 1 AND a.k) d JOIN c ON d.y <> c.z * 4",
      {"project", " nested_loop_join", "  project", "   merge_band_join",
       "    scan", "    scan", "  scan"},
      {{1, 100, 5}, {2, 100, 5}, {2, 200, 5}, {2, 200, 25}, {3, 200, 5},
       {3, 200, 25}, {3, 300, 5}, {3, 300, 25}});
  ExpectAnswer(
      "SELECT d.k, d.s, c.z FROM (SELECT k, SUM(y) AS s FROM b GROUP BY k) d "
      "JOIN c ON d.s <> c.z * 8",
      {"project", " nested_loop_join", "  project", "   hash_aggregate",
       "    scan", "  scan"},
      {{1, 100, 5}, {1, 100, 25}, {2, 200, 5}, {3, 300, 5}, {3, 300, 25}});
  ExpectAnswer(
      "SELECT d.x, c.z FROM (SELECT x FROM a ORDER BY x DESC LIMIT 2) d "
      "JOIN c ON d.x <> c.z + 5",
      {"project", " nested_loop_join", "  limit", "   sort", "    project",
       "     scan", "  scan"},
      {{30, 5}, {20, 5}, {20, 25}});
  ExpectAnswer(
      "SELECT d.v, c.z FROM (SELECT x AS v FROM a UNION ALL "
      "SELECT y AS v FROM b) d JOIN c ON d.v <> c.z * 4",
      {"project", " nested_loop_join", "  union_all", "   project",
       "    scan", "   project", "    scan", "  scan"},
      {{10, 5}, {10, 25}, {20, 25}, {30, 5}, {30, 25}, {100, 5}, {200, 5},
       {200, 25}, {300, 5}, {300, 25}});
}

// ---------------------------------------------------------------------
// The columnar sort (SortOp in vector mode): the in-order pass-through
// and the permutation path must both reproduce the row sort exactly.
// ---------------------------------------------------------------------

TEST_F(ExecModesSqlTest, SortPresortedInputCrossesTheVectorBoundary) {
  CreateBig("big", 2500, /*reverse=*/false);
  const std::string sql = "SELECT k, v FROM big ORDER BY k";
  const ResultSet rs = ExpectModesAgree(sql);
  ASSERT_EQ(rs.NumRows(), 2500u);
  EXPECT_EQ(rs.at(1023, 0), Value::Int(1024));
  EXPECT_EQ(rs.at(1024, 0), Value::Int(1025));
  EXPECT_EQ(rs.at(2499, 0), Value::Int(2500));
  const OperatorMetricsEntry sort = VectorEntry(sql, "sort");
  EXPECT_EQ(sort.detail, "presorted=1");
  EXPECT_EQ(sort.metrics.vectors_out, 3);  // 1024 + 1024 + 452 rows
  EXPECT_EQ(sort.metrics.rows_out, 2500);
}

TEST_F(ExecModesSqlTest, SortReverseSortedInputPermutes) {
  CreateBig("rev", 2500, /*reverse=*/true);
  const std::string sql = "SELECT k, v FROM rev ORDER BY k";
  const ResultSet rs = ExpectModesAgree(sql);
  ASSERT_EQ(rs.NumRows(), 2500u);
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    ASSERT_EQ(rs.at(i, 0), Value::Int(static_cast<int64_t>(i) + 1));
  }
  EXPECT_EQ(VectorEntry(sql, "sort").detail, "presorted=0");
  // Descending over descending storage is in order again.
  const std::string desc = "SELECT k FROM rev ORDER BY k DESC";
  ExpectModesAgree(desc);
  EXPECT_EQ(VectorEntry(desc, "sort").detail, "presorted=1");
}

TEST_F(ExecModesSqlTest, SortDescAndMixedDirections) {
  ExpectModesAgree("SELECT a, b FROM t ORDER BY a DESC");
  ExpectModesAgree("SELECT s, a FROM t ORDER BY s, a DESC");
  ExpectModesAgree("SELECT s, a, b FROM t ORDER BY s DESC, b");
  // Many ties across 2 500 rows: v has seven distinct values, so the
  // second key breaks the ties in three vectors' worth of rows.
  CreateBig("big", 2500, /*reverse=*/false);
  ExpectModesAgree("SELECT k, v FROM big ORDER BY v DESC, k");
  ExpectModesAgree("SELECT k, v FROM big ORDER BY v, k DESC");
  EXPECT_EQ(VectorEntry("SELECT k, v FROM big ORDER BY v, k DESC", "sort")
                .detail,
            "presorted=0");
}

TEST_F(ExecModesSqlTest, SortKeepsIntegerDoubleTiesStable) {
  // COALESCE(x, i) is Double(x) where x is set and Int(i) elsewhere, so
  // the key holds Int(2) and Double(2.0) side by side; they compare
  // equal and must keep their input order.
  MustExecute(db_, "CREATE TABLE mix (id INTEGER, i INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO mix VALUES (1, 2, NULL), (2, 0, 2.0), "
              "(3, 0, 1.0), (4, 1, NULL), (5, 2, NULL), (6, NULL, NULL), "
              "(7, 0, 1.5), (8, 0, 2.0)");
  const ResultSet asc =
      ExpectModesAgree("SELECT id, COALESCE(x, i) AS k FROM mix ORDER BY k");
  const int64_t asc_ids[] = {6, 3, 4, 7, 1, 2, 5, 8};
  ASSERT_EQ(asc.NumRows(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(asc.at(i, 0), Value::Int(asc_ids[i])) << i;
  }
  EXPECT_EQ(asc.at(1, 1).type(), DataType::kDouble);
  EXPECT_EQ(asc.at(2, 1).type(), DataType::kInt64);
  const ResultSet desc = ExpectModesAgree(
      "SELECT id, COALESCE(x, i) AS k FROM mix ORDER BY k DESC");
  EXPECT_EQ(desc.at(0, 0), Value::Int(1));
  EXPECT_EQ(desc.at(3, 0), Value::Int(8));
  // Input already in order, ties of both tags included: passed through.
  MustExecute(db_, "CREATE TABLE ordered (id INTEGER, i INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO ordered VALUES (1, 1, NULL), (2, 0, 1.0), "
              "(3, 0, 2.0), (4, 2, NULL), (5, 3, NULL)");
  const std::string sql =
      "SELECT id, COALESCE(x, i) AS k FROM ordered ORDER BY k";
  const ResultSet same = ExpectModesAgree(sql);
  EXPECT_EQ(same.at(2, 1).type(), DataType::kDouble);
  EXPECT_EQ(same.at(3, 1).type(), DataType::kInt64);
  EXPECT_EQ(VectorEntry(sql, "sort").detail, "presorted=1");
}

TEST_F(ExecModesSqlTest, SortKeysWithoutAWeakOrderMatchTheRowSort) {
  // Value::Compare is not a strict weak order on these keys, so "no
  // adjacent pair inverted" does not mean "sorted": the row path's
  // stable_sort reorders both inputs, and the columnar sort must run the
  // same permutation instead of passing the input through.
  MustExecute(db_, "CREATE TABLE nan (id INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO nan VALUES (1, 2.0), (2, 1.0), (3, 1.0), "
              "(4, 1.0)");
  // Keys 2.0, NaN, 1.0, 1.0: a NaN neither precedes nor follows
  // anything.
  const std::string nan_sql =
      "SELECT id FROM nan ORDER BY CASE WHEN id = 2 THEN x * 1e308 * 10 - "
      "x * 1e308 * 10 ELSE x END";
  // Keys Int(2^53 + 1), Double(2^53), Int(2^53), Int(2^53 + 1): the
  // double equals both ints, which differ from each other.
  MustExecute(db_, "CREATE TABLE big53 (id INTEGER, i INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO big53 VALUES (1, 9007199254740993, NULL), "
              "(2, NULL, 9007199254740992.0), (3, 9007199254740992, NULL), "
              "(4, 9007199254740993, NULL)");
  const std::string big_sql =
      "SELECT id FROM big53 ORDER BY COALESCE(x, i)";
  const std::vector<std::pair<std::string, std::vector<int64_t>>> cases = {
      {nan_sql, {3, 4, 1, 2}}, {big_sql, {3, 1, 2, 4}}};
  for (const auto& [sql, ids] : cases) {
    const ResultSet rs = ExpectModesAgree(sql);
    ASSERT_EQ(rs.NumRows(), ids.size()) << sql;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(rs.at(i, 0), Value::Int(ids[i])) << sql << " row " << i;
    }
    EXPECT_EQ(VectorEntry(sql, "sort").detail, "presorted=0") << sql;
  }
}

TEST_F(ExecModesSqlTest, SortNullAndStringKeys) {
  ExpectModesAgree("SELECT s, a FROM t ORDER BY s");
  ExpectModesAgree("SELECT s, a FROM t ORDER BY s DESC, a");
  ExpectModesAgree("SELECT b, a FROM t ORDER BY b");
  ExpectModesAgree("SELECT b, a FROM t ORDER BY b DESC");
  // A computed key: evaluated per chunk instead of read from a column.
  ExpectModesAgree("SELECT a, b FROM t ORDER BY COALESCE(b, 0 - a), a");
}

TEST_F(ExecModesSqlTest, LimitOverSort) {
  CreateBig("big", 2500, /*reverse=*/false);
  ExpectModesAgree("SELECT k, v FROM big ORDER BY v DESC, k LIMIT 1500");
  ExpectModesAgree("SELECT k FROM big ORDER BY k LIMIT 1030");
  ExpectModesAgree("SELECT k FROM big ORDER BY k DESC LIMIT 3");
  ExpectModesAgree("SELECT k FROM big ORDER BY v LIMIT 0");
}

TEST_F(ExecModesSqlTest, SortKeyErrorsAgreeAcrossModes) {
  // Row a = 2 (the second row) fails on the second key, row a = 4 (the
  // fourth) on the first. The vector path evaluates the first key over
  // the whole chunk first, yet must raise the row path's error: the
  // first in (row, key) order.
  for (const std::string& sql :
       {std::string("SELECT a FROM t ORDER BY 10 / (a - 2)"),
        std::string("SELECT a FROM t ORDER BY MOD(1, a - 4), 1 / (a - 2)")}) {
    db_.options().exec.use_vectorized_execution = true;
    const Result<ResultSet> vec = db_.Execute(sql);
    db_.options().exec.use_vectorized_execution = false;
    const Result<ResultSet> row = db_.Execute(sql);
    db_.options().exec.use_vectorized_execution = true;
    ASSERT_FALSE(vec.ok()) << sql;
    ASSERT_FALSE(row.ok()) << sql;
    EXPECT_EQ(row.status().ToString(),
              Status::ExecutionError("division by zero").ToString());
    EXPECT_EQ(vec.status().ToString(), row.status().ToString()) << sql;
  }
}

// ---------------------------------------------------------------------
// The columnar hash aggregate: groups kept in output lanes, flat
// accumulators, tag-exact finished values.
// ---------------------------------------------------------------------

TEST_F(ExecModesSqlTest, AggregateGroupsSpanSeveralOutputVectors) {
  CreateBig("big", 2500, /*reverse=*/false);
  const std::string sql = "SELECT k, COUNT(*), SUM(v) FROM big GROUP BY k";
  const ResultSet rs = ExpectModesAgree(sql);
  ASSERT_EQ(rs.NumRows(), 2500u);
  EXPECT_EQ(rs.at(1024, 0), Value::Int(1025));
  const OperatorMetricsEntry agg = VectorEntry(sql, "hash_aggregate");
  EXPECT_EQ(agg.metrics.vectors_out, 3);
  EXPECT_EQ(agg.metrics.rows_out, 2500);
  // Generic (non-int) keys past one vector of groups, in reverse input.
  CreateBig("rev", 2500, /*reverse=*/true);
  ExpectModesAgree("SELECT k * 0.5, MIN(v), MAX(k) FROM rev GROUP BY k * 0.5");
  ExpectModesAgree("SELECT k, v, COUNT(*) FROM rev GROUP BY k, v");
}

TEST_F(ExecModesSqlTest, AggregateNullGroup) {
  MustExecute(db_, "CREATE TABLE nk (g INTEGER, x INTEGER)");
  MustExecute(db_,
              "INSERT INTO nk VALUES (NULL, 1), (2, 2), (NULL, 3), (1, 4), "
              "(2, 5), (NULL, NULL)");
  const ResultSet rs = ExpectModesAgree(
      "SELECT g, COUNT(*), COUNT(x), SUM(x) FROM nk GROUP BY g");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_TRUE(rs.at(0, 0).is_null());  // first seen, first out
  EXPECT_EQ(rs.at(0, 1), Value::Int(3));
  EXPECT_EQ(rs.at(0, 2), Value::Int(2));
  EXPECT_EQ(rs.at(0, 3), Value::Int(4));
}

TEST_F(ExecModesSqlTest, AggregateMigratesFromIntKeysMidVector) {
  // The key COALESCE(x, g) is Int(i % 50) on 1 500 rows, except row 700,
  // whose Double(3.0) must join Int(3)'s group after the migration to
  // the generic lookup, and row 1200, whose 7.5 opens a new group.
  MustExecute(db_, "CREATE TABLE mig (x DOUBLE, g INTEGER, y INTEGER)");
  std::string insert = "INSERT INTO mig VALUES ";
  for (int i = 1; i <= 1500; ++i) {
    const std::string x = i == 700 ? "3.0" : i == 1200 ? "7.5" : "NULL";
    insert += (i > 1 ? ", (" : "(") + x + ", " + std::to_string(i % 50) +
              ", " + std::to_string(i) + ")";
  }
  MustExecute(db_, insert);
  const ResultSet rs = ExpectModesAgree(
      "SELECT COALESCE(x, g), COUNT(*), SUM(y), MIN(y) FROM mig "
      "GROUP BY COALESCE(x, g)");
  ASSERT_EQ(rs.NumRows(), 51u);
  EXPECT_EQ(rs.at(2, 0), Value::Int(3));  // the first key seen
  EXPECT_EQ(rs.at(2, 0).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(2, 1), Value::Int(31));
  EXPECT_EQ(rs.at(49, 0), Value::Int(0));
  EXPECT_EQ(rs.at(49, 1), Value::Int(28));
  EXPECT_EQ(rs.at(50, 0), Value::Double(7.5));
  EXPECT_EQ(rs.at(50, 0).type(), DataType::kDouble);
}

TEST_F(ExecModesSqlTest, GlobalAggregateOverEmptyInput) {
  const ResultSet rs = ExpectModesAgree(
      "SELECT COUNT(*), COUNT(b), SUM(a), AVG(b), MIN(s), MAX(a) FROM t "
      "WHERE a > 100");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(0, 0), Value::Int(0));
  EXPECT_EQ(rs.at(0, 1), Value::Int(0));
  for (size_t c = 2; c < 6; ++c) EXPECT_TRUE(rs.at(0, c).is_null()) << c;
  EXPECT_EQ(ExpectModesAgree(
                "SELECT a, COUNT(*) FROM t WHERE a > 100 GROUP BY a")
                .NumRows(),
            0u);
}

TEST_F(ExecModesSqlTest, AggregateOutputTagsAreExact) {
  const ResultSet rs = ExpectModesAgree(
      "SELECT s, COUNT(*), COUNT(b), MIN(a), MAX(b), AVG(a), MIN(s), "
      "MAX(s), SUM(a), SUM(b) FROM t GROUP BY s");
  ASSERT_EQ(rs.NumRows(), 4u);  // 'x', 'y', NULL, 'z' in input order
  EXPECT_EQ(rs.at(0, 1).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(0, 3).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(0, 4).type(), DataType::kDouble);
  EXPECT_EQ(rs.at(0, 5).type(), DataType::kDouble);
  EXPECT_EQ(rs.at(0, 6).type(), DataType::kString);
  EXPECT_EQ(rs.at(0, 8).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(0, 9).type(), DataType::kDouble);
  EXPECT_TRUE(rs.at(2, 6).is_null());  // MIN(s) of the NULL-s group
  // MIN/MAX keep the winning cell's own tag over mixed arguments.
  MustExecute(db_, "CREATE TABLE mm (g INTEGER, i INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO mm VALUES (1, 2, NULL), (1, 0, 2.0), "
              "(1, 0, 1.0), (2, 5, NULL), (2, 0, 4.5)");
  const ResultSet mm = ExpectModesAgree(
      "SELECT g, MIN(COALESCE(x, i)), MAX(COALESCE(x, i)), "
      "AVG(COALESCE(x, i)), COUNT(COALESCE(x, i)) FROM mm GROUP BY g");
  EXPECT_EQ(mm.at(0, 1).type(), DataType::kDouble);  // 1.0
  EXPECT_EQ(mm.at(0, 2).type(), DataType::kInt64);   // the first 2
  EXPECT_EQ(mm.at(1, 2).type(), DataType::kInt64);   // 5
  EXPECT_EQ(mm.at(0, 3).type(), DataType::kDouble);
  EXPECT_EQ(mm.at(0, 4), Value::Int(3));
}

// ---------------------------------------------------------------------
// Vector-native joins: HashJoinOp's bulk-hashed build/probe and
// MergeBandJoinOp's gathered candidate runs, driven directly through
// NextVector. Covers the edge shapes the fuzz oracles reach only by
// chance: empty build side, all-probe-miss, duplicate-key chains
// spilling across output vectors, capacity-1 outputs, and the
// nonempty-final-vector EOF contract.
// ---------------------------------------------------------------------

class VectorJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE build (k INTEGER, w DOUBLE)");
    MustExecute(db_, "CREATE TABLE probe (k INTEGER, v DOUBLE)");
  }

  void Insert(const std::string& table, const std::string& values) {
    MustExecute(db_, "INSERT INTO " + table + " VALUES " + values);
  }

  PhysicalOperatorPtr Scan(const std::string& name) {
    Result<Table*> t = db_.catalog()->GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    auto scan = std::make_unique<TableScanOp>((*t)->schema(), *t);
    scan->SetVectorized(true);
    return scan;
  }

  // probe JOIN build ON probe.k = build.k; output (p.k, p.v, b.k, b.w).
  std::unique_ptr<HashJoinOp> MakeHashJoin(JoinType join_type,
                                           ExprPtr residual = nullptr) {
    Schema joined({ColumnDef("pk", DataType::kInt64),
                   ColumnDef("pv", DataType::kDouble),
                   ColumnDef("bk", DataType::kInt64),
                   ColumnDef("bw", DataType::kDouble)});
    std::vector<ExprPtr> left_keys;
    left_keys.push_back(eb::Col(0, DataType::kInt64));
    std::vector<ExprPtr> right_keys;
    right_keys.push_back(eb::Col(0, DataType::kInt64));
    auto join = std::make_unique<HashJoinOp>(
        std::move(joined), Scan("probe"), Scan("build"),
        std::move(left_keys), std::move(right_keys), std::move(residual),
        join_type);
    join->SetVectorized(true);
    return join;
  }

  // Drains `op` through NextVector, materializing every selected lane;
  // asserts the NextVector contract (rows without eof, then nullptr
  // with eof, also on a post-eof pull).
  std::vector<Row> DrainVectors(PhysicalOperator* op) {
    EXPECT_TRUE(op->Open().ok());
    std::vector<Row> rows;
    while (true) {
      VectorProjection* vp = nullptr;
      bool eof = false;
      const Status status = op->NextVector(&vp, &eof);
      EXPECT_TRUE(status.ok()) << status.ToString();
      if (eof || !status.ok()) break;
      EXPECT_GT(vp->NumSelected(), 0u);
      vp->AppendSelectedTo(&rows);
    }
    VectorProjection* vp = nullptr;
    bool eof = false;
    EXPECT_TRUE(op->NextVector(&vp, &eof).ok());
    EXPECT_EQ(vp, nullptr);
    EXPECT_TRUE(eof);
    return rows;
  }

  Database db_;
};

TEST_F(VectorJoinTest, EmptyBuildSideInnerYieldsNothing) {
  Insert("probe", "(1, 10), (2, 20), (3, 30)");
  auto join = MakeHashJoin(JoinType::kInner);
  EXPECT_TRUE(DrainVectors(join.get()).empty());
}

TEST_F(VectorJoinTest, EmptyBuildSideLeftOuterNullPads) {
  Insert("probe", "(1, 10), (2, 20)");
  auto join = MakeHashJoin(JoinType::kLeftOuter);
  const std::vector<Row> rows = DrainVectors(join.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_TRUE(rows[0][3].is_null());
  EXPECT_EQ(rows[1][0], Value::Int(2));
  EXPECT_TRUE(rows[1][3].is_null());
}

TEST_F(VectorJoinTest, AllProbeMissInnerYieldsNothing) {
  Insert("build", "(100, 1), (200, 2)");
  Insert("probe", "(1, 10), (2, 20), (3, 30)");
  auto join = MakeHashJoin(JoinType::kInner);
  EXPECT_TRUE(DrainVectors(join.get()).empty());
}

TEST_F(VectorJoinTest, NullKeysNeverMatchButLeftOuterPads) {
  Insert("build", "(NULL, 1), (2, 2)");
  Insert("probe", "(NULL, 10), (2, 20)");
  {
    auto join = MakeHashJoin(JoinType::kInner);
    const std::vector<Row> rows = DrainVectors(join.get());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0], Value::Int(2));
    EXPECT_EQ(rows[0][2], Value::Int(2));
  }
  {
    auto join = MakeHashJoin(JoinType::kLeftOuter);
    const std::vector<Row> rows = DrainVectors(join.get());
    ASSERT_EQ(rows.size(), 2u);  // NULL probe row survives null-padded
  }
}

TEST_F(VectorJoinTest, DuplicateKeyChainsSpillAcrossOutputVectors) {
  // 3 probe rows × 5 duplicate build keys = 15 matches; capacity 4
  // forces the probe rows' candidate runs to split mid-vector, and the
  // body's final vector (3 rows) to arrive together with the probe
  // side's eof, which the shell reports on the call after it.
  Insert("build", "(7, 1), (7, 2), (7, 3), (7, 4), (7, 5)");
  Insert("probe", "(7, 10), (7, 20), (7, 30)");
  auto join = MakeHashJoin(JoinType::kInner);
  join->SetVectorOutputCapacityForTest(4);
  ASSERT_TRUE(join->Open().ok());
  std::vector<Row> rows;
  std::vector<size_t> sizes;
  while (true) {
    VectorProjection* vp = nullptr;
    bool eof = false;
    ASSERT_TRUE(join->NextVector(&vp, &eof).ok());
    if (eof) {
      EXPECT_EQ(vp, nullptr);
      break;
    }
    ASSERT_NE(vp, nullptr);
    sizes.push_back(vp->NumSelected());
    vp->AppendSelectedTo(&rows);
  }
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 4, 3}));
  EXPECT_EQ(join->metrics().next_calls, 5);
  // Chains preserve build arrival order per probe row (w ascending),
  // and probe rows surface in probe order.
  EXPECT_EQ(rows[0][3], Value::Double(1));
  EXPECT_EQ(rows[4][3], Value::Double(5));
  EXPECT_EQ(rows[5][1], Value::Double(20));
}

TEST_F(VectorJoinTest, CapacityOneVectorsDrainEverything) {
  Insert("build", "(1, 1), (2, 2), (2, 3)");
  Insert("probe", "(2, 20), (1, 10), (9, 90)");
  auto join = MakeHashJoin(JoinType::kLeftOuter);
  join->SetVectorOutputCapacityForTest(1);
  const std::vector<Row> rows = DrainVectors(join.get());
  ASSERT_EQ(rows.size(), 4u);  // 2 matches for k=2, 1 for k=1, 1 padded
  EXPECT_EQ(rows[0][3], Value::Double(2));
  EXPECT_EQ(rows[1][3], Value::Double(3));
  EXPECT_EQ(rows[2][0], Value::Int(1));
  EXPECT_TRUE(rows[3][3].is_null());  // k=9 null-padded
}

TEST_F(VectorJoinTest, ResidualFiltersCandidates) {
  Insert("build", "(5, 1), (5, 2), (5, 3)");
  Insert("probe", "(5, 50)");
  // Residual over the joined row: build.w >= 2 (column 3 of output).
  auto join = MakeHashJoin(
      JoinType::kInner,
      eb::Ge(eb::Col(3, DataType::kDouble), eb::Dbl(2.0)));
  const std::vector<Row> rows = DrainVectors(join.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][3], Value::Double(2));
  EXPECT_EQ(rows[1][3], Value::Double(3));
}

TEST_F(VectorJoinTest, RowAndVectorPathsAgreeOnForcedHashJoinSql) {
  Insert("build", "(1, 1), (2, 2), (2, 3), (NULL, 4), (5, 5)");
  Insert("probe",
         "(2, 20), (2, 21), (1, 10), (NULL, 0), (7, 70), (5, 50)");
  // Forcing the planner away from index nested loops routes these
  // through HashJoinOp in every mode.
  db_.options().exec.enable_index_nested_loop_join = false;
  const char* queries[] = {
      "SELECT p.k, p.v, b.w FROM probe p JOIN build b ON p.k = b.k "
      "ORDER BY 1, 2, 3",
      "SELECT p.k, p.v, b.w FROM probe p LEFT OUTER JOIN build b ON "
      "p.k = b.k ORDER BY 2, 3",
      "SELECT p.k, COUNT(*) FROM probe p JOIN build b ON p.k = b.k "
      "GROUP BY p.k ORDER BY 1",
  };
  for (const char* sql : queries) {
    db_.options().exec.use_vectorized_execution = true;
    const ResultSet vec = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = false;
    const ResultSet row = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = true;
    EXPECT_TRUE(testutil::RowsEqual(vec, row)) << sql;
  }
}

// Band join vector path: the same capacity/EOF edges through SQL-level
// band-shaped self joins (direct construction is covered by the band
// join's own suite; here the vector output path is the subject).
class VectorBandJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE seq (pos INTEGER, val DOUBLE)");
    std::string values;
    for (int i = 1; i <= 40; ++i) {
      if (i > 1) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i * 10) +
                ")";
    }
    MustExecute(db_, "INSERT INTO seq VALUES " + values);
  }

  void ExpectVectorMatchesRow(const std::string& sql) {
    db_.options().exec.use_vectorized_execution = true;
    const ResultSet vec = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = false;
    const ResultSet row = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = true;
    EXPECT_TRUE(testutil::RowsEqual(vec, row)) << sql;
  }

  Database db_;
};

TEST_F(VectorBandJoinTest, BandShapesAgreeAcrossModes) {
  ExpectVectorMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE s2.pos "
      "BETWEEN s1.pos - 3 AND s1.pos + 3 GROUP BY s1.pos ORDER BY 1");
  ExpectVectorMatchesRow(
      "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos IN "
      "(s1.pos - 1, s1.pos, s1.pos + 1) ORDER BY 1, 2");
  ExpectVectorMatchesRow(
      "SELECT s1.pos, COUNT(*) FROM seq s1, seq s2 WHERE s2.pos < s1.pos "
      "AND MOD(s2.pos, 4) = MOD(s1.pos, 4) GROUP BY s1.pos ORDER BY 1");
}

// ---------------------------------------------------------------------
// SUM fold: a SUM-only aggregate on a vectorized inner band join takes
// one (sum, count) partial per left row. Row mode (no fold) is the
// reference, compared bit for bit: every group below gets its
// candidates from one left row, so even fractional double sums must
// agree exactly.
// ---------------------------------------------------------------------

/// Type tags and payload bits equal (Value::Compare would let Int(2)
/// match Double(2.0) and hide a rounding step).
::testing::AssertionResult BitIdentical(const ResultSet& a,
                                        const ResultSet& b) {
  if (a.NumRows() != b.NumRows()) {
    return ::testing::AssertionFailure()
           << a.NumRows() << " rows vs " << b.NumRows();
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    const Row& x = a.rows()[r];
    const Row& y = b.rows()[r];
    for (size_t c = 0; c < x.size(); ++c) {
      bool same = x[c].type() == y[c].type();
      if (same && x[c].type() == DataType::kDouble) {
        const double dx = x[c].AsDouble();
        const double dy = y[c].AsDouble();
        same = std::memcmp(&dx, &dy, sizeof(double)) == 0;
      } else if (same) {
        same = x[c].Compare(y[c]) == 0;
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << ": " << x[c].ToString()
               << " vs " << y[c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

class BandFoldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A complete-sequence-shaped table (positions -4..60) with
    // fractional values, so summation order shows in the last bits.
    MustExecute(db_, "CREATE TABLE vx (pos INTEGER, val DOUBLE)");
    MustExecute(db_, "CREATE TABLE vi (pos INTEGER, val INTEGER, f DOUBLE)");
    std::string dvals;
    std::string ivals;
    for (int p = -4; p <= 60; ++p) {
      if (p > -4) {
        dvals += ", ";
        ivals += ", ";
      }
      dvals += "(" + std::to_string(p) + ", " +
               std::to_string(p * 0.37 + 1.0 / 3.0) + ")";
      ivals += "(" + std::to_string(p) + ", " + std::to_string(p * 7 - 50) +
               ", " + std::to_string(p * 0.25 - 0.1) + ")";
    }
    MustExecute(db_, "INSERT INTO vx VALUES " + dvals);
    MustExecute(db_, "INSERT INTO vi VALUES " + ivals);
    // Integral DOUBLE values: the prefix path's domain.
    MustExecute(db_, "CREATE TABLE vn (pos INTEGER, val DOUBLE)");
    MustExecute(db_, "INSERT INTO vn VALUES " + IntegralRows(-4, 60));
  }

  /// "(p, v), ..." for p in [from, to] with small integral values.
  static std::string IntegralRows(int from, int to) {
    std::string rows;
    for (int p = from; p <= to; ++p) {
      if (p > from) rows += ", ";
      rows += "(" + std::to_string(p) + ", " +
              std::to_string((p * 37 + 11) % 23 - 11) + ")";
    }
    return rows;
  }

  void SetRowMode(bool row) {
    db_.options().exec.use_vectorized_execution = !row;
  }

  /// The folding join's EXPLAIN ANALYZE counters.
  struct FoldStats {
    bool folds = false;
    int64_t rows = 0;    ///< partial rows emitted
    int64_t prefix = 0;  ///< of those, answered from prefix sums
  };

  FoldStats Explain(const std::string& sql) {
    const ResultSet rs = MustExecute(db_, "EXPLAIN ANALYZE " + sql);
    FoldStats stats;
    for (const OperatorMetricsEntry& e : rs.metrics()) {
      const size_t at = e.detail.find("prefix=");
      if (e.detail.find("fold=sum") == std::string::npos ||
          at == std::string::npos) {
        continue;
      }
      stats.folds = true;
      stats.rows = e.metrics.rows_out;
      stats.prefix = std::stoll(e.detail.substr(at + 7));
    }
    return stats;
  }

  bool Folds(const std::string& sql) { return Explain(sql).folds; }

  /// Builds `sql`'s physical plan into *op and returns its merge band
  /// join (nullptr when there is none).
  MergeBandJoinOp* BuildBandJoinPlan(const std::string& sql,
                                     PhysicalOperatorPtr* op) {
    *op = BuildSqlPlan(&db_, sql);
    return *op != nullptr ? FindOp<MergeBandJoinOp>(op->get()) : nullptr;
  }

  // Vector mode folds and agrees bit for bit with row mode, which does
  // not fold.
  FoldStats ExpectFoldMatchesRow(const std::string& sql) {
    SetRowMode(false);
    const FoldStats stats = Explain(sql);
    EXPECT_TRUE(stats.folds) << sql;
    const ResultSet vec = MustExecute(db_, sql);
    SetRowMode(true);
    EXPECT_FALSE(Folds(sql)) << sql;
    const ResultSet row = MustExecute(db_, sql);
    SetRowMode(false);
    EXPECT_TRUE(BitIdentical(vec, row)) << sql;
    return stats;
  }

  // ... and every partial row came from prefix sums.
  void ExpectPrefixMatchesRow(const std::string& sql) {
    const FoldStats stats = ExpectFoldMatchesRow(sql);
    EXPECT_GT(stats.rows, 0) << sql;
    EXPECT_EQ(stats.prefix, stats.rows) << sql;
  }

  // ... and every partial row came from the candidate walk.
  void ExpectWalkMatchesRow(const std::string& sql) {
    const FoldStats stats = ExpectFoldMatchesRow(sql);
    EXPECT_GT(stats.rows, 0) << sql;
    EXPECT_EQ(stats.prefix, 0) << sql;
  }

  void ExpectUnfolded(const std::string& sql) {
    SetRowMode(false);
    EXPECT_FALSE(Folds(sql)) << sql;
  }

  Database db_;
};

TEST_F(BandFoldTest, MinoaNonCoincidentClass) {
  MinoaParams params;  // (Δl + Δh) mod w_x != 0: two signed chains
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  ExpectFoldMatchesRow(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
  params.delta_l = -2;  // raw-from-sliding shape: negative deltas
  params.delta_h = -1;
  ExpectFoldMatchesRow(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, MinoaCoincidentClass) {
  MinoaParams params;  // Δl + Δh = w_x: one bounded positive chain
  params.delta_l = 2;
  params.delta_h = 2;
  params.wx = 4;
  ExpectFoldMatchesRow(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, MinoaCumulative) {
  const WindowSpec view = WindowSpec::SlidingUnchecked(2, 1);
  ExpectFoldMatchesRow(MinoaCumulativeSql("vx", view, 50) + " ORDER BY 1");
}

TEST_F(BandFoldTest, Fig2BetweenSelfJoin) {
  ExpectFoldMatchesRow(SelfJoinWindowSql("vx", "pos", "val",
                                         WindowSpec::SlidingUnchecked(3, 2),
                                         /*use_in_predicate=*/false) +
                       " ORDER BY 1");
}

TEST_F(BandFoldTest, LeftRowsWithoutCandidatesMakeNoGroup) {
  // Keys past 60 have no partner; they must not appear at all.
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos + 50 AND s1.pos + 52 GROUP BY s1.pos ORDER BY 1");
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos + 500 AND s1.pos + 502 GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, AllNullValueRunsGiveNullSums) {
  MustExecute(db_, "CREATE TABLE nv (pos INTEGER, val DOUBLE)");
  MustExecute(db_,
              "INSERT INTO nv VALUES (1, NULL), (2, NULL), (3, 1.5), "
              "(4, NULL), (5, NULL), (6, NULL), (7, 2.25)");
  const std::string sql =
      "SELECT s1.pos, SUM(s2.val), SUM((-1) * s2.val) FROM nv s1, nv s2 "
      "WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos "
      "ORDER BY 1";
  ExpectFoldMatchesRow(sql);
  const ResultSet rs = MustExecute(db_, sql);
  ASSERT_EQ(rs.NumRows(), 7u);
  EXPECT_TRUE(rs.rows()[4][1].is_null());  // pos 5: runs 4..6 all NULL
  EXPECT_EQ(rs.rows()[3][1], Value::Double(1.5));
}

TEST_F(BandFoldTest, Int64DoubleAndMixedTagValues) {
  // INTEGER sum with literal factors.
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(2 * s2.val), SUM(-(s2.val * 3)) FROM vi s1, vi s2 "
      "WHERE s2.pos BETWEEN s1.pos - 2 AND s1.pos + 1 GROUP BY s1.pos "
      "ORDER BY 1");
  // int64 cells times a left-side double factor, and a CASE whose
  // branches yield int64 and double values for the same SUM.
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s1.f * s2.val), SUM(CASE WHEN MOD(s1.pos, 3) = "
      "MOD(s2.pos, 3) THEN 2 * s2.val ELSE 0.5 * s2.val END) FROM vi s1, "
      "vi s2 WHERE (s2.pos < s1.pos AND MOD(s2.pos, 3) = MOD(s1.pos, 3)) "
      "OR (s2.pos <= s1.pos + 4 AND MOD(s2.pos, 3) = MOD(s1.pos + 1, 3)) "
      "GROUP BY s1.pos ORDER BY 1");
  // Double cells: negation, a factor after a negation, and nested
  // multiplications (kept in the row path's order).
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(-s2.val), SUM(0.3 * (-s2.val)), "
      "SUM(3 * (-(2 * s2.val))) FROM vx s1, vx s2 WHERE "
      "s2.pos BETWEEN s1.pos AND s1.pos + 4 GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, DuplicateLeftKeysCombinePartials) {
  // Two left rows per key: each group combines two partials. Integer
  // values keep the reassociated double sum exact.
  MustExecute(db_, "CREATE TABLE dup (pos INTEGER, val DOUBLE)");
  MustExecute(db_,
              "INSERT INTO dup VALUES (1, 1), (2, -2), (1, 3), (3, 4), "
              "(2, 5), (4, 6), (3, -7)");
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM dup s1, dup s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, BandWithResidual) {
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos - 3 AND s1.pos + 3 AND s2.val > s1.val GROUP BY s1.pos "
      "ORDER BY 1");
  // Two tagged bands whose candidates a residual thins out: the band
  // tags must stay aligned with the surviving candidates.
  MinoaParams params;
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  std::string sql = MinoaSql("vx", params, 50, false);
  sql.replace(sql.find(" GROUP BY"), 0, " AND MOD(s1.pos + s2.pos, 5) <> 2");
  ExpectFoldMatchesRow(sql + " ORDER BY 1");
}

TEST_F(BandFoldTest, CapacityOneOutputVectors) {
  MinoaParams params;
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  const std::string sql = MinoaSql("vx", params, 50, false) + " ORDER BY 1";
  // Shrink the folding band join's output vectors.
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
  ASSERT_NE(band, nullptr);
  ASSERT_TRUE(band->folding());
  band->SetVectorOutputCapacityForTest(1);
  Result<std::vector<Row>> rows = ExecuteToVector(op.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(band->metrics().vectors_out, 50);  // one partial per vector

  SetRowMode(true);
  const ResultSet reference = MustExecute(db_, sql);
  ASSERT_EQ(rows->size(), reference.NumRows());
  for (size_t r = 0; r < rows->size(); ++r) {
    EXPECT_EQ((*rows)[r], reference.rows()[r]) << "row " << r;
  }
}

TEST_F(BandFoldTest, RightSideLargerThanOneVector) {
  // 1,500 rows: left input, right side and partial rows all cross the
  // 1,024-row vector boundary.
  MustExecute(db_, "CREATE TABLE big (pos INTEGER, val DOUBLE)");
  std::string values;
  for (int p = 1; p <= 1500; ++p) {
    if (p > 1) values += ", ";
    values += "(" + std::to_string(p) + ", " +
              std::to_string((p % 17) * 0.13 - 1.0) + ")";
  }
  MustExecute(db_, "INSERT INTO big VALUES " + values);
  ExpectFoldMatchesRow(SelfJoinWindowSql("big", "pos", "val",
                                         WindowSpec::SlidingUnchecked(40, 2),
                                         /*use_in_predicate=*/false) +
                       " ORDER BY 1");
  MinoaParams params;
  params.delta_l = 3;
  params.delta_h = 0;
  params.wx = 7;
  ExpectFoldMatchesRow(MinoaSql("big", params, 1490, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, CongruenceConditionOnNullAnchor) {
  // The CASE anchor is a column the band does not read, so a left row
  // with candidates can still have a NULL anchor: the condition is then
  // NULL and every candidate takes the ELSE branch.
  MustExecute(db_, "CREATE TABLE na (pos INTEGER, k INTEGER)");
  MustExecute(db_,
              "INSERT INTO na VALUES (9, 3), (10, NULL), (11, 5), "
              "(12, NULL), (13, 2), (14, 7)");
  ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(CASE WHEN MOD(s2.pos, 2) = MOD(s1.k, 2) THEN "
      "s2.val ELSE -s2.val END) FROM na s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos - 8 AND s1.pos AND MOD(s2.pos, 4) = MOD(s1.pos, 4) "
      "GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, NonQualifyingPlansStayUnfolded) {
  ExpectUnfolded(
      "SELECT s1.pos, COUNT(*) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos");
  ExpectUnfolded(
      "SELECT s1.pos, AVG(s2.val) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos");
  ExpectUnfolded(
      "SELECT s1.pos, SUM(s2.val) FROM vx s1 LEFT OUTER JOIN vx s2 ON "
      "s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos");
  // A group key reading the right side.
  ExpectUnfolded(
      "SELECT s2.pos, SUM(s2.val) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s2.pos");
  // MaxOA's CASE compares the band key itself, not just its residue.
  MaxoaParams maxoa;
  maxoa.delta_l = 1;
  maxoa.delta_h = 0;
  maxoa.delta_p = 3;
  maxoa.delta_q = 4;
  ExpectUnfolded(MaxoaSql("vx", maxoa, 50, false));
  // Row mode keeps the per-candidate path.
  SetRowMode(true);
  EXPECT_FALSE(Folds(SelfJoinWindowSql("vx", "pos", "val",
                                       WindowSpec::SlidingUnchecked(1, 1),
                                       false)));
}

// ---------------------------------------------------------------------
// Prefix path: with integral values inside the exact range, each
// (left row, band) chain sum is a difference of two strided prefix sums
// (DESIGN.md §16 "Prefix path"). EXPLAIN ANALYZE's prefix= shows which
// rows took it; every other row walks its candidates as before.
// ---------------------------------------------------------------------

TEST_F(BandFoldTest, PrefixSumsAnswerIntegralChains) {
  MinoaParams params;
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  ExpectPrefixMatchesRow(MinoaSql("vn", params, 50, false) + " ORDER BY 1");
  params.delta_l = -2;
  params.delta_h = -1;
  ExpectPrefixMatchesRow(MinoaSql("vn", params, 50, false) + " ORDER BY 1");
  params.delta_l = 2;  // coincident classes: one bounded chain
  params.delta_h = 2;
  ExpectPrefixMatchesRow(MinoaSql("vn", params, 50, false) + " ORDER BY 1");
  ExpectPrefixMatchesRow(
      MinoaCumulativeSql("vn", WindowSpec::SlidingUnchecked(2, 1), 50) +
      " ORDER BY 1");
  for (const bool in_predicate : {false, true}) {
    ExpectPrefixMatchesRow(SelfJoinWindowSql(
                               "vn", "pos", "val",
                               WindowSpec::SlidingUnchecked(3, 2),
                               in_predicate) +
                           " ORDER BY 1");
  }
  // INTEGER sums with integer factors, and a DOUBLE sum of int64 cells.
  ExpectPrefixMatchesRow(
      "SELECT s1.pos, SUM(2 * s2.val), SUM(-(s2.val * 3)), "
      "SUM(CASE WHEN MOD(s1.pos, 3) = MOD(s2.pos, 3) THEN s2.val ELSE "
      "2.0 * s2.val END) FROM vi s1, vi s2 WHERE (s2.pos < s1.pos AND "
      "MOD(s2.pos, 3) = MOD(s1.pos, 3)) OR (s2.pos <= s1.pos + 4 AND "
      "MOD(s2.pos, 3) = MOD(s1.pos + 1, 3)) GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, PrefixSumsSkipNullCells) {
  MustExecute(db_, "CREATE TABLE nn (pos INTEGER, val DOUBLE)");
  MustExecute(db_,
              "INSERT INTO nn VALUES (1, NULL), (2, 4), (3, NULL), "
              "(4, NULL), (5, NULL), (6, -3), (7, 8), (8, NULL)");
  const std::string sql =
      "SELECT s1.pos, SUM(s2.val), SUM((-1) * s2.val) FROM nn s1, nn s2 "
      "WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos "
      "ORDER BY 1";
  ExpectPrefixMatchesRow(sql);
  const ResultSet rs = MustExecute(db_, sql);
  ASSERT_EQ(rs.NumRows(), 8u);
  EXPECT_TRUE(rs.rows()[3][1].is_null());  // pos 4: band 3..5 all NULL
  EXPECT_EQ(rs.rows()[0][1], Value::Double(4));
  EXPECT_EQ(rs.rows()[6][2], Value::Double(-5));
  // A chain of NULLs only, in both classes of a MinOA.
  MinoaParams params;
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  ExpectPrefixMatchesRow(MinoaSql("nn", params, 8, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, PrefixNullFactorGivesNullSum) {
  // A NULL left factor makes the argument NULL on every candidate: the
  // group exists, its SUM is NULL.
  MustExecute(db_, "CREATE TABLE nf (pos INTEGER, k INTEGER)");
  MustExecute(db_,
              "INSERT INTO nf VALUES (3, 2), (4, NULL), (5, -3), (6, NULL)");
  const std::string sql =
      "SELECT s1.pos, SUM(s1.k * s2.val), SUM(s2.val) FROM nf s1, vn s2 "
      "WHERE s2.pos BETWEEN s1.pos - 2 AND s1.pos GROUP BY s1.pos "
      "ORDER BY 1";
  ExpectPrefixMatchesRow(sql);
  const ResultSet rs = MustExecute(db_, sql);
  ASSERT_EQ(rs.NumRows(), 4u);
  EXPECT_TRUE(rs.rows()[1][1].is_null());
  EXPECT_FALSE(rs.rows()[1][2].is_null());
  EXPECT_FALSE(rs.rows()[2][1].is_null());
}

TEST_F(BandFoldTest, PrefixLeafErrorsMatchRowMode) {
  // Leaf factors that fail on some left rows: the first failing row in
  // row order (pos 2, MOD by zero, before pos 3's division by zero)
  // raises its error in every mode, though the rows before it take the
  // prefix path.
  const std::string sql =
      "SELECT s1.pos, SUM((1 / (s1.pos - 3)) * s2.val), SUM(MOD(1, s1.pos "
      "- 2) * s2.val) FROM vn s1, vn s2 WHERE s2.pos BETWEEN s1.pos - 1 AND "
      "s1.pos + 1 GROUP BY s1.pos";
  SetRowMode(true);
  Result<ResultSet> row = db_.Execute(sql);
  SetRowMode(false);
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
  ASSERT_NE(band, nullptr);
  ASSERT_TRUE(band->folding());
  Result<std::vector<Row>> folded = ExecuteToVector(op.get());
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(row.status().ToString(),
            Status::ExecutionError("MOD by zero").ToString());
  EXPECT_EQ(folded.status().ToString(), row.status().ToString());
  Result<ResultSet> vec = db_.Execute(sql);
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().ToString(), row.status().ToString());
}

TEST_F(BandFoldTest, PrefixRowsWithEmptyBandsMakeNoGroup) {
  // Keys past 60 have no partner, and a NULL bound empties the band:
  // neither left row may produce a group or count as a prefix row.
  const FoldStats stats = ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE s2.pos BETWEEN "
      "s1.pos + 50 AND s1.pos + 52 GROUP BY s1.pos ORDER BY 1");
  EXPECT_EQ(stats.rows, 15);  // s1.pos -4..10
  EXPECT_EQ(stats.prefix, 15);
  MustExecute(db_, "CREATE TABLE nb (pos INTEGER, k INTEGER)");
  MustExecute(db_,
              "INSERT INTO nb VALUES (1, 3), (2, NULL), (3, 90), (4, 7), "
              "(5, NULL)");
  const FoldStats nb = ExpectFoldMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM nb s1, vn s2 WHERE s2.pos BETWEEN "
      "s1.k - 2 AND s1.k GROUP BY s1.pos ORDER BY 1");
  EXPECT_EQ(nb.rows, 2);  // only k = 3 and k = 7 meet keys
  EXPECT_EQ(nb.prefix, 2);
}

TEST_F(BandFoldTest, PrefixLeftInputCrossesVectorBoundary) {
  MustExecute(db_, "CREATE TABLE bigi (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO bigi VALUES " + IntegralRows(1, 1500));
  MinoaParams params;
  params.delta_l = 3;
  params.delta_h = 0;
  params.wx = 7;
  const FoldStats stats =
      ExpectFoldMatchesRow(MinoaSql("bigi", params, 1490, false) +
                           " ORDER BY 1");
  EXPECT_EQ(stats.rows, 1490);
  EXPECT_EQ(stats.prefix, 1490);
  ExpectPrefixMatchesRow(SelfJoinWindowSql("bigi", "pos", "val",
                                           WindowSpec::SlidingUnchecked(40, 2),
                                           /*use_in_predicate=*/false) +
                         " ORDER BY 1");
}

// Fallbacks: each case runs the walk for every row and still agrees
// with row mode bit for bit.

TEST_F(BandFoldTest, FractionalDoublesWalk) {
  MinoaParams params;
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  ExpectWalkMatchesRow(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
  // Integral cells, fractional factor: decided per left row.
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(0.5 * s2.val) FROM vn s1, vn s2 WHERE s2.pos "
      "BETWEEN s1.pos - 2 AND s1.pos GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, MagnitudesAboveTheExactRangeWalk) {
  // DOUBLE: 2^50 · 16 keys > 2^53.
  MustExecute(db_, "CREATE TABLE hd (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "CREATE TABLE hi (pos INTEGER, val INTEGER)");
  std::string hd;
  std::string hi;
  for (int p = 1; p <= 16; ++p) {
    if (p > 1) {
      hd += ", ";
      hi += ", ";
    }
    hd += "(" + std::to_string(p) + ", " +
          std::to_string((p % 2 == 0 ? 1 : -1) * (int64_t{1} << 50)) + ")";
    hi += "(" + std::to_string(p) + ", " +
          std::to_string((p % 3 - 1) * (int64_t{1} << 60)) + ")";
  }
  MustExecute(db_, "INSERT INTO hd VALUES " + hd);
  MustExecute(db_, "INSERT INTO hi VALUES " + hi);
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM hd s1, hd s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
  // INTEGER: 2^60 · 16 keys > INT64_MAX.
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM hi s1, hi s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
  // Small cells, but a coefficient of 2^46 · 11 · 65 keys > 2^53.
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(70368744177664 * s2.val) FROM vn s1, vn s2 WHERE "
      "s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, OverlappingBandsWalk) {
  // Same residue, overlapping spans: a shared key is one candidate.
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE (s2.pos <= s1.pos "
      "AND MOD(s2.pos, 3) = MOD(s1.pos, 3)) OR (s2.pos BETWEEN s1.pos - 6 "
      "AND s1.pos + 3 AND MOD(s2.pos, 3) = MOD(s1.pos, 3)) GROUP BY s1.pos "
      "ORDER BY 1");
  // Plain intervals that overlap, and a repeated IN point.
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE (s2.pos BETWEEN "
      "s1.pos - 3 AND s1.pos) OR (s2.pos BETWEEN s1.pos - 1 AND s1.pos + 2) "
      "GROUP BY s1.pos ORDER BY 1");
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE s2.pos IN "
      "(s1.pos - 1, s1.pos - 1) GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, ResidualAndApproximateBandsWalk) {
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE s2.pos BETWEEN "
      "s1.pos - 3 AND s1.pos + 3 AND s2.val > s1.val GROUP BY s1.pos "
      "ORDER BY 1");
  // An OR branch with a conjunct the band cannot hold over-approximates
  // and re-checks the whole condition per candidate.
  ExpectWalkMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE (s2.pos BETWEEN "
      "s1.pos - 2 AND s1.pos AND s2.val > 0) OR (s2.pos BETWEEN s1.pos + 5 "
      "AND s1.pos + 6) GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, StringCellWalksIntoTheTypeError) {
  // Storage types every cell, so a string reaches a fold argument only
  // through a mis-typed plan: here, SUM over a VARCHAR column declared
  // DOUBLE. The prefix path must leave it to the walk's type error.
  MustExecute(db_, "CREATE TABLE sx (pos INTEGER, val VARCHAR)");
  MustExecute(db_, "INSERT INTO sx VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(
      "SELECT s1.pos, s2.val FROM vn s1, sx s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1",
      &op);
  ASSERT_NE(band, nullptr);
  std::vector<ExprPtr> group_by;
  group_by.push_back(eb::Col(0, DataType::kInt64));
  std::vector<AggregateCall> sums(1);
  sums[0].arg = eb::Col(3, DataType::kDouble);  // s2.val
  ASSERT_TRUE(band->TryEnableSumFold(group_by, sums));
  ASSERT_TRUE(band->Open().ok());
  VectorProjection* out = nullptr;
  bool eof = false;
  const Status status = band->NextVector(&out, &eof);
  EXPECT_EQ(status.ToString(),
            Status::TypeError("arithmetic on non-numeric value").ToString());
  EXPECT_NE(band->MetricsDetail().find("prefix=0"), std::string::npos)
      << band->MetricsDetail();
}

TEST_F(BandFoldTest, WalkLeafErrorsOnlyWhereCandidatesSurvive) {
  // The factor divides by zero on s1.pos = 3 only, whose candidates the
  // residual removes (every vx value is below 1000). Row mode never
  // evaluates it there, so no mode may raise it, though the fold's
  // per-vector leaf resolution meets it.
  const std::string sql =
      "SELECT s1.pos, SUM((1 / (s1.pos - 3)) * s2.val) FROM vx s1, vx s2 "
      "WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 AND (s1.pos <> 3 OR "
      "s2.val > 1000) GROUP BY s1.pos ORDER BY 1";
  const FoldStats stats = ExpectFoldMatchesRow(sql);
  EXPECT_EQ(stats.rows, 64);  // s1.pos -4..60 but 3
  EXPECT_EQ(stats.prefix, 0);
  db_.options().exec.enable_merge_band_join = false;
  EXPECT_FALSE(Folds(sql));
  const ResultSet no_band = MustExecute(db_, sql);
  db_.options().exec.enable_merge_band_join = true;
  const ResultSet folded = MustExecute(db_, sql);
  ASSERT_EQ(folded.NumRows(), 64u);
  EXPECT_TRUE(BitIdentical(folded, no_band));
}

TEST_F(BandFoldTest, IntegerSumOverflowErrorsInEveryMode) {
  // INT64_MAX cells: every window sum leaves int64. Row mode, the
  // unfolded vector aggregate and the fold (whose prefix path the
  // magnitude rules out) all report the same error.
  MustExecute(db_, "CREATE TABLE ov (pos INTEGER, v INTEGER)");
  MustExecute(db_,
              "INSERT INTO ov VALUES (1, 9223372036854775807), "
              "(2, 9223372036854775807), (3, 9223372036854775807)");
  const std::string sql =
      "SELECT s1.pos, SUM(s2.v) FROM ov s1, ov s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos";
  const std::string expected =
      Status::ExecutionError("integer overflow in SUM").ToString();
  SetRowMode(true);
  Result<ResultSet> row = db_.Execute(sql);
  SetRowMode(false);
  db_.options().exec.enable_merge_band_join = false;
  Result<ResultSet> vec = db_.Execute(sql);
  db_.options().exec.enable_merge_band_join = true;
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
  ASSERT_NE(band, nullptr);
  ASSERT_TRUE(band->folding());
  Result<std::vector<Row>> folded = ExecuteToVector(op.get());
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(vec.ok());
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(row.status().ToString(), expected);
  EXPECT_EQ(vec.status().ToString(), expected);
  EXPECT_EQ(folded.status().ToString(), expected);
  // A global SUM, and a total that overshoots only transiently.
  for (const bool row_mode : {true, false}) {
    SetRowMode(row_mode);
    Result<ResultSet> global = db_.Execute("SELECT SUM(v) FROM ov");
    ASSERT_FALSE(global.ok());
    EXPECT_EQ(global.status().ToString(), expected);
  }
  MustExecute(db_, "INSERT INTO ov VALUES (4, -9223372036854775807), "
                   "(5, -9223372036854775807)");
  for (const bool row_mode : {true, false}) {
    SetRowMode(row_mode);
    const ResultSet rs = MustExecute(db_, "SELECT SUM(v) FROM ov");
    EXPECT_EQ(rs.rows()[0][0],
              Value::Int(std::numeric_limits<int64_t>::max()));
  }
  SetRowMode(false);
}

// Every vector-native operator, in vector mode, gives the same rows with
// the same tags through Next (the shell serves the rows of its vectors)
// as through NextVector. The inputs cross the 1 024-row vector boundary
// and mix INTEGER, DOUBLE and NULL cells in one column.
template <typename Op>
void ExpectNextMatchesNextVector(Database* db, const std::string& sql) {
  SCOPED_TRACE(sql);
  std::vector<Row> pulled[2];
  for (int by_vector = 0; by_vector < 2; ++by_vector) {
    PhysicalOperatorPtr root = BuildSqlPlan(db, sql);
    ASSERT_NE(root, nullptr);
    Op* op = FindOp<Op>(root.get());
    ASSERT_NE(op, nullptr);
    ASSERT_TRUE(op->vectorized());
    ASSERT_TRUE(op->Open().ok());
    std::vector<Row>& rows = pulled[by_vector];
    bool eof = false;
    while (true) {
      if (by_vector == 1) {
        VectorProjection* vp = nullptr;
        ASSERT_TRUE(op->NextVector(&vp, &eof).ok());
        if (eof) break;
        vp->AppendSelectedTo(&rows);
      } else {
        Row row;
        ASSERT_TRUE(op->Next(&row, &eof).ok());
        if (eof) break;
        rows.push_back(std::move(row));
      }
    }
  }
  ASSERT_GT(pulled[0].size(), 0u);
  ASSERT_EQ(pulled[0].size(), pulled[1].size());
  for (size_t r = 0; r < pulled[0].size(); ++r) {
    ASSERT_EQ(pulled[0][r].size(), pulled[1][r].size());
    for (size_t c = 0; c < pulled[0][r].size(); ++c) {
      EXPECT_EQ(pulled[0][r][c].type(), pulled[1][r][c].type())
          << "row " << r << " column " << c;
      EXPECT_EQ(pulled[0][r][c], pulled[1][r][c])
          << "row " << r << " column " << c;
    }
  }
}

TEST_F(ExecModesSqlTest, NextMatchesNextVectorOnEveryNativeOperator) {
  CreateBig("m", 2500, /*reverse=*/true);
  CreateBig("n", 1200, /*reverse=*/false);
  ExpectNextMatchesNextVector<TableScanOp>(&db_, "SELECT k, v FROM m");
  ExpectNextMatchesNextVector<FilterOp>(
      &db_, "SELECT k, v FROM m WHERE MOD(k, 3) <> 0");
  ExpectNextMatchesNextVector<ProjectOp>(&db_,
                                         "SELECT k * 2, v, v + 1 FROM m");
  ExpectNextMatchesNextVector<LimitOp>(&db_,
                                       "SELECT k, v FROM m LIMIT 1500");
  ExpectNextMatchesNextVector<UnionAllOp>(
      &db_,
      "SELECT k, v FROM m WHERE k > 2000 UNION ALL SELECT k, v FROM m "
      "WHERE k < 0 UNION ALL SELECT k, v FROM n");
  ExpectNextMatchesNextVector<HashJoinOp>(
      &db_, "SELECT m.k, m.v, n.v FROM m LEFT JOIN n ON n.k = m.k");
  ExpectNextMatchesNextVector<MergeBandJoinOp>(
      &db_,
      "SELECT a.k, b.v FROM m a JOIN n b ON b.k BETWEEN a.k - 1 AND a.k + 1");
  ExpectNextMatchesNextVector<SortOp>(&db_,
                                      "SELECT k, v FROM m ORDER BY v, k");
  ExpectNextMatchesNextVector<SortOp>(&db_, "SELECT k, v FROM m ORDER BY k");
  ExpectNextMatchesNextVector<HashAggregateOp>(
      &db_,
      "SELECT MOD(k, 10), SUM(v), MIN(v), COUNT(*) FROM m GROUP BY MOD(k, 10)");
  // A SUM fold: the aggregate over the band join's partial rows.
  const std::string fold_sql =
      "SELECT a.k, SUM(b.v) FROM m a JOIN n b ON b.k BETWEEN a.k - 1 AND "
      "a.k + 1 GROUP BY a.k";
  PhysicalOperatorPtr fold_plan = BuildSqlPlan(&db_, fold_sql);
  ASSERT_NE(fold_plan, nullptr);
  MergeBandJoinOp* band = FindOp<MergeBandJoinOp>(fold_plan.get());
  ASSERT_NE(band, nullptr);
  EXPECT_TRUE(band->folding());
  ExpectNextMatchesNextVector<HashAggregateOp>(&db_, fold_sql);
}

TEST_F(ExecModesSqlTest, ErrorsAgreeAcrossModes) {
  // The second statement's merge band join has two bands whose bounds
  // fail on different rows: one on the first row (a = 1, division by
  // zero), the other on the second (a = 2, MOD by zero), which the join
  // resolves first. The vector path resolves a whole left vector's
  // bands at once, yet must raise the first row's error.
  const std::string band_sql =
      "SELECT t1.a, t2.a FROM t t1, t t2 WHERE t2.a BETWEEN t1.a AND "
      "t1.a + 1 / (t1.a - 1) OR t2.a BETWEEN t1.a AND t1.a + MOD(1, "
      "t1.a - 2)";
  for (const std::string& sql : {std::string("SELECT 1 / (a - a) FROM t"),
                                 band_sql}) {
    db_.options().exec.use_vectorized_execution = true;
    Result<ResultSet> vec = db_.Execute(sql);
    db_.options().exec.use_vectorized_execution = false;
    Result<ResultSet> row = db_.Execute(sql);
    ASSERT_FALSE(vec.ok()) << sql;
    ASSERT_FALSE(row.ok()) << sql;
    EXPECT_EQ(row.status().ToString(),
              Status::ExecutionError("division by zero").ToString());
    EXPECT_EQ(vec.status().ToString(), row.status().ToString()) << sql;
  }
  // The plan under test: the band join, with both bands.
  db_.options().exec.use_vectorized_execution = true;
  const ResultSet plan =
      MustExecute(db_, "EXPLAIN ANALYZE SELECT t1.a, t2.a FROM t t1, t t2 "
                       "WHERE t2.a BETWEEN t1.a AND t1.a + 1 / (t1.a + 10) "
                       "OR t2.a BETWEEN t1.a AND t1.a + MOD(1, t1.a + 10)");
  bool band_join = false;
  for (const OperatorMetricsEntry& e : plan.metrics()) {
    band_join = band_join || e.name == "merge_band_join";
  }
  EXPECT_TRUE(band_join);
}

}  // namespace
}  // namespace rfv
