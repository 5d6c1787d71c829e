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
// children, the nested-loop joins over columnar joins and under them,
// the lanes the nested-loop joins emit, and the columnar operators'
// answers over a small query suite, checked against pinned rows, rows
// computed from the inputs, a test-side stable sort, the forced
// nested-loop plan, or the plan without the band join.

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
#include "testing/oracle.h"

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

  PhysicalOperatorPtr Scan(const std::string& name) {
    Table* table = GetTable(name);
    return std::make_unique<TableScanOp>(table->schema(), table);
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
  size_t impl_calls() const { return next_; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    value_ = 0;
    return Status::OK();
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
  ASSERT_TRUE(op.Open().ok());
  ExpectVectorEof(&op);
  EXPECT_EQ(op.impl_calls(), 2u);
}

TEST_F(ExecContractTest, DrainChildKeepsFinalVectorRows) {
  // A consumer that tested eof before draining would lose the truncated
  // final vector entirely.
  auto limit = std::make_unique<LimitOp>(GetTable("t5")->schema(),
                                         Scan("t5"), /*limit=*/4);
  ASSERT_TRUE(limit->Open().ok());
  std::vector<Row> rows;
  ASSERT_TRUE(DrainChild(limit.get(), &rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[3][0], Value::Int(4));
}

// ---------------------------------------------------------------------
// UNION ALL with empty children interleaved among non-empty ones.
// ---------------------------------------------------------------------

class UnionAllTest : public ExecContractTest {
 protected:
  PhysicalOperatorPtr MakeUnion() {
    std::vector<PhysicalOperatorPtr> children;
    for (const char* name : {"empty1", "t5", "empty2", "t2", "empty3"}) {
      children.push_back(Scan(name));
    }
    return std::make_unique<UnionAllOp>(GetTable("t5")->schema(),
                                        std::move(children));
  }

  void ExpectAllRows(const std::vector<Row>& rows) {
    ASSERT_EQ(rows.size(), 7u);
    EXPECT_EQ(rows[0][0], Value::Int(1));
    EXPECT_EQ(rows[4][0], Value::Int(5));
    EXPECT_EQ(rows[5][0], Value::Int(10));
    EXPECT_EQ(rows[6][0], Value::Int(11));
  }
};

TEST_F(UnionAllTest, ReturnsEveryChildsRowsInOrder) {
  PhysicalOperatorPtr u = MakeUnion();
  Result<std::vector<Row>> rows = ExecuteToVector(u.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectAllRows(*rows);
}

TEST_F(UnionAllTest, SkipsEmptyChildrenWithinOneCall) {
  PhysicalOperatorPtr u = MakeUnion();
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
// plan with `options`.
PhysicalOperatorPtr BuildSqlPlan(Database* db, const std::string& sql,
                                 const ExecOptions& options = {}) {
  Result<Statement> stmt = Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  Binder binder(db->catalog());
  Result<LogicalPlanPtr> bound = binder.BindSelect(*stmt->select);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return nullptr;
  LogicalPlanPtr plan = OptimizePlan(std::move(bound).value());
  EstimateCardinality(plan.get());
  Result<PhysicalOperatorPtr> built = BuildPhysicalPlan(*plan, options);
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

/// Type tag and payload bits equal (Value::Compare would let Int(2)
/// match Double(2.0) and hide a rounding step or a swapped tie).
bool SameCell(const Value& x, const Value& y) {
  if (x.type() != y.type()) return false;
  if (x.type() != DataType::kDouble) return x.Compare(y) == 0;
  const double dx = x.AsDouble();
  const double dy = y.AsDouble();
  return std::memcmp(&dx, &dy, sizeof(double)) == 0;
}

/// Row-for-row SameCell over the first `width` columns of each row
/// (all of them by default).
::testing::AssertionResult BitIdenticalRows(
    const std::vector<Row>& a, const std::vector<Row>& b,
    size_t width = static_cast<size_t>(-1)) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " rows vs " << b.size();
  }
  for (size_t r = 0; r < a.size(); ++r) {
    const size_t n = std::min({a[r].size(), b[r].size(), width});
    for (size_t c = 0; c < n; ++c) {
      if (!SameCell(a[r][c], b[r][c])) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << ": " << a[r][c].ToString()
               << " (" << DataTypeName(a[r][c].type()) << ") vs "
               << b[r][c].ToString() << " (" << DataTypeName(b[r][c].type())
               << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// BitIdenticalRows over two result sets.
::testing::AssertionResult BitIdentical(const ResultSet& a,
                                        const ResultSet& b) {
  return BitIdenticalRows(a.rows(), b.rows());
}

// ---------------------------------------------------------------------
// The operators on a small SQL suite (end to end, including plans with
// the window and the nested-loop joins, which compute Rows). Answers are
// checked against pinned rows, a test-side stable sort, or the forced
// nested-loop plan.
// ---------------------------------------------------------------------

class ExecSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t (a INTEGER, b DOUBLE, s VARCHAR)");
    MustExecute(db_,
                "INSERT INTO t VALUES (1, 10.0, 'x'), (2, 20.0, 'y'), "
                "(3, NULL, 'x'), (4, 40.0, NULL), (2, 25.0, 'z'), "
                "(6, 5.5, 'x'), (7, NULL, 'y')");
  }

  // A row rendered for pinning: its cells joined by ", ", a DOUBLE cell
  // marked by a trailing "d" (Int(2) and Double(2.0) compare equal, so
  // a value comparison would not see a cell change its tag).
  static std::string Render(const Row& row) {
    std::string out;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ", ";
      out += row[c].ToString();
      if (row[c].type() == DataType::kDouble) out += "d";
    }
    return out;
  }

  // Runs `sql` and checks its rendered rows, in order, against `want`.
  ResultSet ExpectRows(const std::string& sql,
                       const std::vector<std::string>& want) {
    const ResultSet rs = MustExecute(db_, sql);
    std::vector<std::string> got;
    for (const Row& row : rs.rows()) got.push_back(Render(row));
    EXPECT_EQ(got, want) << sql;
    return rs;
  }

  // A sort key of ExpectSortOf: a column of the input and its direction.
  struct Key {
    size_t column;
    bool ascending = true;
  };

  // Checks that `sql` returns the rows of `input_sql` stable-sorted by
  // `keys` under Value::Compare, bit for bit, cut to `limit` rows (-1 =
  // all). The input's rows come in scan order, which ORDER BY keeps
  // among ties; they may carry key columns past `sql`'s width, which
  // are not compared. Returns `sql`'s rows.
  ResultSet ExpectSortOf(const std::string& sql, const std::string& input_sql,
                         const std::vector<Key>& keys, int64_t limit = -1) {
    const ResultSet rs = MustExecute(db_, sql);
    std::vector<Row> want = MustExecute(db_, input_sql).rows();
    std::stable_sort(want.begin(), want.end(),
                     [&](const Row& a, const Row& b) {
                       for (const Key& k : keys) {
                         const int c = a[k.column].Compare(b[k.column]);
                         if (c != 0) return k.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
    if (limit >= 0 && want.size() > static_cast<size_t>(limit)) {
      want.resize(static_cast<size_t>(limit));
    }
    EXPECT_TRUE(
        BitIdenticalRows(rs.rows(), want, rs.schema().NumColumns()))
        << sql;
    return rs;
  }

  // The EXPLAIN ANALYZE entry of the first operator named
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
  // (descending when `reverse`); v = BigV(k), written as an INTEGER
  // literal for odd k and a DOUBLE one for even k.
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

  // CreateBig's v for key k. The INSERT of an INTEGER literal into the
  // DOUBLE column stores a DOUBLE cell.
  static Value BigV(int64_t k) {
    return Value::Double(static_cast<double>(k % 7));
  }

  Database db_;
};

TEST_F(ExecSqlTest, FilterProjectExpressions) {
  ExpectRows(
      "SELECT a, CASE WHEN a > 2 THEN 100 / a ELSE 0 - a END FROM t "
      "WHERE a BETWEEN 1 AND 6",
      {"1, -1", "2, -2", "3, 33", "4, 25", "2, -2", "6, 16"});
  ExpectRows(
      "SELECT a, COALESCE(b, 0.0), MOD(a, 3) FROM t WHERE b > 0 OR s = 'y'",
      {"1, 10d, 1", "2, 20d, 2", "4, 40d, 1", "2, 25d, 2", "6, 5.5d, 0",
       "7, 0d, 1"});
  ExpectRows("SELECT a FROM t WHERE a IN (2, 4, 9)", {"2", "4", "2"});
}

TEST_F(ExecSqlTest, AllRowsFilteredOut) {
  ExpectRows("SELECT a FROM t WHERE a > 1000", {});
  ExpectRows("SELECT a FROM t WHERE b IS NULL AND b IS NOT NULL", {});
}

TEST_F(ExecSqlTest, GroupByAndAggregates) {
  ExpectRows(
      "SELECT s, COUNT(*), SUM(a), AVG(b), MIN(b), MAX(a) FROM t GROUP BY s "
      "ORDER BY s",
      {"NULL, 1, 4, 40d, 40d, 4", "'x', 3, 10, 7.75d, 5.5d, 6",
       "'y', 2, 9, 20d, 20d, 7", "'z', 1, 2, 25d, 25d, 2"});
  // Single-int-key grouping exercises the aggregate's int64 fast path;
  // grouping by a double expression forces the migration to Value keys.
  ExpectRows("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a",
             {"1, 1", "2, 2", "3, 1", "4, 1", "6, 1", "7, 1"});
  ExpectRows("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
             {"NULL, 2", "5.5d, 1", "10d, 1", "20d, 1", "25d, 1", "40d, 1"});
}

TEST_F(ExecSqlTest, LimitAndUnion) {
  ExpectRows("SELECT a FROM t ORDER BY a LIMIT 3", {"1", "2", "2"});
  ExpectRows("SELECT a FROM t LIMIT 0", {});
  ExpectRows(
      "SELECT a FROM t WHERE a < 3 UNION ALL SELECT a FROM t WHERE a > 100 "
      "UNION ALL SELECT a FROM t WHERE a > 5",
      {"1", "2", "2", "6", "7"});
}

// ---------------------------------------------------------------------
// Nested-loop joins as the left input of the columnar joins: the hash
// and band joins pull an index nested-loop or nested-loop join, which
// writes its joined rows into lanes. 2 500 left rows cross the 1 024-row
// vector boundary twice.
// ---------------------------------------------------------------------

class NestedLoopLeftInputTest : public ExecSqlTest {
 protected:
  void SetUp() override {
    ExecSqlTest::SetUp();
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

TEST_F(NestedLoopLeftInputTest, HashJoinOverIndexNestedLoop) {
  const std::string sql =
      "SELECT a.k, b.v, c.w FROM big a JOIN big b ON b.k = a.k "
      "JOIN half c ON c.k = b.k";
  std::vector<Row> want;
  for (int64_t k = 2; k <= 2500; k += 2) {
    want.push_back(Row({Value::Int(k), BigV(k), Value::Int(3 * k)}));
  }
  EXPECT_TRUE(BitIdenticalRows(MustExecute(db_, sql).rows(), want));
  ExpectLeftInput(sql, "hash_join", "index_nested_loop_join", 3);
}

TEST_F(NestedLoopLeftInputTest, BandJoinOverNestedLoop) {
  const std::string sql =
      "SELECT a.k, c.k FROM big a JOIN low b ON a.v > b.w "
      "JOIN big c ON c.k BETWEEN a.k - 1 AND a.k + 1";
  std::vector<Row> want;
  for (int64_t k = 1; k <= 2500; ++k) {
    for (int64_t c = std::max<int64_t>(1, k - 1);
         c <= std::min<int64_t>(2500, k + 1); ++c) {
      want.push_back(Row({Value::Int(k), Value::Int(c)}));
    }
  }
  ASSERT_EQ(want.size(), 3u * 2500u - 2u);
  EXPECT_TRUE(BitIdenticalRows(MustExecute(db_, sql).rows(), want));
  ExpectLeftInput(sql, "merge_band_join", "nested_loop_join", 3);
}

TEST_F(NestedLoopLeftInputTest, LeftJoinsOverNestedLoopInputs) {
  // Odd keys find no partner in half: their rows come back NULL-padded.
  const std::string hash_sql =
      "SELECT a.k, c.w FROM big a JOIN big b ON b.k = a.k "
      "LEFT JOIN half c ON c.k = b.k";
  std::vector<Row> want;
  for (int64_t k = 1; k <= 2500; ++k) {
    Row row({Value::Int(k), Value::Null()});
    if (k % 2 == 0) row[1] = Value::Int(3 * k);
    want.push_back(std::move(row));
  }
  EXPECT_TRUE(BitIdenticalRows(MustExecute(db_, hash_sql).rows(), want));
  ExpectLeftInput(hash_sql, "hash_join", "index_nested_loop_join", 3);
  // Past k = 1 000 the band runs off the end of big.
  const std::string band_sql =
      "SELECT a.k, c.k FROM big a JOIN low b ON a.v > b.w "
      "LEFT JOIN big c ON c.k BETWEEN a.k + 1500 AND a.k + 1501";
  want.clear();
  for (int64_t k = 1; k <= 2500; ++k) {
    if (k + 1500 > 2500) {
      want.push_back(Row({Value::Int(k), Value::Null()}));
      continue;
    }
    for (int64_t c = k + 1500; c <= std::min<int64_t>(2500, k + 1501); ++c) {
      want.push_back(Row({Value::Int(k), Value::Int(c)}));
    }
  }
  ASSERT_EQ(want.size(), 2u * 999u + 1u + 1500u);
  EXPECT_TRUE(BitIdenticalRows(MustExecute(db_, band_sql).rows(), want));
  ExpectLeftInput(band_sql, "merge_band_join", "nested_loop_join", 3);
}

// ---------------------------------------------------------------------
// Columnar operators under the nested-loop joins, which pull their left
// input by NextVector and walk its lanes as rows. (When the nested-loop
// joins still pulled rows, a columnar hash join once answered the row
// pull from a row-mode hash table that its columnar Open never filled:
// no rows, or NULL-padded ones under a LEFT JOIN.)
// ---------------------------------------------------------------------

class UnderNestedLoopJoinTest : public ExecSqlTest {
 protected:
  void SetUp() override {
    ExecSqlTest::SetUp();
    MustExecute(db_, "CREATE TABLE a (k INTEGER, x INTEGER)");
    MustExecute(db_, "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)");
    MustExecute(db_, "CREATE TABLE b (k INTEGER, y INTEGER)");
    MustExecute(db_, "INSERT INTO b VALUES (1, 100), (2, 200), (3, 300)");
    MustExecute(db_, "CREATE TABLE c (z INTEGER)");
    MustExecute(db_, "INSERT INTO c VALUES (5), (25)");
  }

  // `sql`'s plan, one operator per entry in pre-order, each
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

  // Checks that `sql`'s plan is `shape` and that it returns exactly
  // `want`, in order.
  void ExpectAnswer(const std::string& sql,
                    const std::vector<std::string>& shape,
                    const std::vector<std::vector<int64_t>>& want) {
    const ResultSet rs = MustExecute(db_, sql);
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

TEST_F(UnderNestedLoopJoinTest, HashJoinUnderNestedLoopJoin) {
  ExpectAnswer(
      "SELECT a.k, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON a.x <> c.z",
      {"project", " nested_loop_join", "  hash_join", "   scan", "   scan",
       "  scan"},
      {{1, 100, 5}, {1, 100, 25}, {2, 200, 5}, {2, 200, 25}, {3, 300, 5},
       {3, 300, 25}});
}

TEST_F(UnderNestedLoopJoinTest, LeftHashJoinUnderNestedLoopJoin) {
  ExpectAnswer(
      "SELECT a.k, b.y, c.z FROM a LEFT JOIN b ON a.k = b.k "
      "JOIN c ON a.x <> c.z",
      {"project", " nested_loop_join", "  hash_join", "   scan", "   scan",
       "  scan"},
      {{1, 100, 5}, {1, 100, 25}, {2, 200, 5}, {2, 200, 25}, {3, 300, 5},
       {3, 300, 25}});
}

TEST_F(UnderNestedLoopJoinTest, HashJoinUnderIndexNestedLoopJoin) {
  MustExecute(db_, "INSERT INTO a VALUES (3, 31)");
  MustExecute(db_, "INSERT INTO c VALUES (31)");
  MustExecute(db_, "CREATE INDEX c_z ON c (z)");
  ExpectAnswer(
      "SELECT a.k, c.z FROM a JOIN b ON a.k = b.k JOIN c ON c.z = a.x",
      {"project", " index_nested_loop_join", "  hash_join", "   scan",
       "   scan"},
      {{3, 31}});
}

TEST_F(UnderNestedLoopJoinTest, ColumnarInputsOfANestedLoopJoin) {
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
// The lanes of the two nested-loop joins: output spread over several
// full vectors, one left row's matches split across vector boundaries,
// and LEFT OUTER padding at lanes 1 023 and 1 024, every lane's tag and
// value checked against rows computed from the inputs. The left input's
// v mixes INTEGER-, DOUBLE- and NULL-tagged cells, computed as
// COALESCE(d, i): a table column cannot hold them, because
// Table::ValidateAndCoerce stores an INTEGER cell of a DOUBLE column as
// DOUBLE, for SQL INSERT and Table::InsertBatch alike. The condition
// `r.k BETWEEN a.lo AND a.hi` gives the index join its band on r's
// indexed key column.
// ---------------------------------------------------------------------

class RowJoinLanesTest : public ExecSqlTest {
 protected:
  void SetUp() override {
    ExecSqlTest::SetUp();
    MustExecute(db_, "CREATE TABLE r (k INTEGER, w DOUBLE)");
    for (int64_t k = 1; k <= 1500; ++k) {
      const Value w =
          k % 5 == 0 ? Value::Null() : Value::Double(static_cast<double>(k));
      right_.push_back(Row({Value::Int(k), w}));
    }
    Insert("r", right_);
    MustExecute(db_, "CREATE INDEX r_k ON r (k)");
    MustExecute(db_, "CREATE TABLE l (k INTEGER, lo INTEGER, hi INTEGER, "
                     "d DOUBLE, i INTEGER)");
  }

  void Insert(const std::string& name, std::vector<Row> rows) {
    Result<Table*> table = db_.catalog()->GetTable(name);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->InsertBatch(std::move(rows)).ok());
  }

  // Fills l with one row per (k, lo, hi) and returns the rows of
  // kLeft: (k, lo, hi, v), v being NULL, DOUBLE or INTEGER by k.
  std::vector<Row> FillLeft(const std::vector<std::vector<int64_t>>& rows) {
    std::vector<Row> table_rows;
    std::vector<Row> left;
    for (const std::vector<int64_t>& r : rows) {
      const int64_t k = r[0];
      Value d = Value::Null();
      Value i = Value::Null();
      if (k % 2 == 0 && k % 5 != 0) {
        d = Value::Double(static_cast<double>(k) + 0.5);
      }
      if (k % 5 != 0) i = Value::Int(k);
      const Value v = d.is_null() ? i : d;
      const Value lo = Value::Int(r[1]);
      const Value hi = Value::Int(r[2]);
      table_rows.push_back(Row({Value::Int(k), lo, hi, d, i}));
      left.push_back(Row({Value::Int(k), lo, hi, v}));
    }
    Insert("l", std::move(table_rows));
    return left;
  }

  // The join of `left` with r on r.k BETWEEN lo AND hi (and, with
  // `non_null_w`, r.w IS NOT NULL), in left order and r's key order
  // per left row; unmatched left rows NULL-padded when `left_outer`.
  std::vector<Row> Join(const std::vector<Row>& left, bool left_outer,
                        bool non_null_w) const {
    std::vector<Row> want;
    for (const Row& l : left) {
      bool matched = false;
      for (const Row& r : right_) {
        if (r[0].AsInt() < l[1].AsInt() || r[0].AsInt() > l[2].AsInt() ||
            (non_null_w && r[1].is_null())) {
          continue;
        }
        want.push_back(Row::Concat(l, r));
        matched = true;
      }
      if (!matched && left_outer) {
        want.push_back(Row::Concat(l, Row({Value::Null(), Value::Null()})));
      }
    }
    return want;
  }

  // Builds `sql` with `options`, pulls its join operator Op by
  // NextVector and checks every lane of every vector, tag and value,
  // against `want` in order. Returns the vectors' row counts.
  template <typename Op>
  std::vector<size_t> ExpectJoinLanes(const std::string& sql,
                                      const ExecOptions& options,
                                      const std::vector<Row>& want) {
    SCOPED_TRACE(sql);
    std::vector<size_t> sizes;
    PhysicalOperatorPtr root = BuildSqlPlan(&db_, sql, options);
    if (root == nullptr) return sizes;
    Op* join = FindOp<Op>(root.get());
    EXPECT_NE(join, nullptr);
    if (join == nullptr) return sizes;
    EXPECT_TRUE(join->Open().ok());
    size_t seen = 0;
    while (true) {
      VectorProjection* vp = nullptr;
      bool eof = false;
      EXPECT_TRUE(join->NextVector(&vp, &eof).ok());
      if (eof) break;
      sizes.push_back(vp->NumSelected());
      for (size_t slot = 0; slot < vp->NumSelected(); ++slot, ++seen) {
        if (seen >= want.size()) {
          ADD_FAILURE() << "more than " << want.size() << " rows";
          return sizes;
        }
        const uint32_t lane = vp->sel()[slot];
        for (size_t c = 0; c < vp->num_columns(); ++c) {
          const Value got = vp->column(c).GetValue(lane);
          if (!SameCell(got, want[seen][c])) {
            ADD_FAILURE() << "row " << seen << " (vector "
                          << sizes.size() - 1 << ", lane " << lane
                          << ") column " << c << ": got " << got.ToString()
                          << ", want " << want[seen][c].ToString();
            return sizes;
          }
        }
      }
    }
    EXPECT_EQ(seen, want.size());
    return sizes;
  }

  // Both nested-loop joins answer `sql` with `want`, in vectors of
  // `sizes` rows.
  void ExpectBothJoins(const std::string& sql, const std::vector<Row>& want,
                       const std::vector<size_t>& sizes) {
    ExecOptions options;
    options.enable_merge_band_join = false;
    options.enable_hash_join = false;
    EXPECT_EQ(ExpectJoinLanes<IndexNestedLoopJoinOp>(sql, options, want),
              sizes);
    options.enable_index_nested_loop_join = false;
    EXPECT_EQ(ExpectJoinLanes<NestedLoopJoinOp>(sql, options, want), sizes);
  }

  static constexpr const char* kLeft =
      "(SELECT k, lo, hi, COALESCE(d, i) AS v FROM l) a";
  std::vector<Row> right_;
};

TEST_F(RowJoinLanesTest, OutputSpansFiveVectors) {
  // 60 left rows with 81 matches each.
  std::vector<std::vector<int64_t>> rows;
  for (int64_t k = 1; k <= 60; ++k) rows.push_back({k, k, k + 80});
  const std::vector<Row> left = FillLeft(rows);
  const std::vector<Row> want = Join(left, false, false);
  ASSERT_EQ(want.size(), 60u * 81u);
  ExpectBothJoins(
      std::string("SELECT * FROM ") + kLeft +
          " JOIN r ON r.k BETWEEN a.lo AND a.hi",
      want, {1024, 1024, 1024, 1024, 60 * 81 - 4 * 1024});
}

TEST_F(RowJoinLanesTest, OneLeftRowsMatchesCrossVectorBoundaries) {
  // Row 1's 1 500 matches fill vector 0 and start vector 1; row 2's
  // 1 399 finish vector 1 and start vector 2.
  const std::vector<Row> left = FillLeft({{1, 1, 1500}, {2, 2, 1400}});
  const std::vector<Row> want = Join(left, false, false);
  ASSERT_EQ(want.size(), 2899u);
  ExpectBothJoins(
      std::string("SELECT * FROM ") + kLeft +
          " JOIN r ON r.k BETWEEN a.lo AND a.hi",
      want, {1024, 1024, 851});
}

TEST_F(RowJoinLanesTest, LeftOuterPaddingAtLanes1023And1024) {
  // Row 1 has 1 023 matches (k in 1..1278 minus the 255 NULL w cells),
  // lanes 0..1 022. Row 2 has no candidate: padded at lane 1 023, the
  // last of vector 0. Row 3's one candidate (k = 5) has a NULL w: padded
  // at lane 1 024, the first of vector 1. Row 4 matches k = 11 and 12.
  const std::vector<Row> left =
      FillLeft({{1, 1, 1278}, {2, 2000, 2001}, {3, 5, 5}, {4, 10, 12}});
  const std::vector<Row> want = Join(left, true, true);
  ASSERT_EQ(want.size(), 1027u);
  ASSERT_TRUE(want[1023][4].is_null());
  ASSERT_TRUE(want[1024][4].is_null());
  ExpectBothJoins(
      std::string("SELECT * FROM ") + kLeft +
          " LEFT JOIN r ON r.k BETWEEN a.lo AND a.hi AND r.w IS NOT NULL",
      want, {1024, 3});
}

// ---------------------------------------------------------------------
// The columnar sort: the in-order pass-through and the permutation path
// must both give the stable sort of the input, tags included.
// ---------------------------------------------------------------------

TEST_F(ExecSqlTest, SortPresortedInputCrossesTheVectorBoundary) {
  CreateBig("big", 2500, /*reverse=*/false);
  const std::string sql = "SELECT k, v FROM big ORDER BY k";
  const ResultSet rs = ExpectSortOf(sql, "SELECT k, v FROM big", {{0}});
  ASSERT_EQ(rs.NumRows(), 2500u);
  EXPECT_EQ(rs.at(1023, 0), Value::Int(1024));
  EXPECT_EQ(rs.at(1024, 0), Value::Int(1025));
  EXPECT_EQ(rs.at(2499, 0), Value::Int(2500));
  const OperatorMetricsEntry sort = VectorEntry(sql, "sort");
  EXPECT_EQ(sort.detail, "presorted=1");
  EXPECT_EQ(sort.metrics.vectors_out, 3);  // 1024 + 1024 + 452 rows
  EXPECT_EQ(sort.metrics.rows_out, 2500);
}

TEST_F(ExecSqlTest, SortReverseSortedInputPermutes) {
  CreateBig("rev", 2500, /*reverse=*/true);
  const std::string sql = "SELECT k, v FROM rev ORDER BY k";
  const ResultSet rs = ExpectSortOf(sql, "SELECT k, v FROM rev", {{0}});
  ASSERT_EQ(rs.NumRows(), 2500u);
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    ASSERT_EQ(rs.at(i, 0), Value::Int(static_cast<int64_t>(i) + 1));
  }
  EXPECT_EQ(VectorEntry(sql, "sort").detail, "presorted=0");
  // Descending over descending storage is in order again.
  const std::string desc = "SELECT k FROM rev ORDER BY k DESC";
  ExpectSortOf(desc, "SELECT k FROM rev", {{0, false}});
  EXPECT_EQ(VectorEntry(desc, "sort").detail, "presorted=1");
}

TEST_F(ExecSqlTest, SortDescAndMixedDirections) {
  ExpectSortOf("SELECT a, b FROM t ORDER BY a DESC", "SELECT a, b FROM t",
               {{0, false}});
  ExpectSortOf("SELECT s, a FROM t ORDER BY s, a DESC", "SELECT s, a FROM t",
               {{0}, {1, false}});
  ExpectSortOf("SELECT s, a, b FROM t ORDER BY s DESC, b",
               "SELECT s, a, b FROM t", {{0, false}, {2}});
  // Many ties across 2 500 rows: v has seven distinct values, so the
  // second key breaks the ties in three vectors' worth of rows.
  CreateBig("big", 2500, /*reverse=*/false);
  ExpectSortOf("SELECT k, v FROM big ORDER BY v DESC, k",
               "SELECT k, v FROM big", {{1, false}, {0}});
  ExpectSortOf("SELECT k, v FROM big ORDER BY v, k DESC",
               "SELECT k, v FROM big", {{1}, {0, false}});
  EXPECT_EQ(VectorEntry("SELECT k, v FROM big ORDER BY v, k DESC", "sort")
                .detail,
            "presorted=0");
}

TEST_F(ExecSqlTest, SortKeepsIntegerDoubleTiesStable) {
  // COALESCE(x, i) is Double(x) where x is set and Int(i) elsewhere, so
  // the key holds Int(2) and Double(2.0) side by side; they compare
  // equal and must keep their input order.
  MustExecute(db_, "CREATE TABLE mix (id INTEGER, i INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO mix VALUES (1, 2, NULL), (2, 0, 2.0), "
              "(3, 0, 1.0), (4, 1, NULL), (5, 2, NULL), (6, NULL, NULL), "
              "(7, 0, 1.5), (8, 0, 2.0)");
  const std::string mix = "SELECT id, COALESCE(x, i) AS k FROM mix";
  const ResultSet asc = ExpectSortOf(mix + " ORDER BY k", mix, {{1}});
  const int64_t asc_ids[] = {6, 3, 4, 7, 1, 2, 5, 8};
  ASSERT_EQ(asc.NumRows(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(asc.at(i, 0), Value::Int(asc_ids[i])) << i;
  }
  EXPECT_EQ(asc.at(1, 1).type(), DataType::kDouble);
  EXPECT_EQ(asc.at(2, 1).type(), DataType::kInt64);
  const ResultSet desc =
      ExpectSortOf(mix + " ORDER BY k DESC", mix, {{1, false}});
  EXPECT_EQ(desc.at(0, 0), Value::Int(1));
  EXPECT_EQ(desc.at(3, 0), Value::Int(8));
  // Input already in order, ties of both tags included: passed through.
  MustExecute(db_, "CREATE TABLE ordered (id INTEGER, i INTEGER, x DOUBLE)");
  MustExecute(db_,
              "INSERT INTO ordered VALUES (1, 1, NULL), (2, 0, 1.0), "
              "(3, 0, 2.0), (4, 2, NULL), (5, 3, NULL)");
  const std::string input = "SELECT id, COALESCE(x, i) AS k FROM ordered";
  const std::string sql = input + " ORDER BY k";
  const ResultSet same = ExpectSortOf(sql, input, {{1}});
  EXPECT_EQ(same.at(2, 1).type(), DataType::kDouble);
  EXPECT_EQ(same.at(3, 1).type(), DataType::kInt64);
  EXPECT_EQ(VectorEntry(sql, "sort").detail, "presorted=1");
}

TEST_F(ExecSqlTest, SortKeysWithoutAWeakOrderStillPermute) {
  // Value::Compare is not a strict weak order on these keys, so "no
  // adjacent pair inverted" does not mean "sorted": a stable_sort
  // reorders both inputs, and the columnar sort must run that
  // permutation instead of passing the input through.
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
    const ResultSet rs = MustExecute(db_, sql);
    ASSERT_EQ(rs.NumRows(), ids.size()) << sql;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(rs.at(i, 0), Value::Int(ids[i])) << sql << " row " << i;
    }
    EXPECT_EQ(VectorEntry(sql, "sort").detail, "presorted=0") << sql;
  }
}

TEST_F(ExecSqlTest, SortNullAndStringKeys) {
  ExpectSortOf("SELECT s, a FROM t ORDER BY s", "SELECT s, a FROM t", {{0}});
  ExpectSortOf("SELECT s, a FROM t ORDER BY s DESC, a", "SELECT s, a FROM t",
               {{0, false}, {1}});
  ExpectSortOf("SELECT b, a FROM t ORDER BY b", "SELECT b, a FROM t", {{0}});
  ExpectSortOf("SELECT b, a FROM t ORDER BY b DESC", "SELECT b, a FROM t",
               {{0, false}});
  // A computed key: evaluated per chunk instead of read from a column.
  ExpectSortOf("SELECT a, b FROM t ORDER BY COALESCE(b, 0 - a), a",
               "SELECT a, b, COALESCE(b, 0 - a) FROM t", {{2}, {0}});
}

TEST_F(ExecSqlTest, LimitOverSort) {
  CreateBig("big", 2500, /*reverse=*/false);
  ExpectSortOf("SELECT k, v FROM big ORDER BY v DESC, k LIMIT 1500",
               "SELECT k, v FROM big", {{1, false}, {0}}, 1500);
  ExpectSortOf("SELECT k FROM big ORDER BY k LIMIT 1030", "SELECT k FROM big",
               {{0}}, 1030);
  ExpectSortOf("SELECT k FROM big ORDER BY k DESC LIMIT 3",
               "SELECT k FROM big", {{0, false}}, 3);
  ExpectSortOf("SELECT k FROM big ORDER BY v LIMIT 0", "SELECT k, v FROM big",
               {{1}}, 0);
}

TEST_F(ExecSqlTest, SortKeyErrorsFollowRowOrder) {
  // Row a = 2 (the second row) fails on the second key, row a = 4 (the
  // fourth) on the first. The sort evaluates the first key over the
  // whole chunk first, yet must raise the first error in (row, key)
  // order.
  for (const std::string& sql :
       {std::string("SELECT a FROM t ORDER BY 10 / (a - 2)"),
        std::string("SELECT a FROM t ORDER BY MOD(1, a - 4), 1 / (a - 2)")}) {
    const Result<ResultSet> rs = db_.Execute(sql);
    ASSERT_FALSE(rs.ok()) << sql;
    EXPECT_EQ(rs.status().ToString(),
              Status::ExecutionError("division by zero").ToString())
        << sql;
  }
}

// ---------------------------------------------------------------------
// The columnar hash aggregate: groups kept in output lanes, flat
// accumulators, tag-exact finished values.
// ---------------------------------------------------------------------

TEST_F(ExecSqlTest, AggregateGroupsSpanSeveralOutputVectors) {
  CreateBig("big", 2500, /*reverse=*/false);
  const std::string sql = "SELECT k, COUNT(*), SUM(v) FROM big GROUP BY k";
  // One group per key, in input order.
  std::vector<Row> want;
  for (int64_t k = 1; k <= 2500; ++k) {
    want.push_back(Row({Value::Int(k), Value::Int(1), BigV(k)}));
  }
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_TRUE(BitIdenticalRows(rs.rows(), want));
  const OperatorMetricsEntry agg = VectorEntry(sql, "hash_aggregate");
  EXPECT_EQ(agg.metrics.vectors_out, 3);
  EXPECT_EQ(agg.metrics.rows_out, 2500);
  // Generic (non-int) keys past one vector of groups, in reverse input.
  CreateBig("rev", 2500, /*reverse=*/true);
  std::vector<Row> half;
  std::vector<Row> pairs;
  for (int64_t k = 2500; k >= 1; --k) {
    half.push_back(Row({Value::Double(static_cast<double>(k) * 0.5), BigV(k),
                        Value::Int(k)}));
    pairs.push_back(Row({Value::Int(k), BigV(k), Value::Int(1)}));
  }
  EXPECT_TRUE(BitIdenticalRows(
      MustExecute(db_,
                  "SELECT k * 0.5, MIN(v), MAX(k) FROM rev GROUP BY k * 0.5")
          .rows(),
      half));
  EXPECT_TRUE(BitIdenticalRows(
      MustExecute(db_, "SELECT k, v, COUNT(*) FROM rev GROUP BY k, v").rows(),
      pairs));
}

TEST_F(ExecSqlTest, AggregateNullGroup) {
  MustExecute(db_, "CREATE TABLE nk (g INTEGER, x INTEGER)");
  MustExecute(db_,
              "INSERT INTO nk VALUES (NULL, 1), (2, 2), (NULL, 3), (1, 4), "
              "(2, 5), (NULL, NULL)");
  const ResultSet rs = ExpectRows(
      "SELECT g, COUNT(*), COUNT(x), SUM(x) FROM nk GROUP BY g",
      {"NULL, 3, 2, 4", "2, 2, 2, 7", "1, 1, 1, 4"});
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_TRUE(rs.at(0, 0).is_null());  // first seen, first out
  EXPECT_EQ(rs.at(0, 1), Value::Int(3));
  EXPECT_EQ(rs.at(0, 2), Value::Int(2));
  EXPECT_EQ(rs.at(0, 3), Value::Int(4));
}

TEST_F(ExecSqlTest, AggregateMigratesFromIntKeysMidVector) {
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
  // The groups a test-side fold of the same rows gives, in first-seen
  // order: (key, count, sum, min) with the first key cell seen.
  std::vector<Row> want;
  std::vector<int64_t> slot(51, -1);  // int key g -> want index; 50 = 7.5
  for (int64_t i = 1; i <= 1500; ++i) {
    const size_t g =
        i == 1200 ? 50 : i == 700 ? 3 : static_cast<size_t>(i % 50);
    if (slot[g] < 0) {
      slot[g] = static_cast<int64_t>(want.size());
      want.push_back(Row({g == 50 ? Value::Double(7.5)
                                  : Value::Int(static_cast<int64_t>(g)),
                          Value::Int(0), Value::Int(0), Value::Int(i)}));
    }
    Row& row = want[static_cast<size_t>(slot[g])];
    row[1] = Value::Int(row[1].AsInt() + 1);
    row[2] = Value::Int(row[2].AsInt() + i);
  }
  const ResultSet rs = MustExecute(
      db_,
      "SELECT COALESCE(x, g), COUNT(*), SUM(y), MIN(y) FROM mig "
      "GROUP BY COALESCE(x, g)");
  EXPECT_TRUE(BitIdenticalRows(rs.rows(), want));
  ASSERT_EQ(rs.NumRows(), 51u);
  EXPECT_EQ(rs.at(2, 0), Value::Int(3));  // the first key seen
  EXPECT_EQ(rs.at(2, 0).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(2, 1), Value::Int(31));
  EXPECT_EQ(rs.at(49, 0), Value::Int(0));
  EXPECT_EQ(rs.at(49, 1), Value::Int(28));
  EXPECT_EQ(rs.at(50, 0), Value::Double(7.5));
  EXPECT_EQ(rs.at(50, 0).type(), DataType::kDouble);
}

TEST_F(ExecSqlTest, GlobalAggregateOverEmptyInput) {
  const ResultSet rs = MustExecute(
      db_,
      "SELECT COUNT(*), COUNT(b), SUM(a), AVG(b), MIN(s), MAX(a) FROM t "
      "WHERE a > 100");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.at(0, 0).type(), DataType::kInt64);
  EXPECT_EQ(rs.at(0, 0), Value::Int(0));
  EXPECT_EQ(rs.at(0, 1), Value::Int(0));
  for (size_t c = 2; c < 6; ++c) EXPECT_TRUE(rs.at(0, c).is_null()) << c;
  EXPECT_EQ(
      MustExecute(db_, "SELECT a, COUNT(*) FROM t WHERE a > 100 GROUP BY a")
          .NumRows(),
      0u);
}

TEST_F(ExecSqlTest, AggregateOutputTagsAreExact) {
  const ResultSet rs = ExpectRows(
      "SELECT s, COUNT(*), COUNT(b), MIN(a), MAX(b), AVG(a), MIN(s), "
      "MAX(s), SUM(a), SUM(b) FROM t GROUP BY s",
      {"'x', 3, 2, 1, 10d, 3.33333d, 'x', 'x', 10, 15.5d",
       "'y', 2, 1, 2, 20d, 4.5d, 'y', 'y', 9, 20d",
       "NULL, 1, 1, 4, 40d, 4d, NULL, NULL, 4, 40d",
       "'z', 1, 1, 2, 25d, 2d, 'z', 'z', 2, 25d"});
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
  const ResultSet mm = ExpectRows(
      "SELECT g, MIN(COALESCE(x, i)), MAX(COALESCE(x, i)), "
      "AVG(COALESCE(x, i)), COUNT(COALESCE(x, i)) FROM mm GROUP BY g",
      {"1, 1d, 2, 1.66667d, 3", "2, 4.5d, 5, 4.75d, 2"});
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
    return std::make_unique<TableScanOp>((*t)->schema(), *t);
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
    return std::make_unique<HashJoinOp>(
        std::move(joined), Scan("probe"), Scan("build"),
        std::move(left_keys), std::move(right_keys), std::move(residual),
        join_type);
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

TEST_F(VectorJoinTest, HashJoinSqlMatchesTheNestedLoopPlan) {
  Insert("build", "(1, 1), (2, 2), (2, 3), (NULL, 4), (5, 5)");
  Insert("probe",
         "(2, 20), (2, 21), (1, 10), (NULL, 0), (7, 70), (5, 50)");
  // Forcing the planner away from index nested loops routes these
  // through HashJoinOp.
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
    const ResultSet rs = MustExecute(db_, sql);
    Result<ResultSet> nl = testutil::ExecuteNestedLoop(db_, sql);
    ASSERT_TRUE(nl.ok()) << sql << "\n  " << nl.status().ToString();
    EXPECT_TRUE(BitIdentical(rs, *nl)) << sql;
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

  void ExpectNestedLoopRows(const std::string& sql) {
    const ResultSet rs = MustExecute(db_, sql);
    Result<ResultSet> nl = testutil::ExecuteNestedLoop(db_, sql);
    ASSERT_TRUE(nl.ok()) << sql << "\n  " << nl.status().ToString();
    EXPECT_TRUE(BitIdentical(rs, *nl)) << sql;
  }

  Database db_;
};

TEST_F(VectorBandJoinTest, BandShapesMatchTheNestedLoopPlan) {
  ExpectNestedLoopRows(
      "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE s2.pos "
      "BETWEEN s1.pos - 3 AND s1.pos + 3 GROUP BY s1.pos ORDER BY 1");
  ExpectNestedLoopRows(
      "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos IN "
      "(s1.pos - 1, s1.pos, s1.pos + 1) ORDER BY 1, 2");
  ExpectNestedLoopRows(
      "SELECT s1.pos, COUNT(*) FROM seq s1, seq s2 WHERE s2.pos < s1.pos "
      "AND MOD(s2.pos, 4) = MOD(s1.pos, 4) GROUP BY s1.pos ORDER BY 1");
}

// ---------------------------------------------------------------------
// SUM fold: a SUM-only aggregate on an inner band join takes one (sum,
// count) partial per left row. The plan with the merge band join off
// (no fold) is the reference, compared bit for bit: a nested loop, or
// the index nested-loop join where the right table has a position
// index. Either gives each left row's candidates in key order, as the
// band join does, and every group below gets its candidates from one
// left row, so even fractional double sums must agree exactly.
// ---------------------------------------------------------------------

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

  /// The folding join's EXPLAIN ANALYZE counters.
  struct FoldStats {
    bool folds = false;
    int64_t rows = 0;    ///< partial rows emitted
    int64_t prefix = 0;  ///< of those, answered from prefix sums
    int64_t affine = 0;  ///< left vectors resolved by offsets
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
      const size_t affine = e.detail.find("affine=");
      if (affine != std::string::npos) {
        stats.affine = std::stoll(e.detail.substr(affine + 7));
      }
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

  // The default plan folds and agrees bit for bit with the reference:
  // the plan that has the merge band join off.
  FoldStats ExpectFoldMatchesRef(const std::string& sql) {
    const FoldStats stats = Explain(sql);
    EXPECT_TRUE(stats.folds) << sql;
    const ResultSet folded = MustExecute(db_, sql);
    db_.options().exec.enable_merge_band_join = false;
    const ResultSet unfolded = MustExecute(db_, sql);
    db_.options().exec.enable_merge_band_join = true;
    EXPECT_TRUE(BitIdentical(folded, unfolded)) << sql;
    return stats;
  }

  // ... and every partial row came from prefix sums.
  void ExpectPrefixMatchesRef(const std::string& sql) {
    const FoldStats stats = ExpectFoldMatchesRef(sql);
    EXPECT_GT(stats.rows, 0) << sql;
    EXPECT_EQ(stats.prefix, stats.rows) << sql;
  }

  // ... and every partial row came from the candidate walk.
  void ExpectWalkMatchesRef(const std::string& sql) {
    const FoldStats stats = ExpectFoldMatchesRef(sql);
    EXPECT_GT(stats.rows, 0) << sql;
    EXPECT_EQ(stats.prefix, 0) << sql;
  }

  void ExpectUnfolded(const std::string& sql) {
    EXPECT_FALSE(Folds(sql)) << sql;
  }

  // `sql` folds with `left_vectors` left vectors, every one resolved by
  // offsets; its non-affine twin, which writes s1.pos as s1.pos * 1,
  // folds with none; and the two agree bit for bit, each with the
  // reference.
  void ExpectAffineMatchesTwin(const std::string& sql,
                               int64_t left_vectors) {
    const std::string twin = fuzzing::NonAffineBandSql(sql);
    ASSERT_NE(twin, sql);
    EXPECT_EQ(ExpectFoldMatchesRef(sql).affine, left_vectors) << sql;
    EXPECT_EQ(ExpectFoldMatchesRef(twin).affine, 0) << twin;
    EXPECT_TRUE(BitIdentical(MustExecute(db_, sql), MustExecute(db_, twin)))
        << sql;
  }

  Database db_;
};

TEST_F(BandFoldTest, MinoaNonCoincidentClass) {
  MinoaParams params;  // (Δl + Δh) mod w_x != 0: two signed chains
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  ExpectFoldMatchesRef(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
  params.delta_l = -2;  // raw-from-sliding shape: negative deltas
  params.delta_h = -1;
  ExpectFoldMatchesRef(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, MinoaCoincidentClass) {
  MinoaParams params;  // Δl + Δh = w_x: one bounded positive chain
  params.delta_l = 2;
  params.delta_h = 2;
  params.wx = 4;
  ExpectFoldMatchesRef(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, MinoaCumulative) {
  const WindowSpec view = WindowSpec::SlidingUnchecked(2, 1);
  ExpectFoldMatchesRef(MinoaCumulativeSql("vx", view, 50) + " ORDER BY 1");
}

TEST_F(BandFoldTest, Fig2BetweenSelfJoin) {
  ExpectFoldMatchesRef(SelfJoinWindowSql("vx", "pos", "val",
                                         WindowSpec::SlidingUnchecked(3, 2),
                                         /*use_in_predicate=*/false) +
                       " ORDER BY 1");
}

// ---------------------------------------------------------------------
// Affine bands (DESIGN.md §16 "Affine bands"): the bounds, anchors and
// CASE leaves of these shapes resolve from s1.pos by offsets, once per
// Open for the leaves; the twin resolves them through the evaluator,
// row by row. vx's fractional values take the walk, vn's integral ones
// the prefix path.
// ---------------------------------------------------------------------

TEST_F(BandFoldTest, AffineMinoaShapesMatchTheNonAffineTwin) {
  for (const char* table : {"vx", "vn"}) {
    MinoaParams params;
    params.wx = 4;
    for (const auto& [dl, dh] : std::vector<std::pair<int, int>>{
             {1, 0}, {-2, -1}, {2, 2}}) {  // two chains, raw, coincident
      params.delta_l = dl;
      params.delta_h = dh;
      ExpectAffineMatchesTwin(
          MinoaSql(table, params, 50, false) + " ORDER BY 1", 1);
    }
    ExpectAffineMatchesTwin(
        MinoaCumulativeSql(table, WindowSpec::SlidingUnchecked(2, 1), 50) +
            " ORDER BY 1",
        1);
    ExpectAffineMatchesTwin(
        SelfJoinWindowSql(table, "pos", "val",
                          WindowSpec::SlidingUnchecked(3, 2),
                          /*use_in_predicate=*/false) +
            " ORDER BY 1",
        1);
  }
}

TEST_F(BandFoldTest, AffineLeftInputsAtTheVectorBoundary) {
  // 1, 1 024 and 1 025 left rows: one vector, one full vector, and a
  // full one plus a one-row one.
  for (const int n : {1, 1024, 1025}) {
    const std::string table = "seq" + std::to_string(n);
    MustExecute(db_, "CREATE TABLE " + table + " (pos INTEGER, val DOUBLE)");
    MustExecute(db_, "INSERT INTO " + table + " VALUES " +
                         IntegralRows(1, n));
    const int64_t vectors = n > 1024 ? 2 : 1;
    MinoaParams params;
    params.delta_l = 3;
    params.delta_h = 1;
    params.wx = 5;
    ExpectAffineMatchesTwin(
        MinoaSql(table, params, n, false) + " ORDER BY 1", vectors);
    ExpectAffineMatchesTwin(
        MinoaCumulativeSql(table, WindowSpec::SlidingUnchecked(2, 2), n) +
            " ORDER BY 1",
        vectors);
  }
}

TEST_F(BandFoldTest, AffineNullKeysMakeNoGroup) {
  // A left key column with NULLs: their bands are empty, as the
  // evaluator's NULL bounds make them, and they form no group.
  MustExecute(db_, "CREATE TABLE nk (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO nk VALUES (1, 1), (NULL, 2), (5, 3), "
                   "(NULL, 4), (9, 5), (30, 6)");
  // MinOA's two-chain shape without its body range, which would drop
  // the NULL keys before the join.
  const std::string sql =
      "SELECT s1.pos, SUM(CASE WHEN MOD(s1.pos + 1, 4) = MOD(s2.pos, 4) "
      "THEN s2.val ELSE (-1) * s2.val END) FROM nk s1, vn s2 WHERE "
      "(s2.pos <= s1.pos + 1 AND MOD(s1.pos + 1, 4) = MOD(s2.pos, 4)) OR "
      "(s2.pos <= s1.pos - 1 - 4 AND MOD(s1.pos - 1, 4) = MOD(s2.pos, 4)) "
      "GROUP BY s1.pos ORDER BY 1";
  ExpectAffineMatchesTwin(sql, 1);
  EXPECT_EQ(MustExecute(db_, sql).NumRows(), 4u);
}

TEST_F(BandFoldTest, AffineMixedTagKeysEvaluate) {
  // COALESCE(d, i) is INTEGER-tagged where d is NULL and DOUBLE-tagged
  // elsewhere (a table column cannot mix them). A vector with a DOUBLE
  // key resolves through the evaluator; one with only INTEGER keys by
  // offsets, whatever the column's declared type.
  MustExecute(db_, "CREATE TABLE mk (d DOUBLE, i INTEGER)");
  MustExecute(db_, "INSERT INTO mk VALUES (NULL, 3), (7.5, 7), (NULL, 12), "
                   "(NULL, NULL), (20.25, 20), (NULL, 40)");
  MustExecute(db_, "CREATE TABLE ik (d DOUBLE, i INTEGER)");
  MustExecute(db_, "INSERT INTO ik VALUES (NULL, 3), (NULL, 12), (NULL, 40)");
  for (const auto& [table, affine] :
       std::vector<std::pair<std::string, int64_t>>{{"mk", 0}, {"ik", 1}}) {
    ExpectAffineMatchesTwin(
        "SELECT s1.pos, SUM(s2.val) FROM (SELECT COALESCE(d, i) AS pos "
        "FROM " + table + ") s1, vn s2 WHERE s2.pos BETWEEN s1.pos - 2 "
        "AND s1.pos + 3 GROUP BY s1.pos ORDER BY 1",
        affine);
  }
}

TEST_F(BandFoldTest, LeftRowsWithoutCandidatesMakeNoGroup) {
  // Keys past 60 have no partner; they must not appear at all.
  ExpectFoldMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM vx s1, vx s2 WHERE s2.pos BETWEEN "
      "s1.pos + 50 AND s1.pos + 52 GROUP BY s1.pos ORDER BY 1");
  ExpectFoldMatchesRef(
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
  ExpectFoldMatchesRef(sql);
  const ResultSet rs = MustExecute(db_, sql);
  ASSERT_EQ(rs.NumRows(), 7u);
  EXPECT_TRUE(rs.rows()[4][1].is_null());  // pos 5: runs 4..6 all NULL
  EXPECT_EQ(rs.rows()[3][1], Value::Double(1.5));
}

TEST_F(BandFoldTest, Int64DoubleAndMixedTagValues) {
  // INTEGER sum with literal factors.
  ExpectFoldMatchesRef(
      "SELECT s1.pos, SUM(2 * s2.val), SUM(-(s2.val * 3)) FROM vi s1, vi s2 "
      "WHERE s2.pos BETWEEN s1.pos - 2 AND s1.pos + 1 GROUP BY s1.pos "
      "ORDER BY 1");
  // int64 cells times a left-side double factor, and a CASE whose
  // branches yield int64 and double values for the same SUM.
  ExpectFoldMatchesRef(
      "SELECT s1.pos, SUM(s1.f * s2.val), SUM(CASE WHEN MOD(s1.pos, 3) = "
      "MOD(s2.pos, 3) THEN 2 * s2.val ELSE 0.5 * s2.val END) FROM vi s1, "
      "vi s2 WHERE (s2.pos < s1.pos AND MOD(s2.pos, 3) = MOD(s1.pos, 3)) "
      "OR (s2.pos <= s1.pos + 4 AND MOD(s2.pos, 3) = MOD(s1.pos + 1, 3)) "
      "GROUP BY s1.pos ORDER BY 1");
  // Double cells: negation, a factor after a negation, and nested
  // multiplications (kept in the row path's order).
  ExpectFoldMatchesRef(
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
  ExpectFoldMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM dup s1, dup s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, BandWithResidual) {
  ExpectFoldMatchesRef(
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
  ExpectFoldMatchesRef(sql + " ORDER BY 1");
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

  Result<ResultSet> nl = testutil::ExecuteNestedLoop(db_, sql);
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  const ResultSet& reference = *nl;
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
  // The unfolded reference probes this index instead of looping over
  // 1 500 × 1 500 pairs.
  MustExecute(db_, "CREATE INDEX big_pos ON big (pos)");
  ExpectFoldMatchesRef(SelfJoinWindowSql("big", "pos", "val",
                                         WindowSpec::SlidingUnchecked(40, 2),
                                         /*use_in_predicate=*/false) +
                       " ORDER BY 1");
  MinoaParams params;
  params.delta_l = 3;
  params.delta_h = 0;
  params.wx = 7;
  ExpectFoldMatchesRef(MinoaSql("big", params, 1490, false) + " ORDER BY 1");
}

TEST_F(BandFoldTest, CongruenceConditionOnNullAnchor) {
  // The CASE anchor is a column the band does not read, so a left row
  // with candidates can still have a NULL anchor: the condition is then
  // NULL and every candidate takes the ELSE branch.
  MustExecute(db_, "CREATE TABLE na (pos INTEGER, k INTEGER)");
  MustExecute(db_,
              "INSERT INTO na VALUES (9, 3), (10, NULL), (11, 5), "
              "(12, NULL), (13, 2), (14, 7)");
  ExpectFoldMatchesRef(
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
  ExpectPrefixMatchesRef(MinoaSql("vn", params, 50, false) + " ORDER BY 1");
  params.delta_l = -2;
  params.delta_h = -1;
  ExpectPrefixMatchesRef(MinoaSql("vn", params, 50, false) + " ORDER BY 1");
  params.delta_l = 2;  // coincident classes: one bounded chain
  params.delta_h = 2;
  ExpectPrefixMatchesRef(MinoaSql("vn", params, 50, false) + " ORDER BY 1");
  ExpectPrefixMatchesRef(
      MinoaCumulativeSql("vn", WindowSpec::SlidingUnchecked(2, 1), 50) +
      " ORDER BY 1");
  for (const bool in_predicate : {false, true}) {
    ExpectPrefixMatchesRef(SelfJoinWindowSql(
                               "vn", "pos", "val",
                               WindowSpec::SlidingUnchecked(3, 2),
                               in_predicate) +
                           " ORDER BY 1");
  }
  // INTEGER sums with integer factors, and a DOUBLE sum of int64 cells.
  ExpectPrefixMatchesRef(
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
  ExpectPrefixMatchesRef(sql);
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
  ExpectPrefixMatchesRef(MinoaSql("nn", params, 8, false) + " ORDER BY 1");
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
  ExpectPrefixMatchesRef(sql);
  const ResultSet rs = MustExecute(db_, sql);
  ASSERT_EQ(rs.NumRows(), 4u);
  EXPECT_TRUE(rs.rows()[1][1].is_null());
  EXPECT_FALSE(rs.rows()[1][2].is_null());
  EXPECT_FALSE(rs.rows()[2][1].is_null());
}

TEST_F(BandFoldTest, PrefixLeafErrorsFollowRowOrder) {
  // Leaf factors that fail on some left rows: the first failing row in
  // row order (pos 2, MOD by zero, before pos 3's division by zero)
  // raises its error, though the rows before it take the prefix path.
  const std::string sql =
      "SELECT s1.pos, SUM((1 / (s1.pos - 3)) * s2.val), SUM(MOD(1, s1.pos "
      "- 2) * s2.val) FROM vn s1, vn s2 WHERE s2.pos BETWEEN s1.pos - 1 AND "
      "s1.pos + 1 GROUP BY s1.pos";
  const std::string expected =
      Status::ExecutionError("MOD by zero").ToString();
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
  ASSERT_NE(band, nullptr);
  ASSERT_TRUE(band->folding());
  Result<std::vector<Row>> folded = ExecuteToVector(op.get());
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().ToString(), expected);
  Result<ResultSet> rs = db_.Execute(sql);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().ToString(), expected);
}

TEST_F(BandFoldTest, PrefixRowsWithEmptyBandsMakeNoGroup) {
  // Keys past 60 have no partner, and a NULL bound empties the band:
  // neither left row may produce a group or count as a prefix row.
  const FoldStats stats = ExpectFoldMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE s2.pos BETWEEN "
      "s1.pos + 50 AND s1.pos + 52 GROUP BY s1.pos ORDER BY 1");
  EXPECT_EQ(stats.rows, 15);  // s1.pos -4..10
  EXPECT_EQ(stats.prefix, 15);
  MustExecute(db_, "CREATE TABLE nb (pos INTEGER, k INTEGER)");
  MustExecute(db_,
              "INSERT INTO nb VALUES (1, 3), (2, NULL), (3, 90), (4, 7), "
              "(5, NULL)");
  const FoldStats nb = ExpectFoldMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM nb s1, vn s2 WHERE s2.pos BETWEEN "
      "s1.k - 2 AND s1.k GROUP BY s1.pos ORDER BY 1");
  EXPECT_EQ(nb.rows, 2);  // only k = 3 and k = 7 meet keys
  EXPECT_EQ(nb.prefix, 2);
}

TEST_F(BandFoldTest, PrefixLeftInputCrossesVectorBoundary) {
  MustExecute(db_, "CREATE TABLE bigi (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO bigi VALUES " + IntegralRows(1, 1500));
  MustExecute(db_, "CREATE INDEX bigi_pos ON bigi (pos)");
  MinoaParams params;
  params.delta_l = 3;
  params.delta_h = 0;
  params.wx = 7;
  const FoldStats stats =
      ExpectFoldMatchesRef(MinoaSql("bigi", params, 1490, false) +
                           " ORDER BY 1");
  EXPECT_EQ(stats.rows, 1490);
  EXPECT_EQ(stats.prefix, 1490);
  ExpectPrefixMatchesRef(SelfJoinWindowSql("bigi", "pos", "val",
                                           WindowSpec::SlidingUnchecked(40, 2),
                                           /*use_in_predicate=*/false) +
                         " ORDER BY 1");
}

// Fallbacks: each case runs the walk for every row and still agrees
// with the unfolded plan bit for bit.

TEST_F(BandFoldTest, FractionalDoublesWalk) {
  MinoaParams params;
  params.delta_l = 1;
  params.delta_h = 0;
  params.wx = 4;
  ExpectWalkMatchesRef(MinoaSql("vx", params, 50, false) + " ORDER BY 1");
  // Integral cells, fractional factor: decided per left row.
  ExpectWalkMatchesRef(
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
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM hd s1, hd s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
  // INTEGER: 2^60 · 16 keys > INT64_MAX.
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM hi s1, hi s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
  // Small cells, but a coefficient of 2^46 · 11 · 65 keys > 2^53.
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(70368744177664 * s2.val) FROM vn s1, vn s2 WHERE "
      "s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, OverlappingBandsWalk) {
  // Same residue, overlapping spans: a shared key is one candidate.
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE (s2.pos <= s1.pos "
      "AND MOD(s2.pos, 3) = MOD(s1.pos, 3)) OR (s2.pos BETWEEN s1.pos - 6 "
      "AND s1.pos + 3 AND MOD(s2.pos, 3) = MOD(s1.pos, 3)) GROUP BY s1.pos "
      "ORDER BY 1");
  // Plain intervals that overlap, and a repeated IN point.
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE (s2.pos BETWEEN "
      "s1.pos - 3 AND s1.pos) OR (s2.pos BETWEEN s1.pos - 1 AND s1.pos + 2) "
      "GROUP BY s1.pos ORDER BY 1");
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE s2.pos IN "
      "(s1.pos - 1, s1.pos - 1) GROUP BY s1.pos ORDER BY 1");
}

TEST_F(BandFoldTest, ResidualAndApproximateBandsWalk) {
  ExpectWalkMatchesRef(
      "SELECT s1.pos, SUM(s2.val) FROM vn s1, vn s2 WHERE s2.pos BETWEEN "
      "s1.pos - 3 AND s1.pos + 3 AND s2.val > s1.val GROUP BY s1.pos "
      "ORDER BY 1");
  // An OR branch with a conjunct the band cannot hold over-approximates
  // and re-checks the whole condition per candidate.
  ExpectWalkMatchesRef(
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
  // residual removes (every vx value is below 1000). An unfolded plan
  // never evaluates it there, so the fold may not raise it either,
  // though its per-vector leaf resolution meets it.
  const std::string sql =
      "SELECT s1.pos, SUM((1 / (s1.pos - 3)) * s2.val) FROM vx s1, vx s2 "
      "WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 AND (s1.pos <> 3 OR "
      "s2.val > 1000) GROUP BY s1.pos ORDER BY 1";
  const FoldStats stats = ExpectFoldMatchesRef(sql);
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

TEST_F(BandFoldTest, IntegerSumOverflowErrorsInEveryPlan) {
  // INT64_MAX cells: every window sum leaves int64. The nested-loop
  // plan, the unfolded aggregate over the band join and the fold (whose
  // prefix path the magnitude rules out) all report the same error.
  MustExecute(db_, "CREATE TABLE ov (pos INTEGER, v INTEGER)");
  MustExecute(db_,
              "INSERT INTO ov VALUES (1, 9223372036854775807), "
              "(2, 9223372036854775807), (3, 9223372036854775807)");
  const std::string sql =
      "SELECT s1.pos, SUM(s2.v) FROM ov s1, ov s2 WHERE s2.pos BETWEEN "
      "s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos";
  const std::string expected =
      Status::ExecutionError("integer overflow in SUM").ToString();
  Result<ResultSet> nl = testutil::ExecuteNestedLoop(db_, sql);
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
  ASSERT_NE(band, nullptr);
  ASSERT_TRUE(band->folding());
  Result<std::vector<Row>> folded = ExecuteToVector(op.get());
  // The aggregate on the unfolded band join: a second aggregate keeps
  // the fold off.
  Result<ResultSet> unfolded = db_.Execute(
      "SELECT s1.pos, SUM(s2.v), COUNT(*) FROM ov s1, ov s2 WHERE s2.pos "
      "BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos");
  ASSERT_FALSE(nl.ok());
  ASSERT_FALSE(unfolded.ok());
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(nl.status().ToString(), expected);
  EXPECT_EQ(unfolded.status().ToString(), expected);
  EXPECT_EQ(folded.status().ToString(), expected);
  // A global SUM, and a total that overshoots only transiently.
  Result<ResultSet> global = db_.Execute("SELECT SUM(v) FROM ov");
  ASSERT_FALSE(global.ok());
  EXPECT_EQ(global.status().ToString(), expected);
  MustExecute(db_, "INSERT INTO ov VALUES (4, -9223372036854775807), "
                   "(5, -9223372036854775807)");
  const ResultSet rs = MustExecute(db_, "SELECT SUM(v) FROM ov");
  EXPECT_EQ(rs.rows()[0][0], Value::Int(std::numeric_limits<int64_t>::max()));
}

// ---------------------------------------------------------------------
// The aggregate's direct path over the fold (folded input, one group
// key): while the int64 key strictly ascends with no NULL, each partial
// row is a group of its own and its SUM cells are written from the
// partial; the first row that breaks the run hands the groups so far to
// the hash path. Every case is checked bit for bit against the plan
// without the band join, with and without ORDER BY (without it, the
// group order shows too), and DirectHeld says whether the run lasted.
// ---------------------------------------------------------------------

class FoldDirectPathTest : public BandFoldTest {
 protected:
  void SetUp() override {
    BandFoldTest::SetUp();
    // The right side: positions 1..1100 with small integral DOUBLE and
    // INTEGER values (so the reference's sums are exact), indexed so the
    // reference plan joins by index probes.
    std::string rows;
    for (int p = 1; p <= 1100; ++p) {
      if (p > 1) rows += ", ";
      rows += "(" + std::to_string(p) + ", " +
              std::to_string((p * 37 + 11) % 23 - 11) + ", " +
              std::to_string((p * 13) % 17 - 8) + ")";
    }
    MustExecute(db_, "CREATE TABLE rn (pos INTEGER PRIMARY KEY, val DOUBLE, "
                     "iv INTEGER)");
    MustExecute(db_, "INSERT INTO rn VALUES " + rows);
  }

  /// Creates `name` (pos INTEGER, g INTEGER, d DOUBLE) with rows
  /// pos = 1..n, g = pos and d NULL, except that position p of
  /// `overrides` gets the given "g, d" cells.
  void CreateLeft(const std::string& name, int n,
                  const std::vector<std::pair<int, std::string>>& overrides =
                      {}) {
    std::string rows;
    for (int p = 1; p <= n; ++p) {
      std::string cells = std::to_string(p) + ", NULL";
      for (const auto& [at, text] : overrides) {
        if (at == p) cells = text;
      }
      rows += (p > 1 ? ", (" : "(") + std::to_string(p) + ", " + cells + ")";
    }
    MustExecute(db_, "CREATE TABLE " + name +
                         " (pos INTEGER, g INTEGER, d DOUBLE)");
    MustExecute(db_, "INSERT INTO " + name + " VALUES " + rows);
  }

  /// A folded DOUBLE and INTEGER SUM over `left`, grouped by its key
  /// COALESCE(d, g) (INTEGER-tagged unless d is set).
  static std::string GroupSql(const std::string& left) {
    return "SELECT s1.g, SUM(s2.val), SUM(s2.iv) FROM (SELECT pos, "
           "COALESCE(d, g) AS g FROM " + left + ") s1, rn s2 WHERE s2.pos "
           "BETWEEN s1.pos - 2 AND s1.pos + 1 GROUP BY s1.g";
  }

  /// Runs the default plan of `sql`, whose aggregate must take folded
  /// input, and returns whether the direct path held for its whole
  /// input.
  bool DirectHeld(const std::string& sql) {
    PhysicalOperatorPtr op;
    MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
    EXPECT_TRUE(band != nullptr && band->folding()) << sql;
    HashAggregateOp* agg =
        op != nullptr ? FindOp<HashAggregateOp>(op.get()) : nullptr;
    if (agg == nullptr) {
      ADD_FAILURE() << "no aggregate in the plan of " << sql;
      return false;
    }
    const Result<std::vector<Row>> rows = ExecuteToVector(op.get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return agg->ColumnStrictlyAscends(0);
  }

  /// `sql` folds, agrees with the reference with and without ORDER BY,
  /// and its direct path holds iff `held`.
  void ExpectDirect(const std::string& sql, bool held) {
    ExpectFoldMatchesRef(sql);
    ExpectFoldMatchesRef(sql + " ORDER BY 1");
    EXPECT_EQ(DirectHeld(sql), held) << sql;
  }
};

TEST_F(FoldDirectPathTest, AscendingKeysHoldAcrossVectorSizes) {
  for (const int n : {1, 1024, 1025}) {
    const std::string left = "l" + std::to_string(n);
    CreateLeft(left, n);
    ExpectDirect(GroupSql(left), true);
    EXPECT_EQ(MustExecute(db_, GroupSql(left)).NumRows(),
              static_cast<size_t>(n));
  }
}

TEST_F(FoldDirectPathTest, RepeatedKeyBreaksTheRun) {
  // Right after the first group, on the first row of the second vector,
  // and inside it: the repeated key's partial joins its group.
  for (const int at : {2, 1025, 1050}) {
    const std::string left = "r" + std::to_string(at);
    CreateLeft(left, 1100, {{at, std::to_string(at - 1) + ", NULL"}});
    ExpectDirect(GroupSql(left), false);
    EXPECT_EQ(MustExecute(db_, GroupSql(left)).NumRows(), 1099u);
  }
}

TEST_F(FoldDirectPathTest, LowerKeyBreaksTheRun) {
  // Key 3 again at position 1050: its partial combines with group 3,
  // which sits in the first output vector.
  CreateLeft("lower", 1100, {{1050, "3, NULL"}});
  ExpectDirect(GroupSql("lower"), false);
  // A new key below the run's last one opens a group of its own.
  CreateLeft("gap", 1100, {{1, "-5, NULL"}, {2, "-7, NULL"}});
  ExpectDirect(GroupSql("gap"), false);
}

TEST_F(FoldDirectPathTest, NullKeyBreaksTheRun) {
  CreateLeft("nul", 1100, {{1050, "NULL, NULL"}, {1070, "NULL, NULL"}});
  ExpectDirect(GroupSql("nul"), false);
  EXPECT_EQ(MustExecute(db_, GroupSql("nul")).NumRows(), 1099u);
}

TEST_F(FoldDirectPathTest, DoubleKeyBreaksTheRun) {
  // A DOUBLE key equal to an earlier INTEGER one joins its group (the
  // map migrates to the generic lookup from the rebuilt groups); a
  // fractional one opens its own.
  CreateLeft("dbl", 1100, {{1050, "1050, 3.0"}, {1060, "1060, 1059.5"}});
  ExpectDirect(GroupSql("dbl"), false);
  EXPECT_EQ(MustExecute(db_, GroupSql("dbl")).NumRows(), 1099u);
}

TEST_F(FoldDirectPathTest, ZeroCountPartialGivesNull) {
  MustExecute(db_, "CREATE TABLE nv2 (pos INTEGER, val DOUBLE, iv INTEGER)");
  MustExecute(db_,
              "INSERT INTO nv2 VALUES (1, NULL, NULL), (2, NULL, NULL), "
              "(3, 1.5, 4), (4, NULL, NULL), (5, NULL, NULL), "
              "(6, NULL, NULL), (7, 2.25, -3)");
  const std::string sql =
      "SELECT s1.pos, SUM(s2.val), SUM(s2.iv) FROM nv2 s1, nv2 s2 WHERE "
      "s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos";
  ExpectDirect(sql, true);
  const ResultSet rs = MustExecute(db_, sql);
  ASSERT_EQ(rs.NumRows(), 7u);
  EXPECT_TRUE(rs.rows()[4][1].is_null());  // pos 5: 4..6 are all NULL
  EXPECT_TRUE(rs.rows()[4][2].is_null());
  EXPECT_TRUE(SameCell(rs.rows()[3][1], Value::Double(1.5)));
  EXPECT_TRUE(SameCell(rs.rows()[3][2], Value::Int(4)));
}

// Folded input written by hand, as a folding band join hands it to its
// aggregate: rows (key, partial sum, partial count), kVectorSize per
// vector. The join itself starts every partial at +0.0, so only this
// input carries a -0.0 partial.
class PartialRowsOp : public PhysicalOperator {
 public:
  PartialRowsOp(DataType sum_type, std::vector<Row> rows)
      : PhysicalOperator(Schema({ColumnDef("k", DataType::kInt64),
                                 ColumnDef("sum", sum_type),
                                 ColumnDef("n", DataType::kInt64)})),
        rows_(std::move(rows)) {}
  const char* name() const override { return "partial_rows"; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  Status NextVectorImpl(VectorProjection** out, bool* eof) override {
    const size_t n = std::min(kVectorSize, rows_.size() - next_);
    vp_.Reset(3, n);
    for (size_t i = 0; i < n; ++i) vp_.WriteRow(i, rows_[next_ + i]);
    next_ += n;
    *out = &vp_;
    *eof = next_ == rows_.size();
    return Status::OK();
  }

 private:
  std::vector<Row> rows_;
  size_t next_ = 0;
  VectorProjection vp_;
};

// SUM over PartialRowsOp grouped by its key; *ascends is the
// aggregate's answer for the key column after the run.
std::vector<Row> AggregatePartials(DataType sum_type, std::vector<Row> rows,
                                   bool* ascends) {
  std::vector<ExprPtr> group_by;
  group_by.push_back(eb::Col(0, DataType::kInt64));
  std::vector<AggregateCall> aggs(1);
  aggs[0].fn = AggFn::kSum;
  aggs[0].arg = eb::Col(1, sum_type);
  aggs[0].output_type = sum_type;
  HashAggregateOp agg(
      Schema({ColumnDef("k", DataType::kInt64), ColumnDef("s", sum_type)}),
      std::make_unique<PartialRowsOp>(sum_type, std::move(rows)),
      std::move(group_by), std::move(aggs));
  agg.SetFoldedInput(1);
  Result<std::vector<Row>> out = ExecuteToVector(&agg);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  *ascends = agg.ColumnStrictlyAscends(0);
  return out.ok() ? std::move(out).value() : std::vector<Row>();
}

TEST(FoldDirectPartialsTest, NegativeZeroPartialReadsPositiveZero) {
  // The accumulator adds each partial to +0.0, so a lone -0.0 partial
  // finishes as +0.0; the direct path writes the same bits, and so does
  // a group rebuilt after the run breaks. A zero-count partial is NULL
  // whatever its sum lane holds.
  const Value neg_zero = Value::Double(-0.0);
  bool ascends = false;
  std::vector<Row> out = AggregatePartials(
      DataType::kDouble,
      {Row({Value::Int(1), neg_zero, Value::Int(1)}),
       Row({Value::Int(2), neg_zero, Value::Int(3)}),
       Row({Value::Int(3), Value::Double(5.0), Value::Int(0)})},
      &ascends);
  EXPECT_TRUE(ascends);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(SameCell(out[0][1], Value::Double(0.0))) << out[0].ToString();
  EXPECT_TRUE(SameCell(out[1][1], Value::Double(0.0))) << out[1].ToString();
  EXPECT_TRUE(out[2][1].is_null());
  out = AggregatePartials(DataType::kDouble,
                          {Row({Value::Int(1), neg_zero, Value::Int(1)}),
                           Row({Value::Int(2), neg_zero, Value::Int(1)}),
                           Row({Value::Int(1), neg_zero, Value::Int(1)})},
                          &ascends);
  EXPECT_FALSE(ascends);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(SameCell(out[0][1], Value::Double(0.0))) << out[0].ToString();
  EXPECT_TRUE(SameCell(out[1][1], Value::Double(0.0))) << out[1].ToString();
}

TEST(FoldDirectPartialsTest, BreakAcrossVectorsCombinesWithEarlierGroups) {
  // 1 500 ascending keys, then keys 1 and 1 499 again: the partials of
  // the second pass land on the groups of the first (one in the first
  // output vector, one in the second), as on the hash path.
  std::vector<Row> rows;
  for (int64_t k = 1; k <= 1500; ++k) {
    rows.push_back(Row({Value::Int(k), Value::Int(k * 10), Value::Int(1)}));
  }
  rows.push_back(Row({Value::Int(1), Value::Int(7), Value::Int(1)}));
  rows.push_back(Row({Value::Int(1499), Value::Int(0), Value::Int(0)}));
  rows.push_back(Row({Value::Int(1501), Value::Int(-3), Value::Int(2)}));
  bool ascends = true;
  const std::vector<Row> out =
      AggregatePartials(DataType::kInt64, std::move(rows), &ascends);
  EXPECT_FALSE(ascends);
  ASSERT_EQ(out.size(), 1501u);
  EXPECT_TRUE(SameCell(out[0][1], Value::Int(17)));
  EXPECT_TRUE(SameCell(out[1498][1], Value::Int(14990)));
  EXPECT_TRUE(SameCell(out[1499][1], Value::Int(15000)));
  EXPECT_TRUE(SameCell(out[1500][1], Value::Int(-3)));
}

TEST_F(FoldDirectPathTest, IntegerSumOverflowAfterTheBreak) {
  // Key 2 twice: the direct path holds one partial per group, each in
  // range; the break combines the two of key 2 past INT64_MAX, which
  // the finished groups report as in every plan.
  MustExecute(db_, "CREATE TABLE big (pos INTEGER PRIMARY KEY, v INTEGER)");
  MustExecute(db_,
              "INSERT INTO big VALUES (1, 5000000000000000000), "
              "(2, 5000000000000000000)");
  MustExecute(db_, "CREATE TABLE twice (pos INTEGER)");
  MustExecute(db_, "INSERT INTO twice VALUES (1), (2), (2)");
  const std::string sql =
      "SELECT s1.pos, SUM(s2.v) FROM twice s1, big s2 WHERE s2.pos "
      "BETWEEN s1.pos AND s1.pos GROUP BY s1.pos";
  const std::string expected =
      Status::ExecutionError("integer overflow in SUM").ToString();
  PhysicalOperatorPtr op;
  MergeBandJoinOp* band = BuildBandJoinPlan(sql, &op);
  ASSERT_NE(band, nullptr);
  ASSERT_TRUE(band->folding());
  const Result<std::vector<Row>> folded = ExecuteToVector(op.get());
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().ToString(), expected);
  db_.options().exec.enable_merge_band_join = false;
  const Result<ResultSet> unfolded = db_.Execute(sql);
  db_.options().exec.enable_merge_band_join = true;
  ASSERT_FALSE(unfolded.ok());
  EXPECT_EQ(unfolded.status().ToString(), expected);
  // One row per key stays in range on the direct path.
  MustExecute(db_, "DELETE FROM twice WHERE pos = 2");
  MustExecute(db_, "INSERT INTO twice VALUES (2)");
  ExpectDirect(sql, true);
}

TEST_F(ExecSqlTest, ErrorsFollowRowOrder) {
  // The second statement's merge band join has two bands whose bounds
  // fail on different rows: one on the first row (a = 1, division by
  // zero), the other on the second (a = 2, MOD by zero), which the join
  // resolves first. The join resolves a whole left vector's bands at
  // once, yet must raise the first row's error, as the nested-loop plan
  // does.
  const std::string band_sql =
      "SELECT t1.a, t2.a FROM t t1, t t2 WHERE t2.a BETWEEN t1.a AND "
      "t1.a + 1 / (t1.a - 1) OR t2.a BETWEEN t1.a AND t1.a + MOD(1, "
      "t1.a - 2)";
  const std::string expected =
      Status::ExecutionError("division by zero").ToString();
  for (const std::string& sql : {std::string("SELECT 1 / (a - a) FROM t"),
                                 band_sql}) {
    Result<ResultSet> rs = db_.Execute(sql);
    Result<ResultSet> nl = testutil::ExecuteNestedLoop(db_, sql);
    ASSERT_FALSE(rs.ok()) << sql;
    ASSERT_FALSE(nl.ok()) << sql;
    EXPECT_EQ(rs.status().ToString(), expected) << sql;
    EXPECT_EQ(nl.status().ToString(), expected) << sql;
  }
  // The plan under test: the band join, with both bands.
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
