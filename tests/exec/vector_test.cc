// Unit tests for the columnar execution primitives: Vector (per-element
// tagged lanes), SelectionVector (ascending alive-row indices),
// VectorProjection (column set + selection), and VectorEvaluator. The
// evaluator tests pin the semantics contract that the differential
// oracles rely on: every selected row computes exactly the value — and
// evaluates exactly the set of sub-expressions — that the row-at-a-time
// Evaluator would, including lazy CASE/AND/OR/COALESCE sub-selections
// and identical runtime-error behavior.

#include "exec/vector.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "expr/builder.h"
#include "expr/eval.h"

namespace rfv {
namespace {

using namespace eb;  // Lit/Int/Col/Add/... expression factories

/// Resets *vp to `rows` (each `width` cells wide, tags kept) under a
/// full selection.
void FillRows(VectorProjection* vp, size_t width,
              const std::vector<Row>& rows) {
  vp->Reset(width, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < width; ++c) {
      vp->column(c).SetValue(i, rows[i][c]);
    }
  }
}

TEST(VectorTest, ResetMakesAllNull) {
  Vector v;
  v.Reset(4);
  ASSERT_EQ(v.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(v.is_null(i));
    EXPECT_EQ(v.tag(i), DataType::kNull);
  }
}

TEST(VectorTest, SetGetRoundTripsTags) {
  Vector v;
  v.Reset(5);
  v.SetInt(0, 42);
  v.SetDouble(1, 2.5);
  v.SetBool(2, true);
  v.SetString(3, "abc");
  // element 4 stays NULL
  EXPECT_EQ(v.GetValue(0), Value::Int(42));
  EXPECT_EQ(v.GetValue(1), Value::Double(2.5));
  EXPECT_EQ(v.GetValue(2), Value::Bool(true));
  EXPECT_EQ(v.GetValue(3), Value::String("abc"));
  EXPECT_TRUE(v.GetValue(4).is_null());
  // Lane accessors agree with the boxed values.
  EXPECT_EQ(v.i64(0), 42);
  EXPECT_EQ(v.f64(1), 2.5);
  EXPECT_TRUE(v.b(2));
  EXPECT_EQ(v.str(3), "abc");
}

TEST(VectorTest, SetValuePreservesExactTag) {
  // INSERT does not coerce: an int Value in a DOUBLE column must stay
  // int-tagged through the vector, or materialized rows would differ
  // between execution modes.
  Vector v;
  v.Reset(2);
  v.SetValue(0, Value::Int(7));
  v.SetValue(1, Value::Double(7.0));
  EXPECT_EQ(v.tag(0), DataType::kInt64);
  EXPECT_EQ(v.tag(1), DataType::kDouble);
  EXPECT_EQ(v.GetValue(0), Value::Int(7));
  EXPECT_EQ(v.GetValue(1), Value::Double(7.0));
}

TEST(VectorTest, ResetReusesStorageAndClearsTags) {
  Vector v;
  v.Reset(3);
  v.SetString(0, "x");
  v.SetInt(1, 1);
  v.Reset(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.is_null(0));
  EXPECT_TRUE(v.is_null(1));
}

TEST(VectorTest, CopyFromCopiesTagAndPayload) {
  Vector a, b;
  a.Reset(2);
  a.SetString(0, "hello");
  a.SetDouble(1, -1.5);
  b.Reset(2);
  b.CopyFrom(0, a, 1);
  b.CopyFrom(1, a, 0);
  EXPECT_EQ(b.GetValue(0), Value::Double(-1.5));
  EXPECT_EQ(b.GetValue(1), Value::String("hello"));
}

TEST(SelectionVectorTest, InitFullIsIdentity) {
  SelectionVector sel;
  sel.InitFull(3);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 1u);
  EXPECT_EQ(sel[2], 2u);
  EXPECT_FALSE(sel.empty());
}

TEST(SelectionVectorTest, TruncateKeepsPrefix) {
  SelectionVector sel;
  sel.InitFull(5);
  sel.Truncate(2);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[1], 1u);
  sel.Truncate(99);  // no-op past the end
  EXPECT_EQ(sel.size(), 2u);
  sel.Clear();
  EXPECT_TRUE(sel.empty());
}

TEST(VectorProjectionTest, WriteRowInvertsMaterializeRow) {
  const Row row({Value::Null(), Value::Double(2.5), Value::Int(3),
                 Value::String("x"), Value::Bool(true)});
  VectorProjection vp;
  vp.Reset(6, 3);
  vp.WriteRow(1, row);
  Row back;
  vp.MaterializeRow(1, &back);
  ASSERT_EQ(back.size(), 6u);
  for (size_t c = 0; c < row.size(); ++c) {
    EXPECT_EQ(back[c].type(), row[c].type()) << "column " << c;
    EXPECT_EQ(back[c], row[c]) << "column " << c;
  }
  // Columns past the row's width, and the other rows, stay NULL.
  EXPECT_TRUE(back[5].is_null());
  vp.MaterializeRow(0, &back);
  for (size_t c = 0; c < 6; ++c) EXPECT_TRUE(back[c].is_null());
}

// The window writes its buffered rows and its computed columns into the
// lanes of one output projection, kVectorSize rows per vector: 2 500
// rows take three vectors, and every lane's tag and value must be the
// generator's. Its input column v mixes INTEGER-, DOUBLE- and
// NULL-tagged cells, computed as COALESCE(d, i) over a DOUBLE and an
// INTEGER column: a table column cannot hold them, because
// Table::ValidateAndCoerce stores an INTEGER cell of a DOUBLE column as
// DOUBLE, for SQL INSERT and Table::InsertBatch alike. After the last
// rows the window answers nullptr with eof.
TEST(WindowOpVectorTest, EveryLaneCarriesTheRowsTagAndValue) {
  Database db;
  Result<Table*> table = db.catalog()->CreateTable(
      "w", Schema({ColumnDef("k", DataType::kInt64),
                   ColumnDef("d", DataType::kDouble),
                   ColumnDef("i", DataType::kInt64)}));
  ASSERT_TRUE(table.ok());
  constexpr int64_t kRows = 2500;
  // v = COALESCE(d, i): NULL, DOUBLE or INTEGER by k.
  const auto v_of = [](int64_t k) {
    if (k % 5 == 0) return Value::Null();
    if (k % 2 == 0) return Value::Double(static_cast<double>(k) / 2);
    return Value::Int(k);
  };
  std::vector<Row> input;
  for (int64_t k = 1; k <= kRows; ++k) {
    const Value d = v_of(k).type() == DataType::kDouble ? v_of(k)
                                                         : Value::Null();
    const Value i = k % 5 == 0 ? Value::Null() : Value::Int(k);
    input.push_back(Row({Value::Int(k), d, i}));
  }
  ASSERT_TRUE((*table)->InsertBatch(std::move(input)).ok());
  Schema projected({ColumnDef("k", DataType::kInt64),
                    ColumnDef("v", DataType::kDouble)});
  std::vector<ExprPtr> projections;
  projections.push_back(Col(0, DataType::kInt64, "k"));
  projections.push_back(Coalesce(Col(1, DataType::kDouble, "d"),
                                 Col(2, DataType::kInt64, "i")));
  auto project = std::make_unique<ProjectOp>(
      projected, std::make_unique<TableScanOp>((*table)->schema(), *table),
      std::move(projections));
  // MIN(v) OVER (ORDER BY k ROWS BETWEEN CURRENT ROW AND CURRENT ROW),
  // which is v, and SUM(k) OVER (ORDER BY k ROWS BETWEEN 1 PRECEDING
  // AND CURRENT ROW), which is 2k - 1.
  const auto make_call = [](AggFn fn, size_t column, DataType type,
                            int64_t lo) {
    WindowCall call;
    call.kind = WindowFnKind::kAggregate;
    call.fn = fn;
    call.arg = Col(column, type, column == 0 ? "k" : "v");
    SortKey key;
    key.expr = Col(0, DataType::kInt64, "k");
    call.order_by.push_back(std::move(key));
    call.frame.lo_unbounded = false;
    call.frame.hi_unbounded = false;
    call.frame.lo = lo;
    call.output_name = "m";
    call.output_type = type;
    return call;
  };
  Schema out = projected;
  out.AddColumn(ColumnDef("m", DataType::kDouble));
  out.AddColumn(ColumnDef("s", DataType::kInt64));
  std::vector<WindowCall> calls;
  calls.push_back(make_call(AggFn::kMin, 1, DataType::kDouble, 0));
  calls.push_back(make_call(AggFn::kSum, 0, DataType::kInt64, -1));
  WindowOp window(std::move(out), std::move(project), std::move(calls));

  ASSERT_TRUE(window.Open().ok());
  int64_t k = 1;
  std::vector<size_t> sizes;
  while (true) {
    VectorProjection* vp = nullptr;
    bool eof = false;
    ASSERT_TRUE(window.NextVector(&vp, &eof).ok());
    if (eof) {
      EXPECT_EQ(vp, nullptr);
      break;
    }
    ASSERT_NE(vp, nullptr);
    ASSERT_EQ(vp->num_columns(), 4u);
    ASSERT_EQ(vp->NumSelected(), vp->num_rows());
    sizes.push_back(vp->num_rows());
    for (size_t i = 0; i < vp->num_rows(); ++i, ++k) {
      ASSERT_LE(k, kRows);
      const Value want[] = {Value::Int(k), v_of(k), v_of(k),
                            Value::Int(2 * k - 1)};
      for (size_t c = 0; c < 4; ++c) {
        ASSERT_EQ(vp->column(c).tag(i), want[c].type())
            << "row " << k << " column " << c << " lane " << i;
        ASSERT_EQ(vp->column(c).GetValue(i), want[c])
            << "row " << k << " column " << c << " lane " << i;
      }
    }
  }
  EXPECT_EQ(k, kRows + 1);
  // The last vector comes without eof; the eof call follows it, and a
  // post-eof pull answers eof again.
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(window.NextVector(&vp, &eof).ok());
  EXPECT_EQ(vp, nullptr);
  EXPECT_TRUE(eof);
  EXPECT_EQ(window.metrics().next_calls, 5);
  EXPECT_EQ(window.metrics().vectors_out, 3);
  EXPECT_EQ(sizes, (std::vector<size_t>{kVectorSize, kVectorSize,
                                        kRows - 2 * kVectorSize}));
}

TEST(VectorProjectionTest, AppendSelectedHonorsNarrowedSelection) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4; ++i) rows.push_back(Row({Value::Int(i)}));
  VectorProjection vp;
  FillRows(&vp, 1, rows);
  vp.sel().indices() = {1, 3};
  std::vector<Row> out;
  vp.AppendSelectedTo(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0], Value::Int(1));
  EXPECT_EQ(out[1][0], Value::Int(3));
}

TEST(VectorProjectionTest, AppendRowsCopiesSelectedLanesTagExact) {
  VectorProjection src;
  FillRows(&src, 2,
           {Row({Value::Int(0), Value::String("skip")}),
            Row({Value::Int(7), Value::Double(7.0)}),
            Row({Value::Null(), Value::Int(8)}),
            Row({Value::Double(-1.5), Value::String("x")})});
  src.sel().indices() = {1, 2, 3};

  VectorProjection dst;
  dst.Reset(2, 0);
  EXPECT_EQ(dst.AppendRows(src, 0, 2), 2u);   // rows 1, 2
  EXPECT_EQ(dst.AppendRows(src, 2, 99), 1u);  // row 3; capped by src
  ASSERT_EQ(dst.num_rows(), 3u);
  EXPECT_EQ(dst.sel().indices(), (std::vector<uint32_t>{0, 1, 2}));
  std::vector<Row> out;
  dst.AppendSelectedTo(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0][0].type(), DataType::kInt64);
  EXPECT_EQ(out[0][1].type(), DataType::kDouble);
  EXPECT_TRUE(out[1][0].is_null());
  EXPECT_EQ(out[1][1].type(), DataType::kInt64);
  EXPECT_EQ(out[2][0], Value::Double(-1.5));
  EXPECT_EQ(out[2][1], Value::String("x"));

  // A narrowed destination selection becomes full again.
  dst.sel().indices() = {1};
  EXPECT_EQ(dst.AppendRows(src, 0, 1), 1u);
  EXPECT_EQ(dst.sel().indices(), (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(VectorProjectionTest, ZeroRowProjection) {
  VectorProjection vp;
  vp.Reset(3, 0);
  EXPECT_EQ(vp.num_rows(), 0u);
  EXPECT_EQ(vp.NumSelected(), 0u);
  std::vector<Row> out;
  vp.AppendSelectedTo(&out);
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------------------
// VectorEvaluator vs. the row-at-a-time Evaluator.
// --------------------------------------------------------------------

class VectorEvalTest : public ::testing::Test {
 protected:
  // One int column (index 0) and one double column (index 1).
  void Fill(const std::vector<Value>& c0, const std::vector<Value>& c1) {
    std::vector<Row> rows;
    for (size_t i = 0; i < c0.size(); ++i) rows.push_back(Row({c0[i], c1[i]}));
    FillRows(&vp_, 2, rows);
  }

  // Asserts that Eval over the full selection produces exactly the
  // row-path value for every row (or that both sides fail).
  void ExpectRowParity(const Expr& expr) {
    Vector out;
    const Status s = VectorEvaluator::Eval(expr, vp_, vp_.sel(), &out);
    bool any_row_error = false;
    std::string row_error;
    for (size_t i = 0; i < vp_.num_rows(); ++i) {
      Row row;
      vp_.MaterializeRow(i, &row);
      Result<Value> rv = Evaluator::Eval(expr, row);
      if (!rv.ok()) {
        any_row_error = true;
        row_error = rv.status().ToString();
        continue;
      }
      if (s.ok()) {
        EXPECT_EQ(out.GetValue(i), *rv) << "row " << i;
      }
    }
    EXPECT_EQ(s.ok(), !any_row_error)
        << "vector: " << s.ToString() << " row: " << row_error;
  }

  VectorProjection vp_;
};

TEST_F(VectorEvalTest, ArithmeticMixedTagsMatchesRowPath) {
  Fill({Value::Int(1), Value::Int(-3), Value::Null(), Value::Int(7)},
       {Value::Double(0.5), Value::Int(2), Value::Double(4.0),
        Value::Null()});
  ExpectRowParity(*Add(Col(0, DataType::kInt64), Col(1, DataType::kDouble)));
  ExpectRowParity(*Mul(Col(1, DataType::kDouble), Dbl(2.0)));
  ExpectRowParity(*Sub(Col(0, DataType::kInt64), Int(1)));
}

TEST_F(VectorEvalTest, ComparisonsAndBetweenMatchRowPath) {
  Fill({Value::Int(1), Value::Int(5), Value::Null(), Value::Int(3)},
       {Value::Double(2.0), Value::Double(5.0), Value::Double(1.0),
        Value::Null()});
  ExpectRowParity(*Lt(Col(0, DataType::kInt64), Col(1, DataType::kDouble)));
  ExpectRowParity(*Eq(Col(0, DataType::kInt64), Col(1, DataType::kDouble)));
  ExpectRowParity(
      *Between(Col(0, DataType::kInt64), Int(2), Col(1, DataType::kDouble)));
  ExpectRowParity(*IsNull(Col(1, DataType::kDouble)));
  ExpectRowParity(*IsNull(Col(0, DataType::kInt64), /*negated=*/true));
}

TEST_F(VectorEvalTest, CaseEvaluatesThenOnlyOnHitRows) {
  // Division by zero sits in the THEN branch; the row path only
  // evaluates it where the WHEN condition is TRUE, so the vector path
  // must too — an eager implementation would fail the whole vector.
  Fill({Value::Int(2), Value::Int(0), Value::Int(4), Value::Int(0)},
       {Value::Double(1.0), Value::Double(1.0), Value::Double(1.0),
        Value::Double(1.0)});
  ExpectRowParity(*CaseWhen(Gt(Col(0, DataType::kInt64), Int(0)),
                            Binary(BinaryOp::kDiv, Int(100),
                                   Col(0, DataType::kInt64)),
                            Int(-1)));
}

TEST_F(VectorEvalTest, AndShortCircuitSkipsRhsWhereLhsFalse) {
  Fill({Value::Int(0), Value::Int(5), Value::Int(0), Value::Int(2)},
       {Value::Double(1.0), Value::Double(1.0), Value::Double(1.0),
        Value::Double(1.0)});
  // 10 / col0 errors on col0 == 0 rows; the AND's lhs filters exactly
  // those rows out, so neither path may raise.
  ExpectRowParity(*And(
      Gt(Col(0, DataType::kInt64), Int(0)),
      Gt(Binary(BinaryOp::kDiv, Int(10), Col(0, DataType::kInt64)), Int(1))));
  ExpectRowParity(*Or(
      Le(Col(0, DataType::kInt64), Int(0)),
      Gt(Binary(BinaryOp::kDiv, Int(10), Col(0, DataType::kInt64)), Int(4))));
}

TEST_F(VectorEvalTest, DivisionByZeroOnSelectedRowFailsLikeRowPath) {
  Fill({Value::Int(0)}, {Value::Double(1.0)});
  Vector out;
  const Status s = VectorEvaluator::Eval(
      *Binary(BinaryOp::kDiv, Int(1), Col(0, DataType::kInt64)), vp_,
      vp_.sel(), &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("division by zero"), std::string::npos)
      << s.ToString();
}

TEST_F(VectorEvalTest, ErrorOnUnselectedRowDoesNotFire) {
  // Row 0 divides by zero, but the selection excludes it: the evaluator
  // must only touch selected rows.
  Fill({Value::Int(0), Value::Int(2)},
       {Value::Double(1.0), Value::Double(1.0)});
  SelectionVector sel;
  sel.indices() = {1};
  Vector out;
  const Status s = VectorEvaluator::Eval(
      *Binary(BinaryOp::kDiv, Int(10), Col(0, DataType::kInt64)), vp_, sel,
      &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.GetValue(1), Value::Int(5));
}

TEST_F(VectorEvalTest, FunctionsMatchRowPath) {
  Fill({Value::Int(17), Value::Int(-4), Value::Null(), Value::Int(81)},
       {Value::Double(2.5), Value::Null(), Value::Double(-3.5),
        Value::Double(0.0)});
  ExpectRowParity(*Mod(Col(0, DataType::kInt64), Int(5)));
  ExpectRowParity(*Fn(ScalarFn::kAbs, [] {
    std::vector<ExprPtr> a;
    a.push_back(Col(1, DataType::kDouble));
    return a;
  }(), DataType::kDouble));
  ExpectRowParity(*Coalesce(Col(1, DataType::kDouble), Int(9)));
  ExpectRowParity(*Fn(ScalarFn::kMin2, [] {
    std::vector<ExprPtr> a;
    a.push_back(Col(0, DataType::kInt64));
    a.push_back(Col(1, DataType::kDouble));
    return a;
  }(), DataType::kDouble));
}

TEST_F(VectorEvalTest, InMatchesRowPathWithNulls) {
  Fill({Value::Int(1), Value::Int(2), Value::Null(), Value::Int(4)},
       {Value::Double(1.0), Value::Null(), Value::Double(3.0),
        Value::Double(4.0)});
  std::vector<ExprPtr> candidates;
  candidates.push_back(Int(2));
  candidates.push_back(Col(1, DataType::kDouble));
  ExpectRowParity(*In(Col(0, DataType::kInt64), std::move(candidates)));
}

TEST_F(VectorEvalTest, PredicateNarrowsSelectionInAscendingOrder) {
  Fill({Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)},
       {Value::Double(0.0), Value::Double(0.0), Value::Double(0.0),
        Value::Double(0.0)});
  SelectionVector sel;
  sel.InitFull(4);
  const Status s = VectorEvaluator::EvalPredicate(
      *Eq(Mod(Col(0, DataType::kInt64), Int(2)), Int(0)), vp_, &sel);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 3u);
}

TEST_F(VectorEvalTest, PredicateCanFilterEverything) {
  Fill({Value::Int(1), Value::Int(2)},
       {Value::Double(0.0), Value::Null()});
  SelectionVector sel;
  sel.InitFull(2);
  // NULL predicate results count as false, like the row path.
  const Status s = VectorEvaluator::EvalPredicate(
      *Gt(Col(1, DataType::kDouble), Dbl(5.0)), vp_, &sel);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(sel.empty());
}

TEST_F(VectorEvalTest, ZeroRowVectorEvaluates) {
  vp_.Reset(2, 0);
  Vector out;
  const Status s = VectorEvaluator::Eval(
      *Add(Col(0, DataType::kInt64), Int(1)), vp_, vp_.sel(), &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.size(), 0u);
}

TEST_F(VectorEvalTest, NonBooleanPredicateFailsLikeRowPath) {
  Fill({Value::Int(1)}, {Value::Double(1.0)});
  SelectionVector sel;
  sel.InitFull(1);
  const Status s = VectorEvaluator::EvalPredicate(
      *Add(Col(0, DataType::kInt64), Int(1)), vp_, &sel);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("predicate did not evaluate to a boolean"),
            std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace rfv
