#include "plan/planner.h"

#include <gtest/gtest.h>

#include "expr/builder.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/cardinality.h"

namespace rfv {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("a", Schema({ColumnDef("x", DataType::kInt64),
                                              ColumnDef("y", DataType::kInt64)}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("b", Schema({ColumnDef("x", DataType::kInt64),
                                              ColumnDef("z", DataType::kInt64)}))
                    .ok());
  }

  LogicalPlanPtr BindAndOptimize(const std::string& sql) {
    Result<Statement> stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_);
    Result<LogicalPlanPtr> plan = binder.BindSelect(*stmt->select);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return OptimizePlan(std::move(plan).value());
  }

  Catalog catalog_;
};

TEST(ConjunctTest, SplitAndCombineRoundTrip) {
  ExprPtr e = eb::And(eb::Eq(eb::Int(1), eb::Int(1)),
                      eb::And(eb::Lt(eb::Int(1), eb::Int(2)),
                              eb::Gt(eb::Int(3), eb::Int(2))));
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(e), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  ExprPtr combined = CombineConjuncts(std::move(conjuncts));
  ASSERT_NE(combined, nullptr);
  std::vector<ExprPtr> again;
  SplitConjuncts(std::move(combined), &again);
  EXPECT_EQ(again.size(), 3u);
}

TEST(ConjunctTest, OrIsNotSplit) {
  ExprPtr e = eb::Or(eb::Eq(eb::Int(1), eb::Int(1)),
                     eb::Eq(eb::Int(2), eb::Int(2)));
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(e), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 1u);
}

TEST(ConjunctTest, CombineEmptyIsNull) {
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(ExprAnalysisTest, RefsOnlyRange) {
  const ExprPtr e = eb::Add(eb::Col(1, DataType::kInt64),
                            eb::Col(3, DataType::kInt64));
  EXPECT_TRUE(RefsOnlyRange(*e, 0, 4));
  EXPECT_TRUE(RefsOnlyRange(*e, 1, 4));
  EXPECT_FALSE(RefsOnlyRange(*e, 0, 3));
  EXPECT_FALSE(RefsOnlyRange(*e, 2, 4));
  EXPECT_TRUE(RefsOnlyRange(*eb::Int(5), 0, 0));  // no refs at all
}

TEST(ExprAnalysisTest, ShiftColumnRefs) {
  ExprPtr e = eb::Add(eb::Col(3, DataType::kInt64),
                      eb::Col(5, DataType::kInt64));
  ShiftColumnRefs(e.get(), -2);
  EXPECT_EQ(e->children[0]->column_index, 1u);
  EXPECT_EQ(e->children[1]->column_index, 3u);
}

TEST_F(PlannerTest, CrossJoinPlusWhereBecomesInnerJoin) {
  const LogicalPlanPtr plan =
      BindAndOptimize("SELECT a.x FROM a, b WHERE a.x = b.x");
  // Project → Join (no Filter left in between).
  ASSERT_EQ(plan->kind, PlanKind::kProject);
  const LogicalPlan& join = *plan->children[0];
  ASSERT_EQ(join.kind, PlanKind::kJoin);
  EXPECT_EQ(join.join_type, JoinType::kInner);
  ASSERT_NE(join.join_condition, nullptr);
}

TEST_F(PlannerTest, SingleSideConjunctsPushToChildren) {
  const LogicalPlanPtr plan = BindAndOptimize(
      "SELECT a.x FROM a, b WHERE a.x = b.x AND a.y > 1 AND b.z < 5");
  const LogicalPlan& join = *plan->children[0];
  ASSERT_EQ(join.kind, PlanKind::kJoin);
  // Left child: Filter(a.y > 1) over Scan; right child likewise.
  EXPECT_EQ(join.children[0]->kind, PlanKind::kFilter);
  EXPECT_EQ(join.children[0]->children[0]->kind, PlanKind::kScan);
  EXPECT_EQ(join.children[1]->kind, PlanKind::kFilter);
  // Right-side predicate was re-based onto the right child's schema.
  EXPECT_TRUE(RefsOnlyRange(*join.children[1]->predicate, 0,
                            join.children[1]->schema.NumColumns()));
}

TEST_F(PlannerTest, StackedFiltersMerge) {
  const LogicalPlanPtr plan = BindAndOptimize(
      "SELECT x FROM (SELECT x, y FROM a WHERE y > 0) sub WHERE sub.x > 1");
  // Both predicates end up directly above (or fused into) the scan
  // without a Filter-over-Filter chain of the same schema.
  const LogicalPlan* node = plan.get();
  int filters_in_a_row = 0;
  int max_filters = 0;
  while (node != nullptr) {
    if (node->kind == PlanKind::kFilter) {
      ++filters_in_a_row;
      max_filters = std::max(max_filters, filters_in_a_row);
    } else {
      filters_in_a_row = 0;
    }
    node = node->children.empty() ? nullptr : node->children[0].get();
  }
  EXPECT_LE(max_filters, 2);  // project boundary may keep them apart
}

TEST_F(PlannerTest, LeftOuterJoinOnlyPushesLeftConjuncts) {
  Result<Statement> stmt = Parser::ParseStatement(
      "SELECT a.x FROM a LEFT OUTER JOIN b ON a.x = b.x WHERE a.y > 1 AND "
      "b.z IS NULL");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&catalog_);
  Result<LogicalPlanPtr> bound = binder.BindSelect(*stmt->select);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const LogicalPlanPtr plan = OptimizePlan(std::move(bound).value());
  // The b.z IS NULL conjunct must stay above the join (it would change
  // semantics below a left outer join); a.y > 1 may move down.
  const LogicalPlan* node = plan.get();
  ASSERT_EQ(node->kind, PlanKind::kProject);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, PlanKind::kFilter);
  node = node->children[0].get();
  ASSERT_EQ(node->kind, PlanKind::kJoin);
  EXPECT_EQ(node->join_type, JoinType::kLeftOuter);
  EXPECT_EQ(node->children[0]->kind, PlanKind::kFilter);
}

TEST_F(PlannerTest, MixedDisjunctionStaysOnJoin) {
  const LogicalPlanPtr plan = BindAndOptimize(
      "SELECT a.x FROM a, b WHERE a.x = b.x OR a.y = b.z");
  const LogicalPlan& join = *plan->children[0];
  ASSERT_EQ(join.kind, PlanKind::kJoin);
  EXPECT_EQ(join.join_type, JoinType::kInner);
  ASSERT_NE(join.join_condition, nullptr);
  EXPECT_EQ(join.join_condition->binary_op, BinaryOp::kOr);
}

TEST(FoldConstantsTest, FoldsPureLiteralSubtrees) {
  ExprPtr e = eb::Add(eb::Int(1), eb::Mul(eb::Int(2), eb::Int(3)));
  FoldConstants(e.get());
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal, Value::Int(7));
}

TEST(FoldConstantsTest, FoldsAroundColumnRefs) {
  // col + (2 + 3): only the literal subtree folds.
  ExprPtr e = eb::Add(eb::Col(0, DataType::kInt64),
                      eb::Add(eb::Int(2), eb::Int(3)));
  FoldConstants(e.get());
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  ASSERT_EQ(e->children[1]->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->children[1]->literal, Value::Int(5));
}

TEST(FoldConstantsTest, FoldsModAndComparison) {
  ExprPtr e = eb::Eq(eb::Mod(eb::Int(-1), eb::Int(4)), eb::Int(3));
  FoldConstants(e.get());
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal, Value::Bool(true));
}

TEST(FoldConstantsTest, LeavesRuntimeErrorsInPlace) {
  // 1 / 0 must stay unfolded so execution reports the error.
  ExprPtr e = eb::Binary(BinaryOp::kDiv, eb::Int(1), eb::Int(0));
  FoldConstants(e.get());
  EXPECT_EQ(e->kind, ExprKind::kBinary);
}

TEST(FoldConstantsTest, NullFoldKeepsCheckedType) {
  ExprPtr e = eb::Add(eb::Int(1), eb::Null());
  e->type = DataType::kInt64;
  FoldConstants(e.get());
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_TRUE(e->literal.is_null());
  EXPECT_EQ(e->type, DataType::kInt64);
}

TEST_F(PlannerTest, PlanExpressionsAreFolded) {
  const LogicalPlanPtr plan =
      BindAndOptimize("SELECT x + (1 + 2) FROM a WHERE y > 2 * 3");
  // The projection's literal subtree and the filter's RHS folded.
  const LogicalPlan* project = plan.get();
  ASSERT_EQ(project->kind, PlanKind::kProject);
  EXPECT_EQ(project->projections[0]->children[1]->kind, ExprKind::kLiteral);
  const LogicalPlan* filter = project->children[0].get();
  ASSERT_EQ(filter->kind, PlanKind::kFilter);
  EXPECT_EQ(filter->predicate->children[1]->kind, ExprKind::kLiteral);
  EXPECT_EQ(filter->predicate->children[1]->literal, Value::Int(6));
}

TEST_F(PlannerTest, OptimizeIsIdempotentOnPlainScan) {
  LogicalPlanPtr plan = BindAndOptimize("SELECT x FROM a");
  const std::string once = plan->ToString();
  plan = OptimizePlan(std::move(plan));
  EXPECT_EQ(plan->ToString(), once);
}

// `col BETWEEN lit AND lit` on an analyzed scan column is estimated
// from the overlap with the column's min/max range: the MinOA body
// filter `s1.pos BETWEEN 1 AND n` over a complete sequence's content
// table (positions 1-l..n+h) then estimates n rows, not a flat quarter.
TEST_F(PlannerTest, BetweenLiteralsEstimateFromRangeOverlap) {
  Result<Table*> table = catalog_.CreateTable(
      "seqv", Schema({ColumnDef("pos", DataType::kInt64),
                      ColumnDef("val", DataType::kDouble)}));
  ASSERT_TRUE(table.ok());
  for (int64_t p = -39; p <= 2040; ++p) {  // 2,080 rows
    ASSERT_TRUE((*table)
                    ->Insert(Row({Value::Int(p),
                                  Value::Double(static_cast<double>(p))}))
                    .ok());
  }
  (*table)->Analyze();
  const auto filter_estimate = [&](const std::string& where) {
    LogicalPlanPtr plan = BindAndOptimize("SELECT pos FROM seqv WHERE " +
                                          where);
    EstimateCardinality(plan.get());
    for (const LogicalPlan* node = plan.get(); node != nullptr;
         node = node->children.empty() ? nullptr : node->children[0].get()) {
      if (node->kind == PlanKind::kFilter) return node->est_rows;
    }
    ADD_FAILURE() << "no filter in the plan for " << where;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(filter_estimate("pos BETWEEN 1 AND 2000"), 2000);
  EXPECT_DOUBLE_EQ(filter_estimate("pos BETWEEN 2000 AND 9000"), 41);
  EXPECT_DOUBLE_EQ(filter_estimate("pos BETWEEN 5000 AND 9000"), 0);
  // DOUBLE columns: the continuous share of max - min = 2079.
  EXPECT_NEAR(filter_estimate("val BETWEEN 0 AND 1039.5"),
              2080.0 * 1039.5 / 2079.0, 1e-6);
  // Non-literal bounds keep the default range selectivity.
  EXPECT_DOUBLE_EQ(filter_estimate("pos BETWEEN val AND 10"), 2080 * 0.25);
  // One-sided comparisons against a literal overlap the same range;
  // a strict bound on an INTEGER column drops its boundary position.
  EXPECT_DOUBLE_EQ(filter_estimate("pos <= 200"), 240);
  EXPECT_DOUBLE_EQ(filter_estimate("pos < 200"), 239);
  EXPECT_DOUBLE_EQ(filter_estimate("200 >= pos"), 240);
  EXPECT_DOUBLE_EQ(filter_estimate("pos > 2000"), 40);
  EXPECT_DOUBLE_EQ(filter_estimate("pos >= 2000"), 41);
  EXPECT_DOUBLE_EQ(filter_estimate("pos > 5000"), 0);
  EXPECT_NEAR(filter_estimate("val < 1039.5"), 2080.0 * 1078.5 / 2079.0,
              1e-6);
  // A column on both sides keeps the default comparison selectivity.
  EXPECT_NEAR(filter_estimate("pos < val"), 2080 * 0.33, 1e-9);
}

TEST_F(PlannerTest, SargableKeyRangesIntersectPerIndexedColumn) {
  Result<Table*> table = catalog_.CreateTable(
      "k", Schema({ColumnDef("id", DataType::kInt64),
                   ColumnDef("grp", DataType::kInt64),
                   ColumnDef("val", DataType::kDouble)}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("k_id", "id").ok());
  ASSERT_TRUE((*table)->CreateIndex("k_val", "val").ok());
  const auto ranges = [&](const std::string& where) {
    LogicalPlanPtr plan = BindAndOptimize("SELECT id FROM k WHERE " + where);
    const LogicalPlan* node = plan.get();
    while (node->kind != PlanKind::kFilter) node = node->children[0].get();
    return SargableKeyRanges(*node->predicate, **table);
  };

  std::vector<KeyRange> r = ranges("id >= 5 AND grp = 1 AND 9 > id");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index_name, "k_id");
  EXPECT_EQ(r[0].ToString(), "[5,9]");
  EXPECT_EQ(r[0].predicate, "(k.id >= 5) AND (9 > k.id)");

  r = ranges("id BETWEEN 1 + 1 AND 10 AND id = 4");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].ToString(), "[4,4]");

  EXPECT_EQ(ranges("id < 3")[0].ToString(), "[-inf,3]");
  // Not sargable: no index on grp, DOUBLE keys, a column on both
  // sides, an OR, arithmetic on the key, a NULL constant.
  EXPECT_TRUE(ranges("grp = 1").empty());
  EXPECT_TRUE(ranges("val < 3").empty());
  EXPECT_TRUE(ranges("id < grp").empty());
  EXPECT_TRUE(ranges("id = 1 OR id = 2").empty());
  EXPECT_TRUE(ranges("id + 0 BETWEEN 1 AND 5").empty());
  EXPECT_TRUE(ranges("id = NULL").empty());
}

}  // namespace
}  // namespace rfv
