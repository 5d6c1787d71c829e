#include "exec/executor.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "exec/operators.h"
#include "plan/cardinality.h"
#include "plan/planner.h"

namespace rfv {

namespace {

/// Clones a vector of expressions.
std::vector<ExprPtr> CloneExprs(const std::vector<ExprPtr>& exprs) {
  std::vector<ExprPtr> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) out.push_back(e->Clone());
  return out;
}

std::vector<SortKey> CloneSortKeys(const std::vector<SortKey>& keys) {
  std::vector<SortKey> out;
  out.reserve(keys.size());
  for (const SortKey& k : keys) {
    SortKey copy;
    copy.expr = k.expr->Clone();
    copy.ascending = k.ascending;
    out.push_back(std::move(copy));
  }
  return out;
}

AggregateCall CloneAggregateCall(const AggregateCall& call) {
  AggregateCall copy;
  copy.fn = call.fn;
  copy.arg = call.arg != nullptr ? call.arg->Clone() : nullptr;
  copy.is_count_star = call.is_count_star;
  copy.output_name = call.output_name;
  copy.output_type = call.output_type;
  return copy;
}

WindowCall CloneWindowCall(const WindowCall& call) {
  WindowCall copy;
  copy.kind = call.kind;
  copy.fn = call.fn;
  copy.arg = call.arg != nullptr ? call.arg->Clone() : nullptr;
  copy.is_count_star = call.is_count_star;
  copy.partition_by = CloneExprs(call.partition_by);
  copy.order_by = CloneSortKeys(call.order_by);
  copy.frame = call.frame;
  copy.output_name = call.output_name;
  copy.output_type = call.output_type;
  return copy;
}

/// Extracts hash-join equi keys from a join condition: conjuncts of the
/// form <left-only expr> = <right-only expr> become key pairs (right key
/// re-bound to the right child's schema); everything else is residual.
void ExtractEquiKeys(ExprPtr condition, size_t left_width,
                     std::vector<ExprPtr>* left_keys,
                     std::vector<ExprPtr>* right_keys, ExprPtr* residual) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(condition), &conjuncts);
  std::vector<ExprPtr> residual_conjuncts;
  for (ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      Expr& lhs = *c->children[0];
      Expr& rhs = *c->children[1];
      const size_t total = static_cast<size_t>(-1);
      if (RefsOnlyRange(lhs, 0, left_width) &&
          RefsOnlyRange(rhs, left_width, total)) {
        ShiftColumnRefs(&rhs, -static_cast<int64_t>(left_width));
        left_keys->push_back(std::move(c->children[0]));
        right_keys->push_back(std::move(c->children[1]));
        continue;
      }
      if (RefsOnlyRange(rhs, 0, left_width) &&
          RefsOnlyRange(lhs, left_width, total)) {
        ShiftColumnRefs(&lhs, -static_cast<int64_t>(left_width));
        left_keys->push_back(std::move(c->children[1]));
        right_keys->push_back(std::move(c->children[0]));
        continue;
      }
    }
    residual_conjuncts.push_back(std::move(c));
  }
  *residual = CombineConjuncts(std::move(residual_conjuncts));
}

Result<PhysicalOperatorPtr> BuildJoin(const LogicalPlan& plan,
                                      const ExecOptions& options) {
  const LogicalPlan& left_plan = *plan.children[0];
  const LogicalPlan& right_plan = *plan.children[1];
  const size_t left_width = left_plan.schema.NumColumns();

  PhysicalOperatorPtr left;
  RFV_ASSIGN_OR_RETURN(left, BuildPhysicalPlan(left_plan, options));

  // Band-driven joins: the right side must be a bare table scan with an
  // integer key column the condition constrains to bands (interval,
  // stride, or point-set per left row). The merge band join comes
  // first: its sorted merge touches only matching keys. It leaves a
  // single plain equality point to the index or hash join.
  if (plan.join_condition != nullptr && right_plan.kind == PlanKind::kScan) {
    if (options.enable_merge_band_join) {
      std::optional<BandJoinSpec> band =
          TryExtractBandJoin(*plan.join_condition, left_width,
                             right_plan.table, /*indexed_only=*/false);
      if (band.has_value() && !band->IsSinglePlainPoint()) {
        PhysicalOperatorPtr right;
        RFV_ASSIGN_OR_RETURN(right, BuildPhysicalPlan(right_plan, options));
        return PhysicalOperatorPtr(new MergeBandJoinOp(
            plan.schema, std::move(left), std::move(right), std::move(*band),
            plan.join_type));
      }
    }
    // Index nested-loop join: the same spec on an indexed column, one
    // ordered-index probe per band.
    if (options.enable_index_nested_loop_join) {
      std::optional<BandJoinSpec> band =
          TryExtractBandJoin(*plan.join_condition, left_width,
                             right_plan.table, /*indexed_only=*/true);
      if (band.has_value()) {
        return PhysicalOperatorPtr(new IndexNestedLoopJoinOp(
            plan.schema, std::move(left), right_plan.table, right_plan.schema,
            std::move(*band), plan.join_type));
      }
    }
  }

  PhysicalOperatorPtr right;
  RFV_ASSIGN_OR_RETURN(right, BuildPhysicalPlan(right_plan, options));

  // Hash join on equi conjuncts.
  if (options.enable_hash_join && plan.join_condition != nullptr) {
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    ExprPtr residual;
    ExtractEquiKeys(plan.join_condition->Clone(), left_width, &left_keys,
                    &right_keys, &residual);
    if (!left_keys.empty()) {
      return PhysicalOperatorPtr(new HashJoinOp(
          plan.schema, std::move(left), std::move(right),
          std::move(left_keys), std::move(right_keys), std::move(residual),
          plan.join_type));
    }
  }

  return PhysicalOperatorPtr(new NestedLoopJoinOp(
      plan.schema, std::move(left), std::move(right),
      plan.join_condition != nullptr ? plan.join_condition->Clone() : nullptr,
      plan.join_type));
}

/// A range scan reads a key range instead of the whole table only when
/// the estimate says the range holds at most this share of its rows: the
/// per-row cost of the two paths is alike, so the range pays when it
/// skips a clear majority, and a pattern scan that keeps nearly every
/// row (MinOA's `s1.pos BETWEEN 1 AND n`, ~96 %) stays a plain scan.
constexpr double kRangeScanMaxShare = 0.5;

/// The scan below a Filter: a range scan over the sargable key range of
/// `predicate` with the fewest estimated rows, when that is clearly
/// fewer than the table holds; else a plain scan.
PhysicalOperatorPtr BuildFilteredScan(const LogicalPlan& scan,
                                      const Expr& predicate,
                                      const ExecOptions& options) {
  std::optional<KeyRange> best;
  double best_share = kRangeScanMaxShare;
  for (KeyRange& range : SargableKeyRanges(predicate, *scan.table)) {
    const double share = KeyRangeSelectivity(scan, range);
    if (share >= 0 && share <= best_share) {
      best_share = share;
      best = std::move(range);
    }
  }
  auto* op = new TableScanOp(scan.schema, scan.table, std::move(best));
  op->SetEstimatedRows(op->range().has_value() && scan.est_rows >= 0
                           ? scan.est_rows * best_share
                           : scan.est_rows);
  op->SetVectorized(options.use_vectorized_execution);
  return PhysicalOperatorPtr(op);
}

}  // namespace

namespace {

/// The per-kind lowering; BuildPhysicalPlan wraps it to stamp each
/// node's cardinality estimate onto the operator it produced.
Result<PhysicalOperatorPtr> BuildPhysicalPlanNode(const LogicalPlan& plan,
                                                  const ExecOptions& options) {
  switch (plan.kind) {
    case PlanKind::kScan:
      return PhysicalOperatorPtr(new TableScanOp(plan.schema, plan.table));
    case PlanKind::kFilter: {
      const LogicalPlan& input = *plan.children[0];
      PhysicalOperatorPtr child;
      if (input.kind == PlanKind::kScan && input.table != nullptr) {
        child = BuildFilteredScan(input, *plan.predicate, options);
      } else {
        RFV_ASSIGN_OR_RETURN(child, BuildPhysicalPlan(input, options));
      }
      return PhysicalOperatorPtr(new FilterOp(plan.schema, std::move(child),
                                              plan.predicate->Clone()));
    }
    case PlanKind::kProject: {
      PhysicalOperatorPtr child;
      RFV_ASSIGN_OR_RETURN(child,
                           BuildPhysicalPlan(*plan.children[0], options));
      return PhysicalOperatorPtr(new ProjectOp(plan.schema, std::move(child),
                                               CloneExprs(plan.projections)));
    }
    case PlanKind::kJoin:
      return BuildJoin(plan, options);
    case PlanKind::kAggregate: {
      PhysicalOperatorPtr child;
      RFV_ASSIGN_OR_RETURN(child,
                           BuildPhysicalPlan(*plan.children[0], options));
      std::vector<AggregateCall> calls;
      calls.reserve(plan.aggregates.size());
      for (const AggregateCall& c : plan.aggregates) {
        calls.push_back(CloneAggregateCall(c));
      }
      // SUM fold: a qualifying aggregate directly on a band join takes
      // one partial row per left row instead of every candidate pair.
      auto* band = dynamic_cast<MergeBandJoinOp*>(child.get());
      const bool folded =
          band != nullptr && band->TryEnableSumFold(plan.group_by, calls);
      auto* agg = new HashAggregateOp(plan.schema, std::move(child),
                                      CloneExprs(plan.group_by),
                                      std::move(calls));
      if (folded) agg->SetFoldedInput(band->fold_partial_base());
      return PhysicalOperatorPtr(agg);
    }
    case PlanKind::kWindow: {
      PhysicalOperatorPtr child;
      RFV_ASSIGN_OR_RETURN(child,
                           BuildPhysicalPlan(*plan.children[0], options));
      std::vector<WindowCall> calls;
      calls.reserve(plan.window_calls.size());
      for (const WindowCall& c : plan.window_calls) {
        calls.push_back(CloneWindowCall(c));
      }
      return PhysicalOperatorPtr(new WindowOp(
          plan.schema, std::move(child), std::move(calls),
          options.window_workers, options.window_parallel_min_rows));
    }
    case PlanKind::kSort: {
      PhysicalOperatorPtr child;
      RFV_ASSIGN_OR_RETURN(child,
                           BuildPhysicalPlan(*plan.children[0], options));
      return PhysicalOperatorPtr(new SortOp(plan.schema, std::move(child),
                                            CloneSortKeys(plan.sort_keys)));
    }
    case PlanKind::kUnionAll: {
      std::vector<PhysicalOperatorPtr> children;
      children.reserve(plan.children.size());
      for (const auto& child_plan : plan.children) {
        PhysicalOperatorPtr child;
        RFV_ASSIGN_OR_RETURN(child, BuildPhysicalPlan(*child_plan, options));
        children.push_back(std::move(child));
      }
      return PhysicalOperatorPtr(
          new UnionAllOp(plan.schema, std::move(children)));
    }
    case PlanKind::kLimit: {
      PhysicalOperatorPtr child;
      RFV_ASSIGN_OR_RETURN(child,
                           BuildPhysicalPlan(*plan.children[0], options));
      return PhysicalOperatorPtr(
          new LimitOp(plan.schema, std::move(child), plan.limit));
    }
  }
  return Status::Internal("unreachable plan kind");
}

}  // namespace

Result<PhysicalOperatorPtr> BuildPhysicalPlan(const LogicalPlan& plan,
                                              const ExecOptions& options) {
  PhysicalOperatorPtr op;
  RFV_ASSIGN_OR_RETURN(op, BuildPhysicalPlanNode(plan, options));
  // Recursive builds go through this wrapper too, so every operator in
  // the tree carries its logical node's estimate (the index
  // nested-loop join consumes the right-side scan without an operator;
  // that estimate is intentionally dropped with it).
  op->SetEstimatedRows(plan.est_rows);
  // Stamp the mode: a vector-native operator runs its columnar body iff
  // the knob is on.
  op->SetVectorized(options.use_vectorized_execution);
  return op;
}

namespace {

void CollectMetricsInto(const PhysicalOperator& op, int depth,
                        std::vector<OperatorMetricsEntry>* out) {
  std::vector<const PhysicalOperator*> children;
  op.AppendChildren(&children);
  OperatorMetricsEntry entry;
  entry.name = op.name();
  entry.depth = depth;
  entry.est_rows = op.estimated_rows();
  entry.metrics = op.metrics();
  entry.detail = op.MetricsDetail();
  for (const PhysicalOperator* child : children) {
    entry.rows_in += child->metrics().rows_out;
  }
  out->push_back(std::move(entry));
  for (const PhysicalOperator* child : children) {
    CollectMetricsInto(*child, depth + 1, out);
  }
}

}  // namespace

std::vector<OperatorMetricsEntry> CollectMetrics(
    const PhysicalOperator& root) {
  std::vector<OperatorMetricsEntry> out;
  CollectMetricsInto(root, 0, &out);
  return out;
}

namespace {

/// One formatted metrics line: `label` padded, then the counters.
std::string FormatMetricsLine(const std::string& label,
                              const OperatorMetricsEntry& e) {
  // Planner estimate next to the measured rows_out; "-" when the plan
  // was never run through EstimateCardinality.
  char est[32];
  if (e.est_rows >= 0) {
    std::snprintf(est, sizeof(est), "%lld",
                  static_cast<long long>(e.est_rows + 0.5));
  } else {
    std::snprintf(est, sizeof(est), "-");
  }
  char line[384];
  std::snprintf(
      line, sizeof(line),
      "%-24s rows_in=%-9lld rows_out=%-9lld est=%-9s next_calls=%-9lld "
      "vectors=%-6lld open_ms=%-8.3f next_ms=%-8.3f "
      "peak_buffered=%lld",
      label.c_str(), static_cast<long long>(e.rows_in),
      static_cast<long long>(e.metrics.rows_out), est,
      static_cast<long long>(e.metrics.next_calls),
      static_cast<long long>(e.metrics.vectors_out),
      static_cast<double>(e.metrics.open_ns) / 1e6,
      static_cast<double>(e.metrics.next_ns) / 1e6,
      static_cast<long long>(e.metrics.peak_buffered_rows));
  std::string out = line;
  if (!e.detail.empty()) out += " " + e.detail;
  return out + "\n";
}

}  // namespace

std::string FormatMetricsReport(
    const std::vector<OperatorMetricsEntry>& entries) {
  std::string out;
  for (const OperatorMetricsEntry& e : entries) {
    out += FormatMetricsLine(
        std::string(static_cast<size_t>(e.depth) * 2, ' ') + e.name, e);
  }
  return out;
}

std::string FormatMetricsTree(
    const std::vector<OperatorMetricsEntry>& entries) {
  std::string out;
  for (size_t i = 0; i < entries.size(); ++i) {
    const int depth = entries[i].depth;
    std::string prefix;
    // For each ancestor level, draw a continuation bar when that
    // ancestor has later siblings; for the node itself, a branch or
    // corner depending on whether a later sibling exists. "Later
    // sibling at level d" = a subsequent entry of depth d appearing
    // before any entry of depth < d (pre-order property).
    for (int level = 1; level <= depth; ++level) {
      bool has_later_sibling = false;
      for (size_t j = i + 1; j < entries.size(); ++j) {
        if (entries[j].depth < level) break;
        if (entries[j].depth == level) {
          has_later_sibling = true;
          break;
        }
      }
      if (level == depth) {
        prefix += has_later_sibling ? "├─ " : "└─ ";
      } else {
        prefix += has_later_sibling ? "│  " : "   ";
      }
    }
    // The box-drawing characters are multi-byte; pad by display width.
    const size_t display_width =
        static_cast<size_t>(depth) * 3 + entries[i].name.size();
    std::string label = prefix + entries[i].name;
    if (display_width < 24) label += std::string(24 - display_width, ' ');
    out += FormatMetricsLine(label, entries[i]);
  }
  return out;
}

namespace {

Counter* VectorsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_exec_vectors_total", {},
      "Vector projections drained from query plan roots by the "
      "vectorized driver");
  return c;
}

}  // namespace

Status PhysicalOperator::NextVectorImpl(VectorProjection**, bool*) {
  return Status::Internal(std::string(name()) + " is not vector-native");
}

Status PhysicalOperator::PullVector(VectorProjection** out) {
  *out = nullptr;
  while (!exhausted_) {
    VectorProjection* vp = nullptr;
    bool eof = false;
    RFV_RETURN_IF_ERROR(NextVectorImpl(&vp, &eof));
    exhausted_ = eof;
    if (vp != nullptr && vp->NumSelected() > 0) {
      *out = vp;
      break;
    }
  }
  return Status::OK();
}

Status PhysicalOperator::VectorFromRows(VectorProjection** out) {
  *out = nullptr;
  const size_t width = schema_.NumColumns();
  fallback_vp_.Reset(width, kVectorSize);
  size_t n = 0;
  while (n < kVectorSize && !exhausted_) {
    RFV_RETURN_IF_ERROR(NextImpl(&fallback_row_, &exhausted_));
    if (exhausted_) break;
    RFV_CHECK_MSG(fallback_row_.size() == width,
                  "row width " << fallback_row_.size()
                               << " != projection width " << width);
    for (size_t c = 0; c < width; ++c) {
      fallback_vp_.column(c).SetValue(n, fallback_row_[c]);
    }
    ++n;
  }
  if (n == 0) return Status::OK();
  fallback_vp_.Truncate(n);
  *out = &fallback_vp_;
  return Status::OK();
}

Status PhysicalOperator::NextRowFromVectors(Row* row, bool* eof) {
  if (row_vp_ == nullptr || row_slot_ >= row_vp_->NumSelected()) {
    row_slot_ = 0;
    RFV_RETURN_IF_ERROR(PullVector(&row_vp_));
    *eof = row_vp_ == nullptr;
    if (*eof) return Status::OK();
    ++metrics_.vectors_out;
  }
  row_vp_->MaterializeRow(row_vp_->sel()[row_slot_++], row);
  *eof = false;
  return Status::OK();
}

Result<std::vector<Row>> ExecuteToVector(PhysicalOperator* op, bool) {
  {
    TraceSpan open_span("exec.open");
    if (open_span.active()) open_span.AddArg("root", op->name());
    RFV_RETURN_IF_ERROR(op->Open());
  }
  TraceSpan drain_span("exec.drain");
  // Rows materialize only here, at the plan boundary, from whatever
  // survived the selection vectors of a vectorized root.
  std::vector<Row> rows;
  const Status drained = DrainChild(op, &rows);
  if (op->vectorized()) VectorsCounter()->Increment(op->metrics().vectors_out);
  RFV_RETURN_IF_ERROR(drained);
  if (drain_span.active()) {
    drain_span.AddArg("rows", std::to_string(rows.size()));
  }
  return rows;
}

Status DrainChild(PhysicalOperator* child, std::vector<Row>* out) {
  bool eof = false;
  if (child->vectorized()) {
    VectorProjection* vp = nullptr;
    while (true) {
      RFV_RETURN_IF_ERROR(child->NextVector(&vp, &eof));
      if (eof) return Status::OK();
      vp->AppendSelectedTo(out);
    }
  }
  while (true) {
    Row row;
    RFV_RETURN_IF_ERROR(child->Next(&row, &eof));
    if (eof) return Status::OK();
    out->push_back(std::move(row));
  }
}

Result<std::vector<Row>> ExecutePlan(const LogicalPlan& plan,
                                     const ExecOptions& options) {
  PhysicalOperatorPtr op;
  RFV_ASSIGN_OR_RETURN(op, BuildPhysicalPlan(plan, options));
  return ExecuteToVector(op.get());
}

}  // namespace rfv
