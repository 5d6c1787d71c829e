#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "plan/planner.h"

namespace rfv {

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

Status NestedLoopJoinOp::OpenImpl() {
  right_rows_.clear();
  left_valid_ = false;
  RFV_RETURN_IF_ERROR(left_->Open());
  RFV_RETURN_IF_ERROR(right_->Open());
  right_width_ = right_->schema().NumColumns();
  RFV_RETURN_IF_ERROR(DrainChild(right_.get(), &right_rows_));
  NoteBufferedRows(right_rows_.size());
  return Status::OK();
}

Status NestedLoopJoinOp::AdvanceLeft(bool* eof) {
  RFV_RETURN_IF_ERROR(left_->Next(&current_left_, eof));
  left_valid_ = !*eof;
  left_matched_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Status NestedLoopJoinOp::NextImpl(Row* row, bool* eof) {
  while (true) {
    if (!left_valid_) {
      bool left_eof = false;
      RFV_RETURN_IF_ERROR(AdvanceLeft(&left_eof));
      if (left_eof) {
        *eof = true;
        return Status::OK();
      }
    }
    while (right_pos_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_pos_++];
      Row joined = Row::Concat(current_left_, right_row);
      bool match = true;
      if (condition_ != nullptr) {
        RFV_ASSIGN_OR_RETURN(match,
                             Evaluator::EvalPredicate(*condition_, joined));
      }
      if (match) {
        left_matched_ = true;
        *row = std::move(joined);
        *eof = false;
        return Status::OK();
      }
    }
    // Right side exhausted for this left row.
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      Row joined = current_left_;
      for (size_t i = 0; i < right_width_; ++i) joined.Append(Value::Null());
      left_valid_ = false;
      *row = std::move(joined);
      *eof = false;
      return Status::OK();
    }
    left_valid_ = false;
  }
}

// ---------------------------------------------------------------------------
// Index probe extraction
// ---------------------------------------------------------------------------

namespace {

/// If `expr` is `colref(column)` or `colref(column) ± <int literal>`
/// (the affine candidate shapes of the paper's Fig. 2/4 IN-predicates),
/// returns the literal offset d such that expr = col + d.
std::optional<int64_t> AffineOffsetOfColumn(const Expr& expr, size_t column) {
  if (expr.kind == ExprKind::kColumnRef) {
    return expr.column_index == column ? std::optional<int64_t>(0)
                                       : std::nullopt;
  }
  if (expr.kind == ExprKind::kBinary &&
      (expr.binary_op == BinaryOp::kAdd || expr.binary_op == BinaryOp::kSub)) {
    const Expr& lhs = *expr.children[0];
    const Expr& rhs = *expr.children[1];
    if (lhs.kind == ExprKind::kColumnRef && lhs.column_index == column &&
        rhs.kind == ExprKind::kLiteral &&
        rhs.literal.type() == DataType::kInt64) {
      const int64_t d = rhs.literal.AsInt();
      return expr.binary_op == BinaryOp::kAdd ? d : -d;
    }
    // <literal> + colref (addition only; subtraction would negate the column).
    if (expr.binary_op == BinaryOp::kAdd && rhs.kind == ExprKind::kColumnRef &&
        rhs.column_index == column && lhs.kind == ExprKind::kLiteral &&
        lhs.literal.type() == DataType::kInt64) {
      return lhs.literal.AsInt();
    }
  }
  return std::nullopt;
}

/// Probe fragments extracted from a single conjunct.
struct ProbeFragment {
  std::vector<ExprPtr> points;  ///< left-schema exprs, one key each
  ExprPtr lo;                   ///< inclusive bounds (left schema)
  ExprPtr hi;
  bool exact = false;  ///< conjunct fully captured by the probe
};

/// Tries to extract a probe fragment on the indexed right column
/// `abs_col` (absolute index into the joined schema) from one conjunct.
/// `left_width` delimits left columns [0, left_width).
std::optional<ProbeFragment> ExtractFragment(const Expr& conjunct,
                                             size_t left_width,
                                             size_t abs_col) {
  const auto is_left_only = [&](const Expr& e) {
    return RefsOnlyRange(e, 0, left_width);
  };
  const auto is_index_col = [&](const Expr& e) {
    return e.kind == ExprKind::kColumnRef && e.column_index == abs_col;
  };

  switch (conjunct.kind) {
    case ExprKind::kBinary: {
      const Expr& lhs = *conjunct.children[0];
      const Expr& rhs = *conjunct.children[1];
      BinaryOp op = conjunct.binary_op;
      const Expr* col_side = nullptr;
      const Expr* other = nullptr;
      if (is_index_col(lhs) && is_left_only(rhs)) {
        col_side = &lhs;
        other = &rhs;
      } else if (is_index_col(rhs) && is_left_only(lhs)) {
        col_side = &rhs;
        other = &lhs;
        // Mirror the comparison: e <op> col  ⇔  col <mirror(op)> e.
        switch (op) {
          case BinaryOp::kLt: op = BinaryOp::kGt; break;
          case BinaryOp::kLe: op = BinaryOp::kGe; break;
          case BinaryOp::kGt: op = BinaryOp::kLt; break;
          case BinaryOp::kGe: op = BinaryOp::kLe; break;
          default: break;
        }
      } else {
        return std::nullopt;
      }
      (void)col_side;
      ProbeFragment fragment;
      switch (op) {
        case BinaryOp::kEq:
          fragment.points.push_back(other->Clone());
          fragment.exact = true;
          return fragment;
        case BinaryOp::kLe:
          fragment.hi = other->Clone();
          fragment.exact = true;
          return fragment;
        case BinaryOp::kGe:
          fragment.lo = other->Clone();
          fragment.exact = true;
          return fragment;
        case BinaryOp::kLt:
          // Relaxed to <=; conjunct stays in the residual.
          fragment.hi = other->Clone();
          fragment.exact = false;
          return fragment;
        case BinaryOp::kGt:
          fragment.lo = other->Clone();
          fragment.exact = false;
          return fragment;
        default:
          return std::nullopt;
      }
    }
    case ExprKind::kBetween: {
      if (!is_index_col(*conjunct.children[0])) return std::nullopt;
      if (!is_left_only(*conjunct.children[1]) ||
          !is_left_only(*conjunct.children[2])) {
        return std::nullopt;
      }
      ProbeFragment fragment;
      fragment.lo = conjunct.children[1]->Clone();
      fragment.hi = conjunct.children[2]->Clone();
      fragment.exact = true;
      return fragment;
    }
    case ExprKind::kIn: {
      const Expr& needle = *conjunct.children[0];
      ProbeFragment fragment;
      if (is_index_col(needle)) {
        // col IN (<left exprs>).
        for (size_t i = 1; i < conjunct.children.size(); ++i) {
          if (!is_left_only(*conjunct.children[i])) return std::nullopt;
          fragment.points.push_back(conjunct.children[i]->Clone());
        }
        fragment.exact = true;
        return fragment;
      }
      if (is_left_only(needle)) {
        // <left expr> IN (col ± c, ...): invert each candidate to
        // col = needle ∓ c (paper Fig. 2/4 predicate shape).
        for (size_t i = 1; i < conjunct.children.size(); ++i) {
          const std::optional<int64_t> d =
              AffineOffsetOfColumn(*conjunct.children[i], abs_col);
          if (!d.has_value()) return std::nullopt;
          fragment.points.push_back(
              eb::Sub(needle.Clone(), eb::Int(*d)));
        }
        fragment.exact = true;
        return fragment;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

/// Merges probe fragments across the branches of an OR disjunction into
/// a single approximate union probe on the indexed column: point sets
/// union; ranges widen to their hull (LEAST of lower bounds, GREATEST of
/// upper bounds; a branch without a bound unbounds that side). Returns
/// nullopt unless *every* branch yields a fragment of the same shape.
/// This is what lets the paper's disjunctive MaxOA/MinOA join predicates
/// (Figures 10/13) use the position index.
std::optional<ProbeFragment> MergeOrFragments(const Expr& or_expr,
                                              size_t left_width,
                                              size_t abs_col) {
  // Collect OR leaves.
  std::vector<const Expr*> leaves;
  std::vector<const Expr*> stack = {&or_expr};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kOr) {
      stack.push_back(e->children[0].get());
      stack.push_back(e->children[1].get());
    } else {
      leaves.push_back(e);
    }
  }

  ProbeFragment merged;
  merged.exact = false;  // a union probe is always a superset
  bool first = true;
  bool points_mode = false;
  bool lo_open = false;  // some branch has no lower bound
  bool hi_open = false;
  for (const Expr* leaf : leaves) {
    // Each OR branch is an AND-list; find its strongest fragment.
    std::vector<ExprPtr> branch_conjuncts;
    SplitConjuncts(leaf->Clone(), &branch_conjuncts);
    std::optional<ProbeFragment> best;
    const auto rank = [](const ProbeFragment& p) {
      if (!p.points.empty()) return 3;
      if (p.lo != nullptr && p.hi != nullptr) return 2;
      return 1;
    };
    for (const ExprPtr& bc : branch_conjuncts) {
      std::optional<ProbeFragment> f =
          ExtractFragment(*bc, left_width, abs_col);
      if (!f.has_value()) continue;
      if (!best.has_value() || rank(*f) > rank(*best)) best = std::move(f);
    }
    if (!best.has_value()) return std::nullopt;

    const bool branch_points = !best->points.empty();
    if (first) {
      points_mode = branch_points;
    } else if (points_mode != branch_points) {
      return std::nullopt;  // mixed shapes: give up
    }
    if (points_mode) {
      for (ExprPtr& p : best->points) merged.points.push_back(std::move(p));
    } else {
      if (best->lo == nullptr) {
        lo_open = true;
        merged.lo.reset();
      } else if (!lo_open) {
        if (first || merged.lo == nullptr) {
          merged.lo = std::move(best->lo);
        } else {
          std::vector<ExprPtr> args;
          args.push_back(std::move(merged.lo));
          args.push_back(std::move(best->lo));
          merged.lo =
              eb::Fn(ScalarFn::kMin2, std::move(args), DataType::kInt64);
        }
      }
      if (best->hi == nullptr) {
        hi_open = true;
        merged.hi.reset();
      } else if (!hi_open) {
        if (first || merged.hi == nullptr) {
          merged.hi = std::move(best->hi);
        } else {
          std::vector<ExprPtr> args;
          args.push_back(std::move(merged.hi));
          args.push_back(std::move(best->hi));
          merged.hi =
              eb::Fn(ScalarFn::kMax2, std::move(args), DataType::kInt64);
        }
      }
    }
    first = false;
  }
  if (merged.points.empty() && merged.lo == nullptr && merged.hi == nullptr) {
    return std::nullopt;
  }
  return merged;
}

/// Extracts a probe for one indexed column from a conjunct list.
/// Consumes exact fragments from `conjuncts` (set to null); inexact
/// fragments leave their conjunct in place.
std::optional<IndexProbeSpec> ExtractForColumn(
    std::vector<ExprPtr>* conjuncts, size_t left_width, size_t abs_col,
    size_t table_col) {
  IndexProbeSpec spec;
  spec.right_column = table_col;
  spec.approximate = false;
  bool found = false;

  for (ExprPtr& conjunct : *conjuncts) {
    if (conjunct == nullptr) continue;
    // Direct fragment?
    std::optional<ProbeFragment> fragment =
        ExtractFragment(*conjunct, left_width, abs_col);
    if (!fragment.has_value() && conjunct->kind == ExprKind::kBinary &&
        conjunct->binary_op == BinaryOp::kOr) {
      fragment = MergeOrFragments(*conjunct, left_width, abs_col);
    }
    if (!fragment.has_value()) continue;

    if (!fragment->points.empty()) {
      // Point probes win outright; combine with nothing else.
      spec.point_exprs = std::move(fragment->points);
      spec.range_lo.reset();
      spec.range_hi.reset();
      spec.approximate = !fragment->exact;
      if (fragment->exact) conjunct.reset();
      found = true;
      break;
    }
    // Range fragments combine: intersect bounds.
    if (fragment->lo != nullptr) {
      if (spec.range_lo == nullptr) {
        spec.range_lo = std::move(fragment->lo);
      } else {
        std::vector<ExprPtr> args;
        args.push_back(std::move(spec.range_lo));
        args.push_back(std::move(fragment->lo));
        spec.range_lo =
            eb::Fn(ScalarFn::kMax2, std::move(args), DataType::kInt64);
      }
    }
    if (fragment->hi != nullptr) {
      if (spec.range_hi == nullptr) {
        spec.range_hi = std::move(fragment->hi);
      } else {
        std::vector<ExprPtr> args;
        args.push_back(std::move(spec.range_hi));
        args.push_back(std::move(fragment->hi));
        spec.range_hi =
            eb::Fn(ScalarFn::kMin2, std::move(args), DataType::kInt64);
      }
    }
    if (!fragment->exact) spec.approximate = true;
    if (fragment->exact) conjunct.reset();
    found = true;
  }

  if (!found) return std::nullopt;
  if (spec.point_exprs.empty() && spec.range_lo == nullptr &&
      spec.range_hi == nullptr) {
    return std::nullopt;
  }
  return spec;
}

}  // namespace

std::optional<IndexProbeSpec> TryExtractIndexProbe(const Expr& condition,
                                                   size_t left_width,
                                                   Table* right_table) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition.Clone(), &conjuncts);

  std::optional<IndexProbeSpec> best;
  for (size_t table_col = 0; table_col < right_table->schema().NumColumns();
       ++table_col) {
    if (!right_table->HasIndexOnColumn(table_col)) continue;
    std::vector<ExprPtr> scratch;
    scratch.reserve(conjuncts.size());
    for (const ExprPtr& c : conjuncts) scratch.push_back(c->Clone());
    std::optional<IndexProbeSpec> spec = ExtractForColumn(
        &scratch, left_width, left_width + table_col, table_col);
    if (!spec.has_value()) continue;
    // Residual: everything not consumed.
    std::vector<ExprPtr> residual_conjuncts;
    for (ExprPtr& c : scratch) {
      if (c != nullptr) residual_conjuncts.push_back(std::move(c));
    }
    spec->residual = CombineConjuncts(std::move(residual_conjuncts));
    // Prefer point probes over ranges, exact over approximate.
    const auto rank = [](const IndexProbeSpec& s) {
      int r = 0;
      if (!s.point_exprs.empty()) r += 4;
      if (s.range_lo != nullptr && s.range_hi != nullptr) r += 2;
      if (!s.approximate) r += 1;
      return r;
    };
    if (!best.has_value() || rank(*spec) > rank(*best)) {
      best = std::move(spec);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Index nested-loop join
// ---------------------------------------------------------------------------

Status IndexNestedLoopJoinOp::OpenImpl() {
  left_valid_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  RFV_RETURN_IF_ERROR(left_->Open());
  index_ = right_table_->GetIndexOnColumn(spec_.right_column);
  if (index_ == nullptr) {
    return Status::Internal("index disappeared for index nested-loop join");
  }
  return Status::OK();
}

Status IndexNestedLoopJoinOp::AdvanceLeft(bool* eof) {
  RFV_RETURN_IF_ERROR(left_->Next(&current_left_, eof));
  left_valid_ = !*eof;
  left_matched_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  if (*eof) return Status::OK();

  // Compute the probe keys from the left row and collect candidates.
  if (!spec_.point_exprs.empty()) {
    for (const ExprPtr& e : spec_.point_exprs) {
      Value key;
      RFV_ASSIGN_OR_RETURN(key, Evaluator::Eval(*e, current_left_));
      if (key.is_null()) continue;  // NULL never equi-matches
      std::vector<size_t> hits = index_->Lookup(key);
      candidates_.insert(candidates_.end(), hits.begin(), hits.end());
    }
    // IN-style probes may hit the same row via several keys; a join
    // predicate match is boolean, so deduplicate.
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                      candidates_.end());
  } else {
    Value lo;
    Value hi;
    bool has_lo = false;
    bool has_hi = false;
    if (spec_.range_lo != nullptr) {
      RFV_ASSIGN_OR_RETURN(lo, Evaluator::Eval(*spec_.range_lo, current_left_));
      has_lo = !lo.is_null();
      if (lo.is_null()) {
        // NULL bound: comparison can never be satisfied.
        candidates_.clear();
        return Status::OK();
      }
    }
    if (spec_.range_hi != nullptr) {
      RFV_ASSIGN_OR_RETURN(hi, Evaluator::Eval(*spec_.range_hi, current_left_));
      has_hi = !hi.is_null();
      if (hi.is_null()) {
        candidates_.clear();
        return Status::OK();
      }
    }
    candidates_ = index_->LookupRange(lo, has_lo, hi, has_hi);
  }
  return Status::OK();
}

Status IndexNestedLoopJoinOp::NextImpl(Row* row, bool* eof) {
  while (true) {
    if (!left_valid_) {
      bool left_eof = false;
      RFV_RETURN_IF_ERROR(AdvanceLeft(&left_eof));
      if (left_eof) {
        *eof = true;
        return Status::OK();
      }
    }
    while (candidate_pos_ < candidates_.size()) {
      const size_t right_id = candidates_[candidate_pos_++];
      Row joined = Row::Concat(current_left_, right_table_->row(right_id));
      bool match = true;
      if (spec_.residual != nullptr) {
        RFV_ASSIGN_OR_RETURN(
            match, Evaluator::EvalPredicate(*spec_.residual, joined));
      }
      if (match) {
        left_matched_ = true;
        *row = std::move(joined);
        *eof = false;
        return Status::OK();
      }
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      Row joined = current_left_;
      for (size_t i = 0; i < right_schema_.NumColumns(); ++i) {
        joined.Append(Value::Null());
      }
      left_valid_ = false;
      *row = std::move(joined);
      *eof = false;
      return Status::OK();
    }
    left_valid_ = false;
  }
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

Counter* HashBuildRowsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_exec_hash_build_rows_total", {},
      "Rows inserted into hash join build tables");
  return c;
}

Counter* HashProbeVectorsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_exec_hash_probe_vectors_total", {},
      "Probe-side vectors bulk-hashed by vectorized hash joins");
  return c;
}

}  // namespace

Status HashJoinOp::OpenImpl() {
  hash_table_.clear();
  left_valid_ = false;
  bucket_ = nullptr;
  probe_vp_ = nullptr;
  probe_lane_pos_ = 0;
  probe_input_eof_ = false;
  vec_candidates_.clear();
  vec_candidate_pos_ = 0;
  RFV_RETURN_IF_ERROR(left_->Open());
  RFV_RETURN_IF_ERROR(right_->Open());
  right_width_ = right_->schema().NumColumns();
  if (vectorized()) return OpenVectorized();
  std::vector<Row> build_rows;
  RFV_RETURN_IF_ERROR(DrainChild(right_.get(), &build_rows));
  size_t buffered = 0;
  for (Row& row : build_rows) {
    std::vector<Value> key;
    key.reserve(right_keys_.size());
    bool has_null = false;
    for (const ExprPtr& k : right_keys_) {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*k, row));
      has_null = has_null || v.is_null();
      key.push_back(std::move(v));
    }
    if (has_null) continue;  // NULL keys never equi-match
    hash_table_[std::move(key)].push_back(std::move(row));
    ++buffered;
  }
  HashBuildRowsCounter()->Increment(static_cast<int64_t>(buffered));
  NoteBufferedRows(buffered);
  return Status::OK();
}

Status HashJoinOp::OpenVectorized() {
  std::vector<Row> build_rows;
  RFV_RETURN_IF_ERROR(DrainChild(right_.get(), &build_rows));
  const size_t n = build_rows.size();

  // Transpose the build side once into columnar lanes: the gather
  // source for output emission and the input of the key evaluation.
  build_vp_.Reset(right_width_, n);
  for (size_t i = 0; i < n; ++i) {
    const Row& row = build_rows[i];
    for (size_t c = 0; c < right_width_; ++c) {
      build_vp_.column(c).SetValue(i, row[c]);
    }
  }

  // Evaluate all key expressions column-at-a-time, then bulk-hash the
  // whole key vector set in one kernel pass (hash-identical to the row
  // path's RowColumnsHash).
  build_key_vecs_.resize(right_keys_.size());
  std::vector<const Vector*> key_ptrs(right_keys_.size());
  for (size_t j = 0; j < right_keys_.size(); ++j) {
    RFV_RETURN_IF_ERROR(VectorEvaluator::Eval(
        *right_keys_[j], build_vp_, build_vp_.sel(), &build_key_vecs_[j]));
    key_ptrs[j] = &build_key_vecs_[j];
  }
  HashVectorColumns(key_ptrs, build_vp_.sel(), n, &build_hashes_);

  // Single allocation pass for the bucket-chain table: heads_ sized to
  // the next power of two ≥ 2n (load factor ≤ 0.5), chain_next_ one
  // slot per build row. Inserting in REVERSE row order with head
  // insertion makes every chain walk in ascending build-row order —
  // exactly the bucket arrival order the row path's map produces, so
  // output order is identical across paths.
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  bucket_mask_ = cap - 1;
  heads_.assign(cap, kChainEnd);
  chain_next_.assign(n, kChainEnd);
  size_t inserted = 0;
  for (size_t i = n; i-- > 0;) {
    bool has_null = false;
    for (const Vector& kv : build_key_vecs_) {
      if (kv.is_null(i)) {
        has_null = true;
        break;
      }
    }
    if (has_null) continue;  // NULL keys never equi-match
    const size_t b = static_cast<size_t>(build_hashes_[i] & bucket_mask_);
    chain_next_[i] = heads_[b];
    heads_[b] = static_cast<uint32_t>(i);
    ++inserted;
  }
  HashBuildRowsCounter()->Increment(static_cast<int64_t>(inserted));
  NoteBufferedRows(inserted);
  return Status::OK();
}

Status HashJoinOp::AdvanceLeft(bool* eof) {
  RFV_RETURN_IF_ERROR(left_->Next(&current_left_, eof));
  left_valid_ = !*eof;
  left_matched_ = false;
  bucket_ = nullptr;
  bucket_pos_ = 0;
  if (*eof) return Status::OK();
  std::vector<Value> key;
  key.reserve(left_keys_.size());
  for (const ExprPtr& k : left_keys_) {
    Value v;
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*k, current_left_));
    if (v.is_null()) return Status::OK();  // no bucket
    key.push_back(std::move(v));
  }
  const auto it = hash_table_.find(key);
  if (it != hash_table_.end()) bucket_ = &it->second;
  return Status::OK();
}

Status HashJoinOp::NextImpl(Row* row, bool* eof) {
  while (true) {
    if (!left_valid_) {
      bool left_eof = false;
      RFV_RETURN_IF_ERROR(AdvanceLeft(&left_eof));
      if (left_eof) {
        *eof = true;
        return Status::OK();
      }
    }
    if (bucket_ != nullptr) {
      while (bucket_pos_ < bucket_->size()) {
        const Row& right_row = (*bucket_)[bucket_pos_++];
        Row joined = Row::Concat(current_left_, right_row);
        bool match = true;
        if (residual_ != nullptr) {
          RFV_ASSIGN_OR_RETURN(match,
                               Evaluator::EvalPredicate(*residual_, joined));
        }
        if (match) {
          left_matched_ = true;
          *row = std::move(joined);
          *eof = false;
          return Status::OK();
        }
      }
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      Row joined = current_left_;
      for (size_t i = 0; i < right_width_; ++i) joined.Append(Value::Null());
      left_valid_ = false;
      *row = std::move(joined);
      *eof = false;
      return Status::OK();
    }
    left_valid_ = false;
  }
}

Status HashJoinOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // Native only when the planner stamped this operator vectorized (the
  // chain table exists then); otherwise keep the lane-writing fallback.
  if (!vectorized()) return PhysicalOperator::NextVectorImpl(out, eof);

  const size_t left_width = left_->schema().NumColumns();
  out_vp_.Reset(left_width + right_width_, vector_capacity_);
  size_t filled = 0;

  while (filled < vector_capacity_) {
    if (!left_valid_) {
      // Advance to the next probe lane, pulling and bulk-hashing fresh
      // probe vectors as needed (drain-first EOF contract).
      while (probe_vp_ == nullptr ||
             probe_lane_pos_ >= probe_vp_->NumSelected()) {
        if (probe_input_eof_) goto drained;
        bool child_eof = false;
        RFV_RETURN_IF_ERROR(left_->NextVector(&probe_vp_, &child_eof));
        probe_input_eof_ = child_eof;
        probe_lane_pos_ = 0;
        if (probe_vp_ != nullptr && probe_vp_->NumSelected() == 0) {
          probe_vp_ = nullptr;
        }
        if (probe_vp_ != nullptr) {
          probe_key_vecs_.resize(left_keys_.size());
          std::vector<const Vector*> key_ptrs(left_keys_.size());
          for (size_t j = 0; j < left_keys_.size(); ++j) {
            RFV_RETURN_IF_ERROR(
                VectorEvaluator::Eval(*left_keys_[j], *probe_vp_,
                                      probe_vp_->sel(), &probe_key_vecs_[j]));
            key_ptrs[j] = &probe_key_vecs_[j];
          }
          HashVectorColumns(key_ptrs, probe_vp_->sel(),
                            probe_vp_->num_rows(), &probe_hashes_);
          HashProbeVectorsCounter()->Increment();
        }
      }
      current_lane_ = probe_vp_->sel()[probe_lane_pos_++];
      // Chase this lane's bucket chain: full-hash pre-check, then the
      // typed cell comparison (Value::Compare semantics). The chain is
      // in ascending build-row order by construction.
      vec_candidates_.clear();
      vec_candidate_pos_ = 0;
      bool has_null = false;
      for (const Vector& kv : probe_key_vecs_) {
        if (kv.is_null(current_lane_)) {
          has_null = true;
          break;
        }
      }
      if (!has_null) {
        const uint64_t h = probe_hashes_[current_lane_];
        for (uint32_t e = heads_[static_cast<size_t>(h & bucket_mask_)];
             e != kChainEnd; e = chain_next_[e]) {
          if (build_hashes_[e] != h) continue;
          bool eq = true;
          for (size_t j = 0; j < probe_key_vecs_.size(); ++j) {
            if (!VectorCellsEqual(probe_key_vecs_[j], current_lane_,
                                  build_key_vecs_[j], e)) {
              eq = false;
              break;
            }
          }
          if (eq) vec_candidates_.push_back(e);
        }
      }
      if (residual_ != nullptr && !vec_candidates_.empty()) {
        RFV_RETURN_IF_ERROR(FilterJoinCandidates(*residual_, *probe_vp_,
                                                 current_lane_, build_vp_,
                                                 &residual_scratch_,
                                                 &vec_candidates_));
      }
      left_matched_ = !vec_candidates_.empty();
      left_valid_ = true;
    }
    if (vec_candidate_pos_ < vec_candidates_.size()) {
      const size_t run = std::min(vector_capacity_ - filled,
                                  vec_candidates_.size() - vec_candidate_pos_);
      GatherJoinRun(*probe_vp_, current_lane_, build_vp_, vec_candidates_,
                    vec_candidate_pos_, run, filled, &out_vp_);
      vec_candidate_pos_ += run;
      filled += run;
      if (vec_candidate_pos_ >= vec_candidates_.size()) left_valid_ = false;
      continue;
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      GatherNullPaddedRow(*probe_vp_, current_lane_, right_width_, filled,
                          &out_vp_);
      ++filled;
    }
    left_valid_ = false;
  }

drained:
  out_vp_.sel().Truncate(filled);
  *out = &out_vp_;
  *eof = probe_input_eof_ && !left_valid_ &&
         (probe_vp_ == nullptr || probe_lane_pos_ >= probe_vp_->NumSelected());
  return Status::OK();
}

}  // namespace rfv
