// Band joins: extraction of the BandJoinSpec that drives both the merge
// band join and the index nested-loop join (exec/join.cc), the per-row
// band resolution they share, and the MergeBandJoinOp runtime. See the
// class comment in exec/operators.h for the merge strategy: it walks a
// sorted copy of the right side, so it also works when no index exists,
// and turns the paper's disjunctive stride predicates (Figures 10/13)
// into congruence-class enumeration instead of interval scans.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/metrics_registry.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "plan/planner.h"

namespace rfv {

namespace {

Counter* BandJoinRowsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_band_join_rows_total", {},
      "Rows emitted by merge band join operators");
  return c;
}

Counter* BandFoldCandidatesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_exec_band_fold_candidates_total", {},
      "Band join candidates folded into SUM partials instead of being "
      "emitted as joined rows");
  return c;
}

/// hi - lo for lo <= hi, exact where the int64 difference overflows.
uint64_t Span(int64_t lo, int64_t hi) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

/// Applies an evaluated lower (`is_lo`) or upper bound to *out; NULL
/// empties the band.
Status ApplyBound(const Value& v, bool strict, bool is_lo,
                  ResolvedBand* out) {
  // Comparison with NULL is never true.
  int64_t* bound = is_lo ? &out->lo : &out->hi;
  if (v.is_null()) {
    out->empty = true;
    return Status::OK();
  }
  if (v.type() == DataType::kInt64) {
    int64_t b = v.AsInt();
    if (strict) {
      if (is_lo) {
        if (b == std::numeric_limits<int64_t>::max()) {
          out->empty = true;
          return Status::OK();
        }
        ++b;
      } else {
        if (b == std::numeric_limits<int64_t>::min()) {
          out->empty = true;
          return Status::OK();
        }
        --b;
      }
    }
    *bound = b;
    return Status::OK();
  }
  if (v.type() == DataType::kDouble) {
    const double d = v.AsDouble();
    if (std::isnan(d)) {
      // Value::Compare orders NaN above every number from either side,
      // so `key >= NaN` and `NaN <= key` disagree; the band takes no key.
      out->empty = true;
      return Status::OK();
    }
    constexpr double kExact = 9007199254740992.0;  // 2^53
    if (std::fabs(d) < kExact) {
      // Keys this close to zero convert to double exactly: round
      // inward; a strict integral bound tightens by one.
      double rounded = is_lo ? std::ceil(d) : std::floor(d);
      if (strict && rounded == d) rounded += is_lo ? 1.0 : -1.0;
      *bound = static_cast<int64_t>(rounded);
      return Status::OK();
    }
    // Beyond 2^53 Value::Compare rounds the key to double, so the band's
    // edge is found by binary search on that comparison, which is
    // monotone in the key. A bound past the int64 range saturates the
    // band or empties it.
    const auto kept = [&](int64_t k) {
      const double x = static_cast<double>(k);
      if (is_lo) return strict ? x > d : x >= d;
      return strict ? x < d : x <= d;
    };
    // false for the keys below the edge, true from it on: a lower bound
    // keeps the keys from the edge, an upper bound those before it.
    const auto past_edge = [&](int64_t k) { return kept(k) == is_lo; };
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    if (!past_edge(kMax)) {
      if (is_lo) {
        out->empty = true;
      } else {
        *bound = kMax;
      }
      return Status::OK();
    }
    int64_t first = kMin;
    int64_t last = kMax;
    while (first < last) {
      const int64_t mid = first + static_cast<int64_t>(Span(first, last) / 2);
      if (past_edge(mid)) {
        last = mid;
      } else {
        first = mid + 1;
      }
    }
    if (is_lo) {
      *bound = first;
    } else if (first == kMin) {
      out->empty = true;
    } else {
      *bound = first - 1;
    }
    return Status::OK();
  }
  return Status::TypeError("band join bound must be numeric");
}

/// Applies an evaluated congruence anchor to *out.
void ApplyAnchor(const Value& a, int64_t modulus, ResolvedBand* out) {
  if (a.is_null() || a.type() != DataType::kInt64) {
    out->empty = true;  // MOD(NULL, w) = anything is never true
    return;
  }
  out->residue = FlooredMod(a.AsInt(), modulus);
}

/// If `expr` is `colref(column)` or `colref(column) ± <int literal>`,
/// returns the offset d with expr = col + d (Fig. 2/4 IN-candidates).
std::optional<int64_t> AffineOffset(const Expr& expr, size_t column) {
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
    if (expr.binary_op == BinaryOp::kAdd && rhs.kind == ExprKind::kColumnRef &&
        rhs.column_index == column && lhs.kind == ExprKind::kLiteral &&
        lhs.literal.type() == DataType::kInt64) {
      return lhs.literal.AsInt();
    }
  }
  return std::nullopt;
}

/// `MOD(e, w)` with a positive int literal w: returns (e, w).
std::optional<std::pair<const Expr*, int64_t>> AsModCall(const Expr& expr) {
  if (expr.kind != ExprKind::kFunction || expr.function != ScalarFn::kMod ||
      expr.children.size() != 2) {
    return std::nullopt;
  }
  const Expr& divisor = *expr.children[1];
  if (divisor.kind != ExprKind::kLiteral ||
      divisor.literal.type() != DataType::kInt64) {
    return std::nullopt;
  }
  const int64_t w = divisor.literal.AsInt();
  if (w <= 0) return std::nullopt;  // MOD-by-zero stays an interpreter error
  return std::make_pair(expr.children[0].get(), w);
}

/// Folds one conjunct into the band under construction. Returns false
/// when the conjunct is not representable (or would conflict with what
/// the band already holds); the caller leaves it for the residual.
bool FoldConjunct(const Expr& conjunct, size_t left_width, size_t abs_col,
                  BandSpec* band) {
  const auto is_left_only = [&](const Expr& e) {
    return RefsOnlyRange(e, 0, left_width);
  };
  const auto is_key_col = [&](const Expr& e) {
    return e.kind == ExprKind::kColumnRef && e.column_index == abs_col;
  };

  switch (conjunct.kind) {
    case ExprKind::kBinary: {
      const Expr& lhs = *conjunct.children[0];
      const Expr& rhs = *conjunct.children[1];
      BinaryOp op = conjunct.binary_op;

      // Congruence: MOD(left expr, w) = MOD(key, w), either orientation.
      if (op == BinaryOp::kEq) {
        const auto lmod = AsModCall(lhs);
        const auto rmod = AsModCall(rhs);
        if (lmod.has_value() && rmod.has_value() &&
            lmod->second == rmod->second) {
          const Expr* key_side = nullptr;
          const Expr* anchor_side = nullptr;
          if (is_key_col(*lmod->first) && is_left_only(*rmod->first)) {
            key_side = lmod->first;
            anchor_side = rmod->first;
          } else if (is_key_col(*rmod->first) && is_left_only(*lmod->first)) {
            key_side = rmod->first;
            anchor_side = lmod->first;
          }
          if (key_side != nullptr) {
            if (band->modulus != 0) return false;  // one congruence per band
            band->anchor = anchor_side->Clone();
            band->modulus = lmod->second;
            return true;
          }
          return false;
        }
      }

      const Expr* other = nullptr;
      if (is_key_col(lhs) && is_left_only(rhs)) {
        other = &rhs;
      } else if (is_key_col(rhs) && is_left_only(lhs)) {
        other = &lhs;
        switch (op) {  // mirror: e <op> key  ⇔  key <mirror(op)> e
          case BinaryOp::kLt: op = BinaryOp::kGt; break;
          case BinaryOp::kLe: op = BinaryOp::kGe; break;
          case BinaryOp::kGt: op = BinaryOp::kLt; break;
          case BinaryOp::kGe: op = BinaryOp::kLe; break;
          default: break;
        }
      } else {
        return false;
      }

      switch (op) {
        case BinaryOp::kEq:
          if (band->lo != nullptr || band->hi != nullptr) return false;
          band->lo = other->Clone();
          band->hi = other->Clone();
          band->is_point = true;
          return true;
        case BinaryOp::kLe:
        case BinaryOp::kLt:
          if (band->hi != nullptr) return false;
          band->hi = other->Clone();
          band->hi_strict = (op == BinaryOp::kLt);
          return true;
        case BinaryOp::kGe:
        case BinaryOp::kGt:
          if (band->lo != nullptr) return false;
          band->lo = other->Clone();
          band->lo_strict = (op == BinaryOp::kGt);
          return true;
        default:
          return false;
      }
    }
    case ExprKind::kBetween: {
      if (!is_key_col(*conjunct.children[0])) return false;
      if (!is_left_only(*conjunct.children[1]) ||
          !is_left_only(*conjunct.children[2])) {
        return false;
      }
      if (band->lo != nullptr || band->hi != nullptr) return false;
      band->lo = conjunct.children[1]->Clone();
      band->hi = conjunct.children[2]->Clone();
      return true;
    }
    default:
      return false;
  }
}

/// Expands `key IN (left exprs)` / `left expr IN (key ± c, ...)` into
/// one point band per candidate. Returns false when the conjunct is not
/// a recognizable IN on the key column.
bool ExpandInConjunct(const Expr& conjunct, size_t left_width, size_t abs_col,
                      std::vector<BandSpec>* out) {
  if (conjunct.kind != ExprKind::kIn) return false;
  const auto is_left_only = [&](const Expr& e) {
    return RefsOnlyRange(e, 0, left_width);
  };
  const Expr& needle = *conjunct.children[0];
  std::vector<BandSpec> bands;
  if (needle.kind == ExprKind::kColumnRef && needle.column_index == abs_col) {
    for (size_t i = 1; i < conjunct.children.size(); ++i) {
      if (!is_left_only(*conjunct.children[i])) return false;
      BandSpec b;
      b.lo = conjunct.children[i]->Clone();
      b.hi = conjunct.children[i]->Clone();
      b.is_point = true;
      bands.push_back(std::move(b));
    }
  } else if (is_left_only(needle)) {
    for (size_t i = 1; i < conjunct.children.size(); ++i) {
      const std::optional<int64_t> d =
          AffineOffset(*conjunct.children[i], abs_col);
      if (!d.has_value()) return false;
      BandSpec b;
      b.lo = eb::Sub(needle.Clone(), eb::Int(*d));
      b.hi = b.lo->Clone();
      b.is_point = true;
      bands.push_back(std::move(b));
    }
  } else {
    return false;
  }
  if (bands.empty()) return false;
  *out = std::move(bands);
  return true;
}

bool BandHasShape(const BandSpec& band) {
  return band.lo != nullptr || band.hi != nullptr || band.modulus != 0;
}

/// Extraction for one candidate key column. `approximate` is set when
/// an OR branch carried conjuncts that could not be folded (the bands
/// then over-approximate, and the residual is the whole condition).
std::optional<BandJoinSpec> ExtractForKeyColumn(const Expr& condition,
                                                size_t left_width,
                                                size_t abs_col,
                                                size_t table_col) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition.Clone(), &conjuncts);

  BandSpec base;
  bool base_used = false;
  std::vector<BandSpec> in_bands;
  std::vector<BandSpec> or_bands;
  bool or_approx = false;

  for (ExprPtr& conjunct : conjuncts) {
    if (FoldConjunct(*conjunct, left_width, abs_col, &base)) {
      base_used = true;
      conjunct.reset();
      continue;
    }
    if (in_bands.empty() &&
        ExpandInConjunct(*conjunct, left_width, abs_col, &in_bands)) {
      conjunct.reset();
      continue;
    }
    if (or_bands.empty() && conjunct->kind == ExprKind::kBinary &&
        conjunct->binary_op == BinaryOp::kOr) {
      // Each OR branch must yield a band of its own; a branch with
      // unfoldable extras widens (superset) and forces a recheck.
      std::vector<const Expr*> leaves;
      std::vector<const Expr*> stack = {conjunct.get()};
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
      std::vector<BandSpec> branches;
      bool branches_ok = true;
      bool leftovers = false;
      for (const Expr* leaf : leaves) {
        std::vector<ExprPtr> branch_conjuncts;
        SplitConjuncts(leaf->Clone(), &branch_conjuncts);
        BandSpec branch;
        for (const ExprPtr& bc : branch_conjuncts) {
          if (!FoldConjunct(*bc, left_width, abs_col, &branch)) {
            leftovers = true;
          }
        }
        if (!BandHasShape(branch)) {
          branches_ok = false;  // this branch admits arbitrary keys
          break;
        }
        branches.push_back(std::move(branch));
      }
      if (branches_ok) {
        or_bands = std::move(branches);
        or_approx = leftovers;
        conjunct.reset();
        continue;
      }
    }
    // Unrecognized conjunct: stays in the residual.
  }

  // Exactly one band source keeps the semantics obvious; the paper's
  // patterns never mix them.
  int sources = (base_used ? 1 : 0) + (in_bands.empty() ? 0 : 1) +
                (or_bands.empty() ? 0 : 1);
  if (sources != 1) return std::nullopt;

  BandJoinSpec spec;
  spec.right_column = table_col;
  if (base_used) {
    spec.bands.push_back(std::move(base));
  } else if (!in_bands.empty()) {
    spec.bands = std::move(in_bands);
  } else {
    spec.bands = std::move(or_bands);
    spec.approximate = or_approx;
  }

  // Over-approximating bands re-check the full condition.
  if (spec.approximate) {
    spec.residual = condition.Clone();
    return spec;
  }
  std::vector<ExprPtr> residual_conjuncts;
  for (ExprPtr& c : conjuncts) {
    if (c != nullptr) residual_conjuncts.push_back(std::move(c));
  }
  spec.residual = CombineConjuncts(std::move(residual_conjuncts));
  return spec;
}

/// What the SUM fold qualification (DESIGN.md §16) checks against: the
/// joined schema's split and the band spec the join will run.
struct FoldShape {
  size_t left_width;
  size_t key_col;  ///< the band key's position in the joined schema
  const BandJoinSpec* spec;
};

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

/// A CASE condition may read the right side only as MOD(band key, w)
/// with w dividing every band's modulus: the value is then constant over
/// each band's candidates. Sets *reads_key when it does.
bool FoldableCondition(const Expr& e, const FoldShape& shape,
                       bool* reads_key) {
  const auto mod = AsModCall(e);
  if (mod.has_value() && mod->first->kind == ExprKind::kColumnRef &&
      mod->first->column_index == shape.key_col) {
    for (const BandSpec& band : shape.spec->bands) {
      if (band.modulus <= 0 || band.modulus % mod->second != 0) return false;
    }
    *reads_key = true;
    return true;
  }
  if (e.kind == ExprKind::kColumnRef) {
    return e.column_index < shape.left_width;
  }
  for (const ExprPtr& child : e.children) {
    if (!FoldableCondition(*child, shape, reads_key)) return false;
  }
  return true;
}

/// Run-foldable SUM argument: linear in one right column (*column).
/// Sets *reads_key when a CASE condition reads the band key.
bool FoldableArg(const Expr& e, const FoldShape& shape, size_t* column,
                 bool* reads_key) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (e.column_index < shape.left_width || !IsNumeric(e.type)) {
        return false;
      }
      if (*column == static_cast<size_t>(-1)) *column = e.column_index;
      return *column == e.column_index;
    case ExprKind::kUnary:
      return e.unary_op == UnaryOp::kNeg &&
             FoldableArg(*e.children[0], shape, column, reads_key);
    case ExprKind::kBinary: {
      if (e.binary_op != BinaryOp::kMul) return false;
      for (int side = 0; side < 2; ++side) {
        const Expr& factor = *e.children[side];
        if (!IsNumeric(factor.type) ||
            !RefsOnlyRange(factor, 0, shape.left_width)) {
          continue;
        }
        return FoldableArg(*e.children[1 - side], shape, column, reads_key);
      }
      return false;
    }
    case ExprKind::kCase: {
      if (!e.has_else) return false;
      const size_t pairs = (e.children.size() - 1) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        if (!FoldableCondition(*e.children[2 * i], shape, reads_key) ||
            !FoldableArg(*e.children[2 * i + 1], shape, column, reads_key)) {
          return false;
        }
      }
      return FoldableArg(*e.children.back(), shape, column, reads_key);
    }
    default:
      return false;
  }
}

/// 2^53: every integer up to this magnitude is an exact double, and so
/// is every sum and product of such integers that stays within it.
constexpr int64_t kExactDoubleInts = int64_t{1} << 53;

/// An integral double of magnitude <= 2^53, as an integer.
std::optional<int64_t> ExactIntegral(double d) {
  if (!(std::fabs(d) <= static_cast<double>(kExactDoubleInts)) ||
      std::trunc(d) != d) {
    return std::nullopt;
  }
  return static_cast<int64_t>(d);
}

/// A right cell or fold argument value: the typed int64/double pair the
/// row path's Values would hold.
struct FoldNum {
  bool is_int;
  int64_t i;
  double d;
};

}  // namespace

int64_t FlooredMod(int64_t a, int64_t w) {
  int64_t m = a % w;
  if (m != 0 && ((m < 0) != (w < 0))) m += w;
  return m;
}

Status ResolveBand(const BandSpec& band, const Row& left_row,
                   ResolvedBand* out) {
  *out = ResolvedBand();
  Value v;
  if (band.lo != nullptr) {
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*band.lo, left_row));
    RFV_RETURN_IF_ERROR(ApplyBound(v, band.lo_strict, /*is_lo=*/true, out));
    if (band.is_point && !out->empty) {
      RFV_RETURN_IF_ERROR(
          ApplyBound(v, band.hi_strict, /*is_lo=*/false, out));
    }
    if (out->empty) return Status::OK();
  }
  if (band.hi != nullptr && !band.is_point) {
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*band.hi, left_row));
    RFV_RETURN_IF_ERROR(ApplyBound(v, band.hi_strict, /*is_lo=*/false, out));
    if (out->empty) return Status::OK();
  }
  if (band.modulus > 1) {
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*band.anchor, left_row));
    ApplyAnchor(v, band.modulus, out);
    if (out->empty) return Status::OK();
  }
  if (out->lo > out->hi) out->empty = true;
  return Status::OK();
}

std::optional<BandJoinSpec> TryExtractBandJoin(const Expr& condition,
                                               size_t left_width,
                                               Table* right_table,
                                               bool indexed_only) {
  std::optional<BandJoinSpec> best;
  int best_rank = -1;
  for (size_t table_col = 0; table_col < right_table->schema().NumColumns();
       ++table_col) {
    if (right_table->schema().column(table_col).type != DataType::kInt64 ||
        (indexed_only && !right_table->HasIndexOnColumn(table_col))) {
      continue;
    }
    std::optional<BandJoinSpec> spec = ExtractForKeyColumn(
        condition, left_width, left_width + table_col, table_col);
    if (!spec.has_value()) continue;
    // Prefer stride bands (congruence prunes hardest), then multi-band,
    // then two-sided intervals, then exactness. A single plain point (an
    // equi join) ranks 0, below every other shape: those are exact or
    // multi-band, so they rank at least 1.
    int rank = 0;
    bool any_modulus = false;
    bool two_sided = true;
    for (const BandSpec& b : spec->bands) {
      any_modulus = any_modulus || b.modulus != 0;
      two_sided = two_sided && b.lo != nullptr && b.hi != nullptr;
    }
    if (any_modulus) rank += 8;
    if (spec->bands.size() > 1) rank += 4;
    if (two_sided) rank += 2;
    if (!spec->approximate) rank += 1;
    if (spec->IsSinglePlainPoint()) rank = 0;
    if (rank > best_rank) {
      best_rank = rank;
      best = std::move(spec);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// MergeBandJoinOp
// ---------------------------------------------------------------------------

Status MergeBandJoinOp::OpenImpl() {
  left_valid_ = false;
  left_matched_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  keys_.clear();
  dense_.clear();
  dense_valid_ = false;
  left_vp_ = nullptr;
  left_lane_pos_ = 0;

  RFV_RETURN_IF_ERROR(left_->Open());
  RFV_RETURN_IF_ERROR(right_->Open());
  right_width_ = right_->schema().NumColumns();

  // Keep the (snapshot-stable) right side once, columnar (row id =
  // position): the gather source of the vector paths, copied per
  // candidate into the row path's joined rows.
  right_vp_.Reset(right_width_, 0);
  VectorProjection* vp = nullptr;
  bool eof = false;
  while (true) {
    RFV_RETURN_IF_ERROR(right_->NextVector(&vp, &eof));
    if (eof) break;
    right_vp_.AppendRows(*vp, 0, vp->NumSelected());
  }
  const size_t num_right = right_vp_.num_rows();
  NoteBufferedRows(num_right);

  const Vector& key_lane = right_vp_.column(spec_.right_column);
  keys_.reserve(num_right);
  for (size_t id = 0; id < num_right; ++id) {
    if (key_lane.is_null(id)) continue;  // NULL keys never satisfy a band
    keys_.emplace_back(key_lane.tag(id) == DataType::kInt64
                           ? key_lane.i64(id)
                           : key_lane.GetValue(id).AsInt(),
                       id);
  }
  // Base tables in sequence order (the common case for the paper's pos
  // column) arrive already sorted — detect in O(m) and skip the sort.
  // The check runs on right_vp_, which the drain filled from the right
  // scan's PINNED snapshot, so the ordered-skip decision and the rows it
  // indexes are the same frozen version even when live storage mutates
  // (or compacts out of order) mid-query.
  if (!std::is_sorted(keys_.begin(), keys_.end())) {
    std::sort(keys_.begin(), keys_.end());
  }
  // Dense direct-address table when the keys are unique and contiguous
  // (a sequence's 1..n positions): point and stride probes become O(1).
  if (!keys_.empty()) {
    bool contiguous = true;
    for (size_t i = 1; i < keys_.size() && contiguous; ++i) {
      contiguous = Span(keys_[i - 1].first, keys_[i].first) == 1;
    }
    if (contiguous) {
      dense_base_ = keys_.front().first;
      dense_.resize(keys_.size());
      for (const auto& [key, id] : keys_) {
        dense_[static_cast<size_t>(key - dense_base_)] = id;
      }
      dense_valid_ = true;
    }
  }
  cursors_.assign(spec_.bands.size(), 0);
  prev_lo_.assign(spec_.bands.size(), std::numeric_limits<int64_t>::min());
  resolved_.assign(spec_.bands.size(), ResolvedBand());
  folded_candidates_ = 0;
  prefix_rows_ = 0;
  if (folding()) BuildFoldPrefixes();
  return Status::OK();
}

Status MergeBandJoinOp::ResolveLeftVector() {
  // Each bound is evaluated, as in ResolveBand, only on the rows whose
  // band the earlier bounds left non-empty.
  const size_t rows = left_vp_->num_rows();
  lane_bands_.resize(spec_.bands.size());
  for (size_t i = 0; i < spec_.bands.size(); ++i) {
    const BandSpec& band = spec_.bands[i];
    std::vector<ResolvedBand>& lanes = lane_bands_[i];
    lanes.assign(rows, ResolvedBand());
    live_lanes_.indices() = left_vp_->sel().indices();
    const auto stage = [&](const Expr& expr, const auto& apply) -> Status {
      RFV_RETURN_IF_ERROR(
          VectorEvaluator::Eval(expr, *left_vp_, live_lanes_, &bound_lane_));
      std::vector<uint32_t>& live = live_lanes_.indices();
      size_t kept = 0;
      for (const uint32_t lane : live) {
        RFV_RETURN_IF_ERROR(apply(bound_lane_.GetValue(lane), &lanes[lane]));
        if (!lanes[lane].empty) live[kept++] = lane;
      }
      live.resize(kept);
      return Status::OK();
    };
    if (band.lo != nullptr) {
      RFV_RETURN_IF_ERROR(stage(*band.lo, [&](const Value& v,
                                              ResolvedBand* out) {
        RFV_RETURN_IF_ERROR(
            ApplyBound(v, band.lo_strict, /*is_lo=*/true, out));
        if (!band.is_point || out->empty) return Status::OK();
        return ApplyBound(v, band.hi_strict, /*is_lo=*/false, out);
      }));
    }
    if (band.hi != nullptr && !band.is_point) {
      RFV_RETURN_IF_ERROR(stage(*band.hi, [&](const Value& v,
                                              ResolvedBand* out) {
        return ApplyBound(v, band.hi_strict, /*is_lo=*/false, out);
      }));
    }
    if (band.modulus > 1) {
      RFV_RETURN_IF_ERROR(stage(*band.anchor, [&](const Value& v,
                                                  ResolvedBand* out) {
        ApplyAnchor(v, band.modulus, out);
        return Status::OK();
      }));
    }
    for (const uint32_t lane : live_lanes_.indices()) {
      if (lanes[lane].lo > lanes[lane].hi) lanes[lane].empty = true;
    }
  }
  return Status::OK();
}

void MergeBandJoinOp::CollectBand(const ResolvedBand& band,
                                  size_t band_index) {
  if (band.empty || keys_.empty()) return;
  const int64_t lo = std::max(band.lo, keys_.front().first);
  const int64_t hi = std::min(band.hi, keys_.back().first);
  if (lo > hi) return;

  const int64_t w = spec_.bands[band_index].modulus;
  if (w > 1) {
    // Enumerate the congruence class k ≡ residue (mod w) inside
    // [lo, hi]: the paper's stride chains. Dense tables answer each
    // stride point in O(1); otherwise compare the chain length against
    // the interval population and pick the cheaper side. The chain
    // k0, k0 + w, ... stops on its last key rather than stepping past
    // hi, which would overflow for keys near INT64_MAX.
    const int64_t up = FlooredMod(band.residue - FlooredMod(lo, w), w);
    if (Span(lo, hi) < static_cast<uint64_t>(up)) return;
    const int64_t k0 = lo + up;
    const uint64_t steps = Span(k0, hi) / static_cast<uint64_t>(w);
    if (dense_valid_) {
      for (int64_t k = k0, i = 0;; k += w, ++i) {
        candidates_.push_back(dense_[static_cast<size_t>(k - dense_base_)]);
        if (static_cast<uint64_t>(i) == steps) break;
      }
      return;
    }
    const auto range_begin = std::lower_bound(
        keys_.begin(), keys_.end(),
        std::make_pair(lo, std::numeric_limits<size_t>::min()));
    const auto range_end = std::upper_bound(
        keys_.begin(), keys_.end(),
        std::make_pair(hi, std::numeric_limits<size_t>::max()));
    if (steps + 1 < static_cast<uint64_t>(range_end - range_begin)) {
      auto it = range_begin;
      for (int64_t k = k0, i = 0;; k += w, ++i) {
        it = std::lower_bound(
            it, range_end,
            std::make_pair(k, std::numeric_limits<size_t>::min()));
        while (it != range_end && it->first == k) {
          candidates_.push_back(it->second);
          ++it;
        }
        if (static_cast<uint64_t>(i) == steps) break;
      }
    } else {
      for (auto it = range_begin; it != range_end; ++it) {
        if (FlooredMod(it->first, w) == band.residue) {
          candidates_.push_back(it->second);
        }
      }
    }
    return;
  }

  // Plain interval: monotone start cursor. The paper's frames move
  // forward with the left row's position, so the cursor only ever
  // advances and the whole join is one O(n + matches) merge pass; a
  // backward-moving bound falls back to binary search.
  size_t start;
  if (lo >= prev_lo_[band_index]) {
    start = cursors_[band_index];
    while (start < keys_.size() && keys_[start].first < lo) ++start;
  } else {
    start = static_cast<size_t>(
        std::lower_bound(
            keys_.begin(), keys_.end(),
            std::make_pair(lo, std::numeric_limits<size_t>::min())) -
        keys_.begin());
  }
  cursors_[band_index] = start;
  prev_lo_[band_index] = lo;
  for (size_t i = start; i < keys_.size() && keys_[i].first <= hi; ++i) {
    candidates_.push_back(keys_[i].second);
  }
}

Status MergeBandJoinOp::ResolveCandidates() {
  RFV_RETURN_IF_ERROR(ResolveBands());
  CollectCandidates();
  return Status::OK();
}

Status MergeBandJoinOp::ResolveBands() {
  if (left_vp_ != nullptr && lane_bands_ready_) {
    for (size_t i = 0; i < spec_.bands.size(); ++i) {
      resolved_[i] = lane_bands_[i][current_lane_];
    }
    return Status::OK();
  }
  if (left_vp_ != nullptr) {
    left_vp_->MaterializeRow(current_lane_, &current_left_);
  }
  for (size_t i = 0; i < spec_.bands.size(); ++i) {
    RFV_RETURN_IF_ERROR(
        ResolveBand(spec_.bands[i], current_left_, &resolved_[i]));
  }
  return Status::OK();
}

void MergeBandJoinOp::CollectCandidates() {
  candidates_.clear();
  candidate_pos_ = 0;
  for (size_t i = 0; i < spec_.bands.size(); ++i) {
    CollectBand(resolved_[i], i);
  }
  if (spec_.bands.size() > 1) {
    // Overlapping bands (OR semantics) must not emit a pair twice.
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                      candidates_.end());
  }
}

Status MergeBandJoinOp::AdvanceLeft(bool* eof) {
  RFV_RETURN_IF_ERROR(left_->Next(&current_left_, eof));
  left_valid_ = !*eof;
  left_matched_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  if (*eof) return Status::OK();
  return ResolveCandidates();
}

Status MergeBandJoinOp::NextImpl(Row* row, bool* eof) {
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
      // The joined row in one copy: the left row, then the candidate's
      // right cells.
      const size_t id = candidates_[candidate_pos_++];
      std::vector<Value> values;
      values.reserve(current_left_.size() + right_width_);
      values.insert(values.end(), current_left_.values().begin(),
                    current_left_.values().end());
      for (size_t c = 0; c < right_width_; ++c) {
        values.push_back(right_vp_.column(c).GetValue(id));
      }
      Row joined(std::move(values));
      bool match = true;
      if (spec_.residual != nullptr) {
        RFV_ASSIGN_OR_RETURN(
            match, Evaluator::EvalPredicate(*spec_.residual, joined));
      }
      if (match) {
        left_matched_ = true;
        BandJoinRowsCounter()->Increment();
        *row = std::move(joined);
        *eof = false;
        return Status::OK();
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

Status MergeBandJoinOp::NextLeftLane(bool* eof) {
  if (left_vp_ == nullptr || left_lane_pos_ >= left_vp_->NumSelected()) {
    RFV_RETURN_IF_ERROR(left_->NextVector(&left_vp_, eof));
    left_lane_pos_ = 0;
    if (*eof) return Status::OK();
    // On an error each row resolves its own bands (ResolveBands), so
    // the first failing row raises it, as in row mode.
    lane_bands_ready_ = ResolveLeftVector().ok();
    if (folding()) PlanFoldVector();
  }
  current_lane_ = left_vp_->sel()[left_lane_pos_++];
  return Status::OK();
}

Status MergeBandJoinOp::ResolveLaneCandidates() {
  RFV_RETURN_IF_ERROR(ResolveBands());
  CollectCandidates();
  if (spec_.residual == nullptr || candidates_.empty()) return Status::OK();
  return FilterJoinCandidates(*spec_.residual, *left_vp_, current_lane_,
                              right_vp_, &residual_scratch_, &candidates_);
}

Status MergeBandJoinOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  if (folding()) return NextFoldedVector(out, eof);

  const size_t left_width = left_->schema().NumColumns();
  out_vp_.Reset(left_width + right_width_, vector_capacity_);
  size_t filled = 0;
  int64_t matched = 0;

  while (filled < vector_capacity_) {
    if (!left_valid_) {
      RFV_RETURN_IF_ERROR(NextLeftLane(eof));
      if (*eof) break;
      left_valid_ = true;
      RFV_RETURN_IF_ERROR(ResolveLaneCandidates());
      left_matched_ = !candidates_.empty();
    }
    if (candidate_pos_ < candidates_.size()) {
      const size_t run = std::min(vector_capacity_ - filled,
                                  candidates_.size() - candidate_pos_);
      GatherJoinRun(*left_vp_, current_lane_, right_vp_, candidates_,
                    candidate_pos_, run, filled, &out_vp_);
      candidate_pos_ += run;
      filled += run;
      matched += static_cast<int64_t>(run);
      if (candidate_pos_ >= candidates_.size()) left_valid_ = false;
      continue;
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      GatherNullPaddedRow(*left_vp_, current_lane_, right_width_, filled,
                          &out_vp_);
      ++filled;
    }
    left_valid_ = false;
  }

  out_vp_.sel().Truncate(filled);
  if (matched > 0) BandJoinRowsCounter()->Increment(matched);
  *out = &out_vp_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SUM fold (DESIGN.md §16)
// ---------------------------------------------------------------------------

bool MergeBandJoinOp::TryEnableSumFold(
    const std::vector<ExprPtr>& group_by,
    const std::vector<AggregateCall>& aggregates) {
  if (!vectorized() || join_type_ != JoinType::kInner || aggregates.empty()) {
    return false;
  }
  const size_t left_width = left_->schema().NumColumns();
  for (const ExprPtr& key : group_by) {
    if (!RefsOnlyRange(*key, 0, left_width)) return false;
  }
  const FoldShape shape{left_width, left_width + spec_.right_column, &spec_};
  std::vector<FoldTerm> terms;
  size_t leaves = 0;
  for (const AggregateCall& call : aggregates) {
    if (call.fn != AggFn::kSum || call.is_count_star || call.arg == nullptr) {
      return false;
    }
    FoldTerm term;
    size_t column = static_cast<size_t>(-1);
    bool reads_key = false;
    if (!FoldableArg(*call.arg, shape, &column, &reads_key)) return false;
    term.arg = call.arg->Clone();
    term.column = column - left_width;
    term.int_sum = call.output_type == DataType::kInt64;
    term.per_band = reads_key && spec_.bands.size() > 1;
    term.first_leaf = leaves;
    leaves += term.per_band ? spec_.bands.size() : 1;
    terms.push_back(std::move(term));
  }
  fold_terms_ = std::move(terms);
  fold_leaves_ = leaves;
  // The join now outputs one row per matched left row.
  SetEstimatedRows(left_->estimated_rows());
  return true;
}

std::string MergeBandJoinOp::MetricsDetail() const {
  if (!folding()) return std::string();
  return "fold=sum folded=" + std::to_string(folded_candidates_) +
         " prefix=" + std::to_string(prefix_rows_);
}

Status MergeBandJoinOp::FoldTermCandidates(size_t t, size_t at) {
  const FoldTerm& term = fold_terms_[t];
  if (!leaves_ready_) RFV_RETURN_IF_ERROR(ResolveLaneLeaves(t));
  const FoldLeaf* leaves = &LeafAt(current_lane_, term.first_leaf);
  const Vector& cells = right_vp_.column(term.column);
  int64_t count = 0;
  __int128 sum_int = 0;  // exact: an overflow is an error, not a wrap
  double sum_double = 0;
  for (const size_t id : candidates_) {
    const FoldLeaf& leaf = leaves[term.per_band ? FoldSlot(id) : 0];
    if (leaf.null) continue;
    const DataType tag = cells.tag(id);
    FoldNum v;
    switch (tag) {
      case DataType::kNull:
        continue;
      case DataType::kInt64:
        v = {true, cells.i64(id), 0};
        break;
      case DataType::kDouble:
        v = {false, 0, cells.f64(id)};
        break;
      default:
        return Status::TypeError("arithmetic on non-numeric value");
    }
    // The row path's typed arithmetic (EvalArithmetic / unary minus):
    // int64 stays int64 and overflows as an error, anything mixed
    // computes in double.
    for (const FoldStep& step : leaf.steps) {
      if (step.negate) {
        if (v.is_int) {
          RFV_RETURN_IF_ERROR(CheckedIntNegate(v.i, &v.i));
        } else {
          v.d = -v.d;
        }
        continue;
      }
      if (v.is_int && step.factor_int) {
        RFV_RETURN_IF_ERROR(CheckedIntArithmetic(
            BinaryOp::kMul, step.factor_first ? step.factor_i : v.i,
            step.factor_first ? v.i : step.factor_i, &v.i));
        continue;
      }
      const double x = v.is_int ? static_cast<double>(v.i) : v.d;
      const double y = step.factor_d;
      v = {false, 0, step.factor_first ? y * x : x * y};
    }
    ++count;
    if (term.int_sum) {
      if (!v.is_int) {
        return Status::TypeError("INTEGER SUM over a non-integer value");
      }
      sum_int += v.i;
    } else {
      sum_double += v.is_int ? static_cast<double>(v.i) : v.d;
    }
  }
  const size_t base = fold_partial_base() + 2 * t;
  if (term.int_sum) {
    if (sum_int > std::numeric_limits<int64_t>::max() ||
        sum_int < std::numeric_limits<int64_t>::min()) {
      return Status::ExecutionError("integer overflow in SUM");
    }
    out_vp_.column(base).SetInt(at, static_cast<int64_t>(sum_int));
  } else {
    out_vp_.column(base).SetDouble(at, sum_double);
  }
  out_vp_.column(base + 1).SetInt(at, count);
  return Status::OK();
}

size_t MergeBandJoinOp::FoldSlot(size_t id) const {
  const int64_t key = right_vp_.column(spec_.right_column).i64(id);
  const size_t last = spec_.bands.size() - 1;
  for (size_t b = 0; b < last; ++b) {
    if (resolved_[b].empty) continue;
    const int64_t m = spec_.bands[b].modulus;
    if (m <= 1 || FlooredMod(key, m) == resolved_[b].residue) return b;
  }
  return last;  // no earlier band's class holds the key
}

Status MergeBandJoinOp::ResolveLaneLeaves(size_t t) {
  const FoldTerm& term = fold_terms_[t];
  Vector& key_col =
      fold_vp_.column(fold_partial_base() + spec_.right_column);
  leaf_lanes_.Clear();
  leaf_lanes_.indices().push_back(current_lane_);
  std::vector<bool> seen(term.per_band ? spec_.bands.size() : 1);
  for (const size_t id : candidates_) {
    const size_t slot = term.per_band ? FoldSlot(id) : 0;
    if (seen[slot]) continue;
    seen[slot] = true;
    key_col.SetInt(current_lane_, resolved_[slot].residue);
    RFV_RETURN_IF_ERROR(ResolveFoldLeaves(t, slot, leaf_lanes_));
    if (!term.per_band) break;
  }
  return Status::OK();
}

void MergeBandJoinOp::BuildFoldPrefixes() {
  prefixes_.clear();
  band_prefix_.clear();
  // A chain sum is one difference only without a residual thinning the
  // chains, and one lookup only on direct-addressed (dense) keys.
  if (spec_.residual != nullptr || !dense_valid_) return;
  const size_t n = dense_.size();
  // Exactness (DESIGN.md §16 "Prefix path"): every cell integral and
  // max|cell| · n within the sum type's exact range, so each candidate
  // product and every partial sum is exact in any order.
  for (FoldTerm& term : fold_terms_) {
    const Vector& cells = right_vp_.column(term.column);
    uint64_t max_abs = 1;
    for (const size_t id : dense_) {
      const DataType tag = cells.tag(id);
      if (tag == DataType::kNull) continue;
      if (tag == DataType::kInt64) {
        const int64_t x = cells.i64(id);
        max_abs = std::max(max_abs, x < 0 ? 0 - static_cast<uint64_t>(x)
                                          : static_cast<uint64_t>(x));
        continue;
      }
      // An INTEGER SUM over a DOUBLE cell is the walk's type error.
      const std::optional<int64_t> x =
          tag == DataType::kDouble && !term.int_sum
              ? ExactIntegral(cells.f64(id))
              : std::nullopt;
      if (!x.has_value()) return;
      max_abs = std::max(max_abs, static_cast<uint64_t>(std::llabs(*x)));
    }
    const unsigned __int128 limit =
        term.int_sum
            ? static_cast<unsigned __int128>(
                  std::numeric_limits<int64_t>::max())
            : static_cast<unsigned __int128>(kExactDoubleInts);
    const unsigned __int128 reach =
        static_cast<unsigned __int128>(max_abs) * n;
    if (reach > limit) return;
    term.prefix_max_coeff = static_cast<int64_t>(limit / reach);
  }

  for (const BandSpec& band : spec_.bands) {
    const int64_t m = std::max<int64_t>(band.modulus, 1);
    size_t p = 0;
    while (p < prefixes_.size() && prefixes_[p].modulus != m) ++p;
    band_prefix_.push_back(p);
    if (p < prefixes_.size()) continue;
    FoldPrefix prefix;
    prefix.modulus = m;
    prefix.base_residue = FlooredMod(dense_base_, m);
    const size_t stride = static_cast<size_t>(m);
    for (const FoldTerm& term : fold_terms_) {
      const Vector& cells = right_vp_.column(term.column);
      std::vector<int64_t> sums(n);
      std::vector<int64_t> counts(n);
      for (size_t i = 0; i < n; ++i) {
        const size_t id = dense_[i];
        const DataType tag = cells.tag(id);
        const int64_t x = tag == DataType::kInt64
                              ? cells.i64(id)
                              : tag == DataType::kDouble
                                    ? static_cast<int64_t>(cells.f64(id))
                                    : 0;
        const int64_t c = tag == DataType::kNull ? 0 : 1;
        sums[i] = i >= stride ? sums[i - stride] + x : x;
        counts[i] = i >= stride ? counts[i - stride] + c : c;
      }
      prefix.sums.push_back(std::move(sums));
      prefix.counts.push_back(std::move(counts));
    }
    prefixes_.push_back(std::move(prefix));
  }
}

bool MergeBandJoinOp::ChainsDisjoint(const BandChain* chains) {
  chain_order_.clear();
  for (size_t b = 0; b < spec_.bands.size(); ++b) {
    if (chains[b].n > 0) chain_order_.push_back(b);
  }
  if (chain_order_.size() < 2) return true;
  std::sort(chain_order_.begin(), chain_order_.end(),
            [&](size_t a, size_t b) {
              return chains[a].first < chains[b].first;
            });
  const auto modulus = [&](size_t b) {
    return prefixes_[band_prefix_[b]].modulus;
  };
  // Sweep by first position; only chains whose spans overlap need the
  // congruence test (k ≡ a mod m and k ≡ b mod m' share a solution
  // exactly when a ≡ b mod gcd(m, m')).
  int64_t reach = chains[chain_order_[0]].last;
  for (size_t x = 1; x < chain_order_.size(); ++x) {
    const size_t bx = chain_order_[x];
    if (chains[bx].first <= reach) {
      for (size_t y = 0; y < x; ++y) {
        const size_t by = chain_order_[y];
        if (chains[by].last < chains[bx].first) continue;
        const int64_t g = std::gcd(modulus(bx), modulus(by));
        if ((chains[bx].first - chains[by].first) % g == 0) return false;
      }
    }
    reach = std::max(reach, chains[bx].last);
  }
  return true;
}

MergeBandJoinOp::BandChain MergeBandJoinOp::ChainOf(const ResolvedBand& band,
                                                    size_t b) const {
  BandChain chain;
  if (band.empty) return chain;
  // The band's interval as dense positions, then its residue class:
  // position i holds key dense_base_ + i.
  const int64_t n = static_cast<int64_t>(dense_.size());
  const int64_t first = std::max(band.lo, dense_base_) - dense_base_;
  const int64_t last = std::min(band.hi, dense_base_ + (n - 1)) - dense_base_;
  if (first > last) return chain;
  const FoldPrefix& prefix = prefixes_[band_prefix_[b]];
  const int64_t m = prefix.modulus;
  const int64_t r =
      m > 1 ? FlooredMod(band.residue - prefix.base_residue, m) : 0;
  const int64_t up = FlooredMod(r - first, m);
  if (up > last - first) return chain;
  chain.first = first + up;
  chain.last = last - FlooredMod(last - r, m);
  chain.n = (chain.last - chain.first) / m + 1;
  return chain;
}

void MergeBandJoinOp::PlanFoldVector() {
  const size_t rows = left_vp_->num_rows();
  const size_t bands = spec_.bands.size();
  const std::vector<uint32_t>& lanes = left_vp_->sel().indices();
  lane_plan_.assign(rows, kWalkLane);
  leaves_.resize(rows * fold_leaves_);
  leaves_ready_ = false;
  // Leaves resolve over the left columns plus the band key placeholder,
  // which carries the band's residue.
  const size_t left_width = fold_partial_base();
  const size_t key_col = left_width + spec_.right_column;
  fold_vp_.Reset(key_col + 1, rows);
  for (size_t c = 0; c < left_width; ++c) {
    for (const uint32_t lane : lanes) {
      fold_vp_.column(c).CopyFrom(lane, left_vp_->column(c), lane);
    }
  }
  // After a band evaluation error each row resolves its own bands, and
  // then its leaves, when the walk reaches it.
  if (!lane_bands_ready_) return;

  prefix_lanes_.Clear();
  if (!prefixes_.empty()) {
    lane_keys_.assign(rows, 0);
    lane_chains_.resize(rows * bands);
    for (const uint32_t lane : lanes) {
      BandChain* chains = &lane_chains_[lane * bands];
      int64_t keys = 0;
      for (size_t b = 0; b < bands; ++b) {
        chains[b] = ChainOf(lane_bands_[b][lane], b);
        keys += chains[b].n;
      }
      lane_keys_[lane] = keys;
      if (keys == 0) {
        lane_plan_[lane] = kNoGroupLane;  // inner join: no group
      } else if (ChainsDisjoint(chains)) {
        // Overlapping bands count a shared candidate once; that is left
        // to the walk's deduplication.
        lane_plan_[lane] = kPrefixLane;
        prefix_lanes_.indices().push_back(lane);
      }
    }
  }

  // Every leaf a row's non-empty bands can use: a per-band term's leaf
  // of each such band, another term's one leaf if any band is.
  for (size_t t = 0; t < fold_terms_.size(); ++t) {
    const FoldTerm& term = fold_terms_[t];
    for (size_t slot = 0; slot < (term.per_band ? bands : 1); ++slot) {
      const auto live = [&](uint32_t lane) {
        if (term.per_band) return !lane_bands_[slot][lane].empty;
        for (size_t b = 0; b < bands; ++b) {
          if (!lane_bands_[b][lane].empty) return true;
        }
        return false;
      };
      leaf_lanes_.Clear();
      for (const uint32_t lane : lanes) {
        if (lane_plan_[lane] == kNoGroupLane || !live(lane)) continue;
        leaf_lanes_.indices().push_back(lane);
        fold_vp_.column(key_col).SetInt(lane,
                                        lane_bands_[slot][lane].residue);
      }
      if (leaf_lanes_.empty()) continue;
      if (!ResolveFoldLeaves(t, slot, leaf_lanes_).ok()) {
        // Every row of this vector walks and resolves its own leaves,
        // so the first failing row in row order raises the error.
        lane_plan_.assign(rows, kWalkLane);
        return;
      }
    }
  }
  leaves_ready_ = true;
  if (prefix_lanes_.empty()) return;

  const size_t terms = fold_terms_.size();
  lane_sums_.assign(rows * terms, 0);
  lane_counts_.assign(rows * terms, 0);
  for (const uint32_t lane : prefix_lanes_.indices()) {
    if (!SumPrefixLane(lane)) lane_plan_[lane] = kWalkLane;
  }
}

bool MergeBandJoinOp::SumPrefixLane(uint32_t lane) {
  const size_t bands = spec_.bands.size();
  const size_t terms = fold_terms_.size();
  const BandChain* chains = &lane_chains_[lane * bands];
  for (size_t t = 0; t < terms; ++t) {
    const FoldTerm& term = fold_terms_[t];
    for (size_t b = 0; b < bands; ++b) {
      const BandChain& chain = chains[b];
      if (chain.n == 0) continue;
      const FoldLeaf& leaf =
          LeafAt(lane, term.first_leaf + (term.per_band ? b : 0));
      if (leaf.null) continue;
      // c_band: the integer the leaf's steps multiply every cell by,
      // checked in 128 bits at every step.
      int64_t c = 1;
      for (const FoldStep& step : leaf.steps) {
        if (step.negate) {
          c = -c;
          continue;
        }
        // An INTEGER SUM of a double product is the walk's type error.
        const std::optional<int64_t> f =
            step.factor_int ? std::optional<int64_t>(step.factor_i)
            : term.int_sum  ? std::nullopt
                            : ExactIntegral(step.factor_d);
        if (!f.has_value()) return false;
        const __int128 product = static_cast<__int128>(c) * *f;
        if (product > term.prefix_max_coeff ||
            product < -term.prefix_max_coeff) {
          return false;
        }
        c = static_cast<int64_t>(product);
      }
      const FoldPrefix& prefix = prefixes_[band_prefix_[b]];
      const auto chain_total = [&](const std::vector<int64_t>& v) {
        const int64_t before = chain.first - prefix.modulus;
        return v[static_cast<size_t>(chain.last)] -
               (before >= 0 ? v[static_cast<size_t>(before)] : 0);
      };
      lane_sums_[lane * terms + t] += c * chain_total(prefix.sums[t]);
      lane_counts_[lane * terms + t] += chain_total(prefix.counts[t]);
    }
  }
  return true;
}

Status MergeBandJoinOp::ResolveFoldLeaves(size_t t, size_t slot,
                                          const SelectionVector& lanes) {
  const FoldTerm& term = fold_terms_[t];
  const size_t leaf = term.first_leaf + slot;
  for (const uint32_t lane : lanes.indices()) {
    FoldLeaf& resolved = LeafAt(lane, leaf);
    resolved.null = false;
    resolved.steps.clear();
  }
  return ResolveFoldExprVector(*term.arg, leaf, lanes);
}

Status MergeBandJoinOp::ResolveFoldExprVector(const Expr& e, size_t leaf,
                                              const SelectionVector& lanes) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return Status::OK();  // the right cell itself
    case ExprKind::kUnary: {
      RFV_RETURN_IF_ERROR(ResolveFoldExprVector(*e.children[0], leaf, lanes));
      FoldStep step;
      step.negate = true;
      for (const uint32_t lane : lanes.indices()) {
        LeafAt(lane, leaf).steps.push_back(step);
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      // Operands evaluate in the row path's order, both on every lane;
      // the factor is the left-only side.
      const bool factor_first =
          RefsOnlyRange(*e.children[0], 0, fold_partial_base());
      const Expr& factor = *e.children[factor_first ? 0 : 1];
      Vector values;
      if (factor_first) {
        RFV_RETURN_IF_ERROR(
            VectorEvaluator::Eval(factor, fold_vp_, lanes, &values));
      }
      RFV_RETURN_IF_ERROR(
          ResolveFoldExprVector(*e.children[factor_first ? 1 : 0], leaf,
                                lanes));
      if (!factor_first) {
        RFV_RETURN_IF_ERROR(
            VectorEvaluator::Eval(factor, fold_vp_, lanes, &values));
      }
      for (const uint32_t lane : lanes.indices()) {
        FoldLeaf& resolved = LeafAt(lane, leaf);
        const DataType tag = values.tag(lane);
        if (tag == DataType::kNull) {
          resolved.null = true;
          continue;
        }
        if (tag != DataType::kInt64 && tag != DataType::kDouble) {
          return Status::TypeError("arithmetic on non-numeric value");
        }
        FoldStep step;
        step.factor_first = factor_first;
        step.factor_int = tag == DataType::kInt64;
        if (step.factor_int) step.factor_i = values.i64(lane);
        step.factor_d = values.ToDouble(lane);
        resolved.steps.push_back(step);
      }
      return Status::OK();
    }
    case ExprKind::kCase: {
      // Each condition evaluates on the lanes no earlier one took.
      const size_t pairs = (e.children.size() - 1) / 2;
      SelectionVector rest = lanes;
      for (size_t i = 0; i < pairs; ++i) {
        SelectionVector hit = rest;
        RFV_RETURN_IF_ERROR(
            VectorEvaluator::EvalPredicate(*e.children[2 * i], fold_vp_,
                                           &hit));
        if (!hit.empty()) {
          RFV_RETURN_IF_ERROR(
              ResolveFoldExprVector(*e.children[2 * i + 1], leaf, hit));
          // Both selections ascend: drop the taken lanes in one pass.
          std::vector<uint32_t>& kept = rest.indices();
          size_t h = 0;
          size_t out = 0;
          for (const uint32_t lane : kept) {
            while (h < hit.size() && hit[h] < lane) ++h;
            if (h < hit.size() && hit[h] == lane) continue;
            kept[out++] = lane;
          }
          kept.resize(out);
        }
      }
      if (rest.empty()) return Status::OK();
      return ResolveFoldExprVector(*e.children.back(), leaf, rest);
    }
    default:
      return Status::Internal("band fold: argument is not run-foldable");
  }
}

Status MergeBandJoinOp::NextFoldedVector(VectorProjection** out, bool* eof) {
  const size_t left_width = fold_partial_base();
  out_vp_.Reset(left_width + 2 * fold_terms_.size(), vector_capacity_);
  size_t filled = 0;
  int64_t folded = 0;
  while (filled < vector_capacity_) {
    RFV_RETURN_IF_ERROR(NextLeftLane(eof));
    if (*eof) break;
    const LanePlan plan = lane_plan_[current_lane_];
    if (plan == kNoGroupLane) continue;  // inner join: no group
    int64_t keys = 0;
    if (plan == kPrefixLane) {
      keys = lane_keys_[current_lane_];
      for (size_t t = 0; t < fold_terms_.size(); ++t) {
        const size_t at = current_lane_ * fold_terms_.size() + t;
        const size_t base = left_width + 2 * t;
        if (fold_terms_[t].int_sum) {
          out_vp_.column(base).SetInt(filled, lane_sums_[at]);
        } else {
          out_vp_.column(base).SetDouble(filled,
                                         static_cast<double>(lane_sums_[at]));
        }
        out_vp_.column(base + 1).SetInt(filled, lane_counts_[at]);
      }
      ++prefix_rows_;
    } else {
      RFV_RETURN_IF_ERROR(ResolveLaneCandidates());
      keys = static_cast<int64_t>(candidates_.size());
      if (keys == 0) continue;  // inner join: no group
      for (size_t t = 0; t < fold_terms_.size(); ++t) {
        RFV_RETURN_IF_ERROR(FoldTermCandidates(t, filled));
      }
    }
    for (size_t c = 0; c < left_width; ++c) {
      out_vp_.column(c).CopyFrom(filled, left_vp_->column(c), current_lane_);
    }
    folded += keys;
    ++filled;
  }

  out_vp_.sel().Truncate(filled);
  folded_candidates_ += folded;
  if (folded > 0) BandFoldCandidatesCounter()->Increment(folded);
  if (filled > 0) {
    BandJoinRowsCounter()->Increment(static_cast<int64_t>(filled));
  }
  *out = &out_vp_;
  return Status::OK();
}

}  // namespace rfv
