// Merge band join: extraction of BandJoinSpec from join conditions and
// the MergeBandJoinOp runtime. See the class comment in exec/operators.h
// for the execution strategy; the extraction mirrors the recognizer
// vocabulary of TryExtractIndexProbe (exec/join.cc) but targets the
// sorted-right-side merge instead of an ordered index, so it also works
// when no index exists and turns the paper's disjunctive stride
// predicates (Figures 10/13) into congruence-class enumeration instead
// of hull scans.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// Floored (mathematical) modulo, matching the evaluator's MOD: the
/// result takes the divisor's sign, so a == b (mod w) exactly when
/// FlooredMod(a, w) == FlooredMod(b, w).
int64_t FlooredMod(int64_t a, int64_t w) {
  int64_t m = a % w;
  if (m != 0 && ((m < 0) != (w < 0))) m += w;
  return m;
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
/// then over-approximate and the caller must re-check the condition).
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

  // Decline shapes other strategies already handle better: a single
  // unconstrained point is the hash/index equi join, and a band with no
  // shape at all is the cross product.
  if (spec.bands.size() == 1) {
    const BandSpec& only = spec.bands[0];
    if (!BandHasShape(only)) return std::nullopt;
    if (only.is_point && only.modulus == 0) return std::nullopt;
    if (only.lo == nullptr && only.hi == nullptr && only.modulus == 0) {
      return std::nullopt;
    }
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
/// *per_left_row is set when resolving it reads the left row (a CASE or
/// a non-constant factor); *reads_key when a CASE condition reads the
/// band key.
bool FoldableArg(const Expr& e, const FoldShape& shape, size_t* column,
                 bool* per_left_row, bool* reads_key) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (e.column_index < shape.left_width || !IsNumeric(e.type)) {
        return false;
      }
      if (*column == static_cast<size_t>(-1)) *column = e.column_index;
      return *column == e.column_index;
    case ExprKind::kUnary:
      return e.unary_op == UnaryOp::kNeg &&
             FoldableArg(*e.children[0], shape, column, per_left_row,
                         reads_key);
    case ExprKind::kBinary: {
      if (e.binary_op != BinaryOp::kMul) return false;
      for (int side = 0; side < 2; ++side) {
        const Expr& factor = *e.children[side];
        if (!IsNumeric(factor.type) ||
            !RefsOnlyRange(factor, 0, shape.left_width)) {
          continue;
        }
        if (!FoldableArg(*e.children[1 - side], shape, column, per_left_row,
                         reads_key)) {
          return false;
        }
        if (!RefsOnlyRange(factor, 0, 0)) *per_left_row = true;
        return true;
      }
      return false;
    }
    case ExprKind::kCase: {
      if (!e.has_else) return false;
      const size_t pairs = (e.children.size() - 1) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        if (!FoldableCondition(*e.children[2 * i], shape, reads_key) ||
            !FoldableArg(*e.children[2 * i + 1], shape, column, per_left_row,
                         reads_key)) {
          return false;
        }
      }
      *per_left_row = true;
      return FoldableArg(*e.children.back(), shape, column, per_left_row,
                         reads_key);
    }
    default:
      return false;
  }
}

/// `MOD(a, u) = MOD(key, w)`, either side order, where `key` is the
/// band key column: MinOA's CASE condition. Returns {a, u, w}.
struct KeyCongruence {
  const Expr* anchor;
  int64_t anchor_mod;
  int64_t key_mod;
};

std::optional<KeyCongruence> AsKeyCongruence(const Expr& e, size_t key_col) {
  if (e.kind != ExprKind::kBinary || e.binary_op != BinaryOp::kEq) {
    return std::nullopt;
  }
  const auto lhs = AsModCall(*e.children[0]);
  const auto rhs = AsModCall(*e.children[1]);
  if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
  const auto is_key = [&](const Expr* x) {
    return x->kind == ExprKind::kColumnRef && x->column_index == key_col;
  };
  if (is_key(rhs->first)) {
    return KeyCongruence{lhs->first, lhs->second, rhs->second};
  }
  if (is_key(lhs->first)) {
    return KeyCongruence{rhs->first, rhs->second, lhs->second};
  }
  return std::nullopt;
}

/// A right cell or fold argument value: the typed int64/double pair the
/// row path's Values would hold.
struct FoldNum {
  bool is_int;
  int64_t i;
  double d;
};

}  // namespace

std::optional<BandJoinSpec> TryExtractBandJoin(const Expr& condition,
                                               size_t left_width,
                                               Table* right_table) {
  std::optional<BandJoinSpec> best;
  int best_rank = -1;
  for (size_t table_col = 0; table_col < right_table->schema().NumColumns();
       ++table_col) {
    if (right_table->schema().column(table_col).type != DataType::kInt64) {
      continue;
    }
    std::optional<BandJoinSpec> spec = ExtractForKeyColumn(
        condition, left_width, left_width + table_col, table_col);
    if (!spec.has_value()) continue;
    // Prefer stride bands (congruence prunes hardest), then multi-band,
    // then two-sided intervals, then exactness.
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
  right_rows_.clear();
  keys_.clear();
  dense_.clear();
  dense_valid_ = false;
  left_vp_ = nullptr;
  left_lane_pos_ = 0;
  left_input_eof_ = false;

  RFV_RETURN_IF_ERROR(left_->Open());
  RFV_RETURN_IF_ERROR(right_->Open());
  right_width_ = right_->schema().NumColumns();

  RFV_RETURN_IF_ERROR(DrainChild(right_.get(), &right_rows_));
  NoteBufferedRows(right_rows_.size());

  keys_.reserve(right_rows_.size());
  for (size_t id = 0; id < right_rows_.size(); ++id) {
    const Value& v = right_rows_[id][spec_.right_column];
    if (v.is_null()) continue;  // NULL keys never satisfy a band
    keys_.emplace_back(v.AsInt(), id);
  }
  // Base tables in sequence order (the common case for the paper's pos
  // column) arrive already sorted — detect in O(m) and skip the sort.
  // The check runs on right_rows_, which DrainChild filled from the
  // right scan's PINNED snapshot, so the ordered-skip decision and the
  // rows it indexes are the same frozen version even when live storage
  // mutates (or compacts out of order) mid-query.
  if (!std::is_sorted(keys_.begin(), keys_.end())) {
    std::sort(keys_.begin(), keys_.end());
  }
  // Dense direct-address table when the keys are unique and contiguous
  // (a sequence's 1..n positions): point and stride probes become O(1).
  if (!keys_.empty()) {
    bool contiguous = true;
    for (size_t i = 1; i < keys_.size() && contiguous; ++i) {
      contiguous = keys_[i].first == keys_[i - 1].first + 1;
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
  candidate_bands_.clear();
  folded_candidates_ = 0;
  for (FoldTerm& term : fold_terms_) {
    for (FoldLeaf& leaf : term.leaves) leaf.resolved = false;
  }
  if (folding()) {
    fold_row_ = Row(std::vector<Value>(left_->schema().NumColumns() +
                                       right_width_));
  }

  // Vector-native output: transpose the (snapshot-stable) right side
  // once into columnar gather-source lanes. The row array stays alive
  // for the row/batch pull styles.
  if (vectorized()) {
    right_vp_.Reset(right_width_, right_rows_.size());
    for (size_t id = 0; id < right_rows_.size(); ++id) {
      const Row& row = right_rows_[id];
      for (size_t c = 0; c < right_width_; ++c) {
        right_vp_.column(c).SetValue(id, row[c]);
      }
    }
  }
  return Status::OK();
}

Status MergeBandJoinOp::ResolveBand(const BandSpec& band, const Row& left_row,
                                    ResolvedBand* out) const {
  out->empty = false;
  out->lo = std::numeric_limits<int64_t>::min();
  out->hi = std::numeric_limits<int64_t>::max();
  out->modulus = 0;

  const auto resolve_bound = [&](const Expr& expr, bool strict, bool is_lo,
                                 int64_t* bound) -> Status {
    Value v;
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(expr, left_row));
    if (v.is_null()) {
      out->empty = true;  // comparison with NULL is never true
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
      // Integer keys against a fractional bound: round inward; a strict
      // integral bound tightens by one.
      const double d = v.AsDouble();
      double rounded = is_lo ? std::ceil(d) : std::floor(d);
      if (strict && rounded == d) rounded += is_lo ? 1.0 : -1.0;
      if (is_lo && rounded < -9.2e18) rounded = -9.2e18;
      if (!is_lo && rounded > 9.2e18) rounded = 9.2e18;
      *bound = static_cast<int64_t>(rounded);
      return Status::OK();
    }
    return Status::TypeError("band join bound must be numeric");
  };

  if (band.lo != nullptr) {
    RFV_RETURN_IF_ERROR(
        resolve_bound(*band.lo, band.lo_strict, /*is_lo=*/true, &out->lo));
    if (out->empty) return Status::OK();
  }
  if (band.hi != nullptr) {
    RFV_RETURN_IF_ERROR(
        resolve_bound(*band.hi, band.hi_strict, /*is_lo=*/false, &out->hi));
    if (out->empty) return Status::OK();
  }
  if (band.modulus > 1) {
    Value a;
    RFV_ASSIGN_OR_RETURN(a, Evaluator::Eval(*band.anchor, left_row));
    if (a.is_null() || a.type() != DataType::kInt64) {
      out->empty = true;  // MOD(NULL, w) = anything is never true
      return Status::OK();
    }
    out->modulus = band.modulus;
    out->residue = FlooredMod(a.AsInt(), band.modulus);
  }
  if (out->lo > out->hi) out->empty = true;
  return Status::OK();
}

void MergeBandJoinOp::CollectBand(const ResolvedBand& band,
                                  size_t band_index) {
  if (band.empty || keys_.empty()) return;
  const int64_t lo = std::max(band.lo, keys_.front().first);
  const int64_t hi = std::min(band.hi, keys_.back().first);
  if (lo > hi) return;

  if (band.modulus > 1) {
    // Enumerate the congruence class k ≡ residue (mod w) inside
    // [lo, hi]: the paper's stride chains. Dense tables answer each
    // stride point in O(1); otherwise compare the chain length against
    // the interval population and pick the cheaper side.
    const int64_t w = band.modulus;
    const int64_t k0 = lo + FlooredMod(band.residue - lo, w);
    if (k0 > hi) return;
    if (dense_valid_) {
      for (int64_t k = k0; k <= hi; k += w) {
        candidates_.push_back(dense_[static_cast<size_t>(k - dense_base_)]);
      }
      return;
    }
    const auto range_begin = std::lower_bound(
        keys_.begin(), keys_.end(),
        std::make_pair(lo, std::numeric_limits<size_t>::min()));
    const auto range_end = std::upper_bound(
        keys_.begin(), keys_.end(),
        std::make_pair(hi, std::numeric_limits<size_t>::max()));
    const int64_t chain = (hi - k0) / w + 1;
    if (chain < range_end - range_begin) {
      auto it = range_begin;
      for (int64_t k = k0; k <= hi; k += w) {
        it = std::lower_bound(
            it, range_end,
            std::make_pair(k, std::numeric_limits<size_t>::min()));
        while (it != range_end && it->first == k) {
          candidates_.push_back(it->second);
          ++it;
        }
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
  candidates_.clear();
  candidate_bands_.clear();
  candidate_pos_ = 0;
  for (size_t i = 0; i < spec_.bands.size(); ++i) {
    resolved_[i] = ResolvedBand();
    RFV_RETURN_IF_ERROR(
        ResolveBand(spec_.bands[i], current_left_, &resolved_[i]));
    CollectBand(resolved_[i], i);
    if (fold_tag_bands_) {
      candidate_bands_.resize(candidates_.size(), static_cast<uint32_t>(i));
    }
  }
  if (spec_.bands.size() > 1) {
    // Overlapping bands (OR semantics) must not emit a pair twice.
    if (!fold_tag_bands_) {
      std::sort(candidates_.begin(), candidates_.end());
      candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                        candidates_.end());
      return Status::OK();
    }
    // Fold mode keeps each candidate's band (any band holding a key
    // agrees on MOD(key, w)); a pair in several bands keeps the lowest.
    tagged_.clear();
    for (size_t j = 0; j < candidates_.size(); ++j) {
      tagged_.emplace_back(candidates_[j], candidate_bands_[j]);
    }
    std::sort(tagged_.begin(), tagged_.end());
    candidates_.clear();
    candidate_bands_.clear();
    for (const auto& [id, band] : tagged_) {
      if (!candidates_.empty() && candidates_.back() == id) continue;
      candidates_.push_back(id);
      candidate_bands_.push_back(band);
    }
  }
  return Status::OK();
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
  if (folding()) {
    return Status::Internal("a folding band join is pulled through NextVector");
  }
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
      Row joined = Row::Concat(current_left_, right_rows_[right_id]);
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

Status MergeBandJoinOp::NextLeftLane(bool* have) {
  // Drain-first: the final child vector may be non-empty with eof set.
  const size_t left_width = left_->schema().NumColumns();
  while (left_vp_ == nullptr || left_lane_pos_ >= left_vp_->NumSelected()) {
    if (left_input_eof_) {
      *have = false;
      return Status::OK();
    }
    bool child_eof = false;
    if (left_->vectorized()) {
      RFV_RETURN_IF_ERROR(left_->NextVector(&left_vp_, &child_eof));
    } else {
      RFV_RETURN_IF_ERROR(left_->NextBatch(&left_batch_, &child_eof));
      left_src_vp_.FromBatch(left_width, left_batch_);
      left_vp_ = &left_src_vp_;
    }
    left_input_eof_ = child_eof;
    left_lane_pos_ = 0;
    if (left_vp_ != nullptr && left_vp_->NumSelected() == 0) {
      left_vp_ = nullptr;
    }
  }
  current_lane_ = left_vp_->sel()[left_lane_pos_++];
  // The band bounds are per-left-row scalars: resolve them on the
  // materialized row (O(left rows), not O(matches) — the match
  // emission never boxes).
  left_vp_->MaterializeRow(current_lane_, &current_left_);
  *have = true;
  return Status::OK();
}

Status MergeBandJoinOp::ResolveLaneCandidates() {
  RFV_RETURN_IF_ERROR(ResolveCandidates());
  if (spec_.residual == nullptr || candidates_.empty()) return Status::OK();
  RFV_RETURN_IF_ERROR(FilterJoinCandidates(*spec_.residual, *left_vp_,
                                           current_lane_, right_vp_,
                                           &residual_scratch_, &candidates_));
  if (fold_tag_bands_) {
    // The scratch selection names the surviving pre-filter slots.
    const SelectionVector& surviving = residual_scratch_.sel();
    for (size_t k = 0; k < surviving.size(); ++k) {
      candidate_bands_[k] = candidate_bands_[surviving[k]];
    }
    candidate_bands_.resize(surviving.size());
  }
  return Status::OK();
}

Status MergeBandJoinOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // The native path is only wired up when the planner stamped this
  // operator vectorized (right_vp_ exists then); a direct NextVector on
  // an unstamped instance keeps the transpose-fallback behavior.
  if (!vectorized()) return PhysicalOperator::NextVectorImpl(out, eof);
  if (folding()) return NextFoldedVector(out, eof);

  const size_t left_width = left_->schema().NumColumns();
  out_vp_.Reset(left_width + right_width_, vector_capacity_);
  size_t filled = 0;
  int64_t matched = 0;

  while (filled < vector_capacity_) {
    if (!left_valid_) {
      bool have = false;
      RFV_RETURN_IF_ERROR(NextLeftLane(&have));
      if (!have) break;
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
  *eof = left_input_eof_ && !left_valid_ &&
         (left_vp_ == nullptr || left_lane_pos_ >= left_vp_->NumSelected());
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
  bool reads_key = false;
  for (const AggregateCall& call : aggregates) {
    if (call.fn != AggFn::kSum || call.is_count_star || call.arg == nullptr) {
      return false;
    }
    FoldTerm term;
    size_t column = static_cast<size_t>(-1);
    if (!FoldableArg(*call.arg, shape, &column, &term.per_left_row,
                     &reads_key)) {
      return false;
    }
    term.arg = call.arg->Clone();
    term.column = column - left_width;
    term.int_sum = call.output_type == DataType::kInt64;
    terms.push_back(std::move(term));
  }
  fold_tag_bands_ = reads_key && spec_.bands.size() > 1;
  for (FoldTerm& term : terms) {
    term.leaves.resize(fold_tag_bands_ && term.per_left_row
                           ? spec_.bands.size()
                           : 1);
  }
  fold_terms_ = std::move(terms);
  // The join now outputs one row per matched left row.
  SetEstimatedRows(left_->estimated_rows());
  return true;
}

std::string MergeBandJoinOp::MetricsDetail() const {
  if (!folding()) return std::string();
  return "fold=sum folded=" + std::to_string(folded_candidates_);
}

Status MergeBandJoinOp::ResolveFoldExpr(const Expr& e, FoldLeaf* leaf) const {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return Status::OK();  // the right cell itself
    case ExprKind::kUnary: {
      RFV_RETURN_IF_ERROR(ResolveFoldExpr(*e.children[0], leaf));
      FoldStep step;
      step.negate = true;
      leaf->steps.push_back(step);
      return Status::OK();
    }
    case ExprKind::kBinary: {
      // Operands evaluate in the row path's order; the factor is the
      // left-only side.
      const bool factor_first = RefsOnlyRange(
          *e.children[0], 0, left_->schema().NumColumns());
      Value factor;
      if (factor_first) {
        RFV_ASSIGN_OR_RETURN(factor,
                             Evaluator::Eval(*e.children[0], fold_row_));
        RFV_RETURN_IF_ERROR(ResolveFoldExpr(*e.children[1], leaf));
      } else {
        RFV_RETURN_IF_ERROR(ResolveFoldExpr(*e.children[0], leaf));
        RFV_ASSIGN_OR_RETURN(factor,
                             Evaluator::Eval(*e.children[1], fold_row_));
      }
      if (factor.is_null()) {
        leaf->null = true;
        return Status::OK();
      }
      if (!factor.is_numeric()) {
        return Status::TypeError("arithmetic on non-numeric value");
      }
      FoldStep step;
      step.factor_first = factor_first;
      step.factor_int = factor.type() == DataType::kInt64;
      if (step.factor_int) step.factor_i = factor.AsInt();
      step.factor_d = factor.ToDouble();
      leaf->steps.push_back(step);
      return Status::OK();
    }
    case ExprKind::kCase: {
      const size_t key_col = left_->schema().NumColumns() + spec_.right_column;
      const size_t pairs = (e.children.size() - 1) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        const Expr& cond = *e.children[2 * i];
        bool hit = false;
        if (const auto cong = AsKeyCongruence(cond, key_col)) {
          // MinOA's congruence test decided from the band residue, without
          // evaluating its MOD and = nodes (EXPERIMENTS.md A10 measures
          // the saving). As in the evaluator, a NULL anchor makes the
          // comparison NULL (false) and a non-integer one is a type error.
          Value a;
          RFV_ASSIGN_OR_RETURN(a, Evaluator::Eval(*cong->anchor, fold_row_));
          if (!a.is_null() && a.type() != DataType::kInt64) {
            return Status::TypeError("MOD expects integer arguments");
          }
          hit = !a.is_null() &&
                FlooredMod(a.AsInt(), cong->anchor_mod) ==
                    FlooredMod(fold_row_[key_col].AsInt(), cong->key_mod);
        } else {
          RFV_ASSIGN_OR_RETURN(hit, Evaluator::EvalPredicate(cond, fold_row_));
        }
        if (hit) return ResolveFoldExpr(*e.children[2 * i + 1], leaf);
      }
      return ResolveFoldExpr(*e.children.back(), leaf);
    }
    default:
      return Status::Internal("band fold: argument is not run-foldable");
  }
}

Status MergeBandJoinOp::ResolveFoldLeaf(FoldTerm* term, size_t slot) {
  // The band key placeholder carries the band's residue: every CASE
  // condition reads it only as MOD(key, w) with w dividing the modulus,
  // which is what each of the band's candidate keys would give.
  const size_t left_width = left_->schema().NumColumns();
  fold_row_[left_width + spec_.right_column] =
      Value::Int(resolved_[fold_tag_bands_ ? slot : 0].residue);
  FoldLeaf& leaf = term->leaves[slot];
  leaf.steps.clear();
  leaf.null = false;
  RFV_RETURN_IF_ERROR(ResolveFoldExpr(*term->arg, &leaf));
  leaf.resolved = true;
  return Status::OK();
}

Status MergeBandJoinOp::FoldTermCandidates(size_t t, size_t at) {
  FoldTerm& term = fold_terms_[t];
  const Vector& cells = right_vp_.column(term.column);
  const bool tagged = fold_tag_bands_ && term.per_left_row;
  if (term.per_left_row) {
    for (FoldLeaf& leaf : term.leaves) leaf.resolved = false;
  }
  int64_t count = 0;
  int64_t sum_int = 0;
  double sum_double = 0;
  for (size_t j = 0; j < candidates_.size(); ++j) {
    const size_t slot = tagged ? candidate_bands_[j] : 0;
    const FoldLeaf& leaf = term.leaves[slot];
    if (!leaf.resolved) RFV_RETURN_IF_ERROR(ResolveFoldLeaf(&term, slot));
    if (leaf.null) continue;
    const size_t id = candidates_[j];
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
    // int64 stays int64, anything mixed computes in double.
    for (const FoldStep& step : leaf.steps) {
      if (step.negate) {
        if (v.is_int) {
          v.i = -v.i;
        } else {
          v.d = -v.d;
        }
        continue;
      }
      if (v.is_int && step.factor_int) {
        v.i = step.factor_first ? step.factor_i * v.i : v.i * step.factor_i;
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
    out_vp_.column(base).SetInt(at, sum_int);
  } else {
    out_vp_.column(base).SetDouble(at, sum_double);
  }
  out_vp_.column(base + 1).SetInt(at, count);
  return Status::OK();
}

Status MergeBandJoinOp::NextFoldedVector(VectorProjection** out, bool* eof) {
  const size_t left_width = fold_partial_base();
  out_vp_.Reset(left_width + 2 * fold_terms_.size(), vector_capacity_);
  size_t filled = 0;
  int64_t folded = 0;
  while (filled < vector_capacity_) {
    bool have = false;
    RFV_RETURN_IF_ERROR(NextLeftLane(&have));
    if (!have) break;
    RFV_RETURN_IF_ERROR(ResolveLaneCandidates());
    if (candidates_.empty()) continue;  // inner join: no group
    for (size_t c = 0; c < left_width; ++c) {
      out_vp_.column(c).CopyFrom(filled, left_vp_->column(c), current_lane_);
      fold_row_[c] = current_left_[c];
    }
    for (size_t t = 0; t < fold_terms_.size(); ++t) {
      RFV_RETURN_IF_ERROR(FoldTermCandidates(t, filled));
    }
    folded += static_cast<int64_t>(candidates_.size());
    ++filled;
  }

  out_vp_.sel().Truncate(filled);
  folded_candidates_ += folded;
  if (folded > 0) BandFoldCandidatesCounter()->Increment(folded);
  if (filled > 0) {
    BandJoinRowsCounter()->Increment(static_cast<int64_t>(filled));
  }
  *out = &out_vp_;
  *eof = left_input_eof_ &&
         (left_vp_ == nullptr || left_lane_pos_ >= left_vp_->NumSelected());
  return Status::OK();
}

}  // namespace rfv
