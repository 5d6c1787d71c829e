#ifndef RFVIEW_EXEC_OPERATORS_H_
#define RFVIEW_EXEC_OPERATORS_H_

// Internal header: physical operator classes. Users of the library go
// through exec/executor.h (BuildPhysicalPlan / ExecutePlan); these
// classes are exposed for white-box tests.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/epoch.h"
#include "exec/executor.h"
#include "expr/expr.h"
#include "plan/planner.h"
#include "storage/table.h"
#include "storage/table_snapshot.h"

namespace rfv {

/// Scan over a base table. Open pins the table's committed snapshot
/// (chunked copy-on-write image) plus a reader epoch, so the scan reads
/// a stable statement-granular image of the table while concurrent DML
/// mutates the live row store. Close
/// releases the pin, letting the EpochManager reclaim superseded
/// snapshots.
///
/// With a key range, the scan binary-searches the pinned snapshot's
/// image of the range column's index and reads only the rows whose key
/// lies in the range, in row-id order — the rows and order of a full
/// scan, minus rows the range excludes. The range is a superset of what
/// the predicate above accepts (KeyRange), so the Filter above stays
/// and re-checks every row.
class TableScanOp : public PhysicalOperator {
 public:
  TableScanOp(Schema schema, Table* table,
              std::optional<KeyRange> range = std::nullopt)
      : PhysicalOperator(std::move(schema)),
        table_(table),
        range_(std::move(range)) {}
  const char* name() const override { return "scan"; }
  /// "index=<name> range=[lo,hi]" for a range scan.
  std::string MetricsDetail() const override;

  Table* table() const { return table_; }
  const std::optional<KeyRange>& range() const { return range_; }

 protected:
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// Rows this scan yields, and the snapshot row id of the i-th.
  size_t NumScanRows() const {
    return range_.has_value() ? row_ids_.size() : snap_->num_rows();
  }
  size_t RowIdAt(size_t i) const {
    return range_.has_value() ? row_ids_[i] : i;
  }

  Table* table_;
  std::optional<KeyRange> range_;
  /// Range scans: the snapshot row ids in the range, ascending.
  std::vector<size_t> row_ids_;
  size_t pos_ = 0;
  /// The stable image this scan reads; pinned in OpenImpl.
  TableSnapshotPtr snap_;
  /// Reader epoch pin held for the scan's lifetime.
  EpochGuard epoch_guard_{nullptr};
  /// The projection handed to NextVector callers.
  VectorProjection vp_;
};

class FilterOp : public PhysicalOperator {
 public:
  FilterOp(Schema schema, PhysicalOperatorPtr child, ExprPtr predicate)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}
  const char* name() const override { return "filter"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  /// Zero-copy: narrows the child projection's selection vector in place
  /// and passes the projection through.
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  ExprPtr predicate_;
};

class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(Schema schema, PhysicalOperatorPtr child,
            std::vector<ExprPtr> projections)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        projections_(std::move(projections)) {}
  const char* name() const override { return "project"; }
  /// Forwards the question through a bare column reference.
  bool ColumnStrictlyAscends(size_t c) const override;
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  std::vector<ExprPtr> projections_;
  /// Output columns evaluated from the child projection;
  /// shares the child's row positions and selection.
  VectorProjection out_vp_;
};

/// The loop of the two row-at-a-time joins, the nested-loop and the
/// index nested-loop join: the tests' reference joins, which share no
/// join code with the columnar ones. The left input is pulled by
/// NextVector and each selected lane is materialized as a Row; the
/// subclass supplies that row's candidate right rows (FindCandidates),
/// and the loop checks the residual on each concatenated pair with
/// Evaluator::EvalPredicate, in candidate order, NULL-pads an unmatched
/// left row under LEFT OUTER, and writes the joined rows into the lanes
/// of one output projection, splitting a left row's matches across
/// output vectors when they overflow one.
class RowJoinOp : public PhysicalOperator {
 protected:
  /// `residual`: the condition checked on each candidate pair; null =
  /// every candidate matches.
  RowJoinOp(Schema schema, PhysicalOperatorPtr left, ExprPtr residual,
            JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        residual_(std::move(residual)),
        join_type_(join_type) {}

  /// Opens the left input and resets the loop; called by the subclass's
  /// OpenImpl.
  Status OpenLeft();
  Status NextVectorImpl(VectorProjection** out, bool* eof) final;

  /// Points candidates_ at the right rows to try with `left_row`, in
  /// the order the loop checks them. The rows must stay valid until the
  /// next call.
  virtual Status FindCandidates(const Row& left_row) = 0;

  PhysicalOperatorPtr left_;
  std::vector<const Row*> candidates_;

 private:
  ExprPtr residual_;
  JoinType join_type_;

  /// The left vector being walked and its next selection slot.
  VectorProjection* left_vp_ = nullptr;
  size_t left_slot_ = 0;
  Row left_row_;
  /// left_row_ followed by the current candidate's cells: the row the
  /// residual is evaluated on and that a match writes out.
  Row joined_;
  size_t left_width_ = 0;
  bool left_valid_ = false;
  bool left_matched_ = false;
  size_t candidate_pos_ = 0;
  VectorProjection out_vp_;
};

/// Nested-loop join: materializes the right input once, then tries every
/// right row with each left row. Supports inner, cross and left outer
/// joins with an arbitrary condition — the fallback the paper's "self
/// join method **without** index" rows in Table 1 exercise.
class NestedLoopJoinOp : public RowJoinOp {
 public:
  NestedLoopJoinOp(Schema schema, PhysicalOperatorPtr left,
                   PhysicalOperatorPtr right, ExprPtr condition,
                   JoinType join_type)
      : RowJoinOp(std::move(schema), std::move(left), std::move(condition),
                  join_type),
        right_(std::move(right)) {}
  const char* name() const override { return "nested_loop_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

 protected:
  Status OpenImpl() override;
  /// Every right row, set once at Open.
  Status FindCandidates(const Row&) override { return Status::OK(); }

 private:
  PhysicalOperatorPtr right_;
  std::vector<Row> right_rows_;
};

/// One band of a band-shaped join: the set of right-side keys a left
/// row joins with, described as an inclusive integer interval plus an
/// optional congruence (stride) constraint. All expressions are bound
/// over the LEFT schema.
struct BandSpec {
  /// Interval bounds; null = unbounded on that side. A NULL bound value
  /// at runtime makes the band empty (SQL comparison semantics).
  ExprPtr lo;
  ExprPtr hi;
  /// True when the source conjunct was strict (`<` / `>`): the evaluated
  /// integer bound is tightened by one at runtime.
  bool lo_strict = false;
  bool hi_strict = false;
  /// Congruence constraint `MOD(anchor, modulus) = MOD(key, modulus)`:
  /// only keys congruent to the anchor survive. modulus == 0 = none.
  /// MOD is the engine's floored modulo, so congruence-class enumeration
  /// is exact for negative keys too.
  ExprPtr anchor;
  int64_t modulus = 0;
  /// lo and hi are the same single point (`rc = e` / IN candidates).
  bool is_point = false;
  /// Affine form, set by TryExtractBandJoin when every expression the
  /// band evaluates (lo, hi, and the anchor when modulus > 1) is the
  /// left column `affine_column` plus integer literals (`s1.pos + 37 -
  /// 81`). Each *_steps holds its literals in evaluation order, a
  /// subtraction as the negated literal, so resolving the band from a
  /// key k is the checked additions k + step, one step at a time.
  bool affine = false;
  size_t affine_column = 0;
  std::vector<int64_t> lo_steps;
  std::vector<int64_t> hi_steps;
  std::vector<int64_t> anchor_steps;
};

/// The join-predicate plan of both band-driven joins: each left row
/// matches right rows whose key column falls in ANY of the bands (the
/// bands are the branches of the paper's disjunctive MaxOA/MinOA join
/// predicates). The merge band join walks a sorted copy of the right
/// side with it; the index nested-loop join probes an ordered index once
/// per band. Produced by TryExtractBandJoin (exec/band_join.cc).
struct BandJoinSpec {
  /// Right-table column (table-local index) holding the band key; gated
  /// to DataType::kInt64.
  size_t right_column = 0;
  std::vector<BandSpec> bands;
  /// True when the bands over-approximate the condition (an OR branch
  /// carried conjuncts the extractor could not fold into the band); the
  /// full original condition is then re-checked per candidate.
  bool approximate = false;
  /// Condition to evaluate on each joined candidate row; null = accept.
  /// When `approximate`, this is the full original join condition.
  ExprPtr residual;

  /// One band, a single equality point with no stride: the equi join
  /// shape the index and hash joins answer, not the merge band join.
  bool IsSinglePlainPoint() const {
    return bands.size() == 1 && bands[0].is_point && bands[0].modulus == 0;
  }
};

/// Attempts to turn `condition` (bound over the joined schema, left
/// width `left_width`) into a band spec on an INTEGER column of
/// `right_table`; with `indexed_only`, only on an INTEGER column that
/// carries an ordered index. Returns nullopt when no band shape is found.
///
/// Recognized per-conjunct shapes on an int64 right column rc:
///   rc BETWEEN lo AND hi / rc <op> e       → interval band (strict
///                                            bounds tighten exactly)
///   rc = e / rc IN (...) / e IN (rc ± c)   → point bands
///   MOD(e, w) = MOD(rc, w)                 → congruence on the band
///   OR of branches, each an AND of the above → one band per branch
/// A condition draws its bands from exactly one of these sources. Among
/// columns, stride bands rank first and a single plain point last.
std::optional<BandJoinSpec> TryExtractBandJoin(const Expr& condition,
                                               size_t left_width,
                                               Table* right_table,
                                               bool indexed_only);

/// Floored (mathematical) modulo, matching the evaluator's MOD: the
/// result takes the divisor's sign, so a == b (mod w) exactly when
/// FlooredMod(a, w) == FlooredMod(b, w).
int64_t FlooredMod(int64_t a, int64_t w);

/// An affine chain of BandSpec steps compiled for one key at a time:
/// the keys k for which every partial sum k + d1 + ... + dj stays in
/// int64 — [key_lo, key_hi], none when key_lo > key_hi — and the total
/// modulo 2^64, exact for those keys. A key outside the range overflows
/// at some step, where the evaluator raises its error.
struct AffineChain {
  int64_t key_lo = std::numeric_limits<int64_t>::min();
  int64_t key_hi = std::numeric_limits<int64_t>::max();
  uint64_t total = 0;

  static AffineChain Compile(const std::vector<int64_t>& steps);
  /// Narrows the key range to the keys `other` takes too.
  void Intersect(const AffineChain& other) {
    key_lo = std::max(key_lo, other.key_lo);
    key_hi = std::min(key_hi, other.key_hi);
  }
  bool Fits(int64_t k) const { return k >= key_lo && k <= key_hi; }
  /// k + the steps, for a key that Fits.
  int64_t Apply(int64_t k) const {
    return static_cast<int64_t>(static_cast<uint64_t>(k) + total);
  }
};

/// Evaluated, integer-resolved bounds of one band for one left row.
struct ResolvedBand {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  int64_t residue = 0;  ///< anchor's class mod the band's modulus
  bool empty = false;
};

/// Evaluates `band`'s bounds and anchor on `left_row` into *out (a point
/// band's expression once). NULL values empty the band; a DOUBLE bound
/// keeps exactly the keys Value::Compare would, saturating or emptying
/// the band past the int64 range.
Status ResolveBand(const BandSpec& band, const Row& left_row,
                   ResolvedBand* out);

/// Index nested-loop join: per left row, resolves the spec's bands and
/// probes an ordered index on the right base table once per band — the
/// paper's "with primary key index" execution paths in Tables 1 and 2.
/// Probes and right rows both come from one snapshot pinned at Open, so
/// concurrent DML can neither move the rows under the probe's row ids
/// nor free them.
class IndexNestedLoopJoinOp : public RowJoinOp {
 public:
  /// The spec's residual becomes the loop's residual.
  IndexNestedLoopJoinOp(Schema schema, PhysicalOperatorPtr left,
                        Table* right_table, BandJoinSpec spec,
                        JoinType join_type)
      : RowJoinOp(std::move(schema), std::move(left),
                  std::move(spec.residual), join_type),
        right_table_(right_table),
        spec_(std::move(spec)) {}
  const char* name() const override { return "index_nested_loop_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
  }

 protected:
  Status OpenImpl() override;
  /// The pinned snapshot's rows under the index entries of the left
  /// row's bands, in index order (row-id order when several bands may
  /// overlap).
  Status FindCandidates(const Row& left_row) override;

 private:
  /// Appends the row ids of the index entries in `band` to row_ids_.
  void ProbeBand(const BandSpec& spec, const ResolvedBand& band);

  Table* right_table_;
  BandJoinSpec spec_;

  /// The right table's image this join reads, rows and index alike;
  /// pinned in OpenImpl with a reader epoch, as TableScanOp does.
  TableSnapshotPtr snap_;
  EpochGuard epoch_guard_{nullptr};
  OrderedIndexPtr index_;
  std::vector<size_t> row_ids_;
};

/// Merge band join: materializes the right input once into a sorted
/// (key, row) array — skipping the sort when the input is already in key
/// order — then resolves each left row's bands against it with monotone
/// start cursors (O(n + matches) for the paper's forward-moving frames),
/// binary-search fallback for non-monotone bounds, and congruence-class
/// stride enumeration for the MaxOA/MinOA partitioned patterns. This is
/// the linear-time execution strategy for the Fig. 2/10/13 self-join
/// patterns; selected ahead of the index nested-loop join for every band
/// spec but a single plain equality point. Candidate runs are gathered
/// column-wise into the output lanes (band_join.cc).
class MergeBandJoinOp : public PhysicalOperator {
 public:
  MergeBandJoinOp(Schema schema, PhysicalOperatorPtr left,
                  PhysicalOperatorPtr right, BandJoinSpec spec,
                  JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        join_type_(join_type) {}
  const char* name() const override { return "merge_band_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }
  /// Test hook: shrinks the output capacity so tests can force
  /// candidate runs to split across output vectors.
  void SetVectorOutputCapacityForTest(size_t cap) {
    vector_capacity_ = cap == 0 ? 1 : cap;
  }

  /// SUM fold: called by BuildPhysicalPlan when a HashAggregateOp sits
  /// directly on this join. Succeeds when the join is inner, every group
  /// key is left-only and every aggregate is a
  /// plain SUM whose argument is run-foldable (DESIGN.md §16). The join
  /// then emits one partial row per matched left row — the left columns
  /// followed by a (sum, non-NULL count) column pair per aggregate —
  /// instead of one row per candidate, and re-stamps its estimate as
  /// the left estimate. Rows whose values allow it are answered from
  /// strided prefix sums without visiting their candidates (DESIGN.md
  /// §16 "Prefix path"). Returns false and changes nothing otherwise.
  bool TryEnableSumFold(const std::vector<ExprPtr>& group_by,
                        const std::vector<AggregateCall>& aggregates);
  bool folding() const { return !fold_terms_.empty(); }
  /// While folding: the output column of aggregate a's partial sum is
  /// fold_partial_base() + 2a, its non-NULL count the next column.
  size_t fold_partial_base() const { return left_->schema().NumColumns(); }
  /// `fold=sum folded=<candidates> prefix=<left rows> affine=<left
  /// vectors>` while folding (EXPLAIN ANALYZE): prefix counts the
  /// partial rows answered from prefix sums instead of a candidate walk,
  /// affine the left vectors whose bands resolved from the key by
  /// offsets instead of through the evaluator.
  std::string MetricsDetail() const override;

 protected:
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// One typed step of a resolved fold argument, applied to the cell
  /// innermost first: unary minus, or a multiplication by a factor
  /// (`factor_first` keeps Evaluator's operand order).
  struct FoldStep {
    bool negate = false;
    bool factor_first = false;
    bool factor_int = false;  ///< the factor is an int64 (else double)
    int64_t factor_i = 0;
    double factor_d = 0;      ///< the factor as a double, either way
  };
  /// A fold argument resolved for one left row and one band: the steps
  /// that turn a right cell into the argument value, or `null` when the
  /// argument is NULL for every candidate of the band. The steps live in
  /// the owning FoldLeafTable.
  struct FoldLeaf {
    bool null = false;
    uint32_t num_steps = 0;
  };
  /// Leaves [lane][leaf], each with room for `max_steps` steps, in two
  /// flat arrays that are reused from vector to vector: a left vector's
  /// leaves, or (one lane) the per-Open ones.
  struct FoldLeafTable {
    std::vector<FoldLeaf> leaves;
    std::vector<FoldStep> steps;
    size_t width = 0;      ///< leaves per lane
    size_t max_steps = 0;  ///< step slots per leaf

    void Reset(size_t lanes, size_t leaves_per_lane, size_t steps_per_leaf) {
      width = leaves_per_lane;
      max_steps = steps_per_leaf;
      leaves.resize(lanes * width);
      steps.resize(lanes * width * max_steps);
    }
    FoldLeaf& leaf(size_t lane, size_t i) { return leaves[lane * width + i]; }
    const FoldLeaf& leaf(size_t lane, size_t i) const {
      return leaves[lane * width + i];
    }
    const FoldStep* steps_of(size_t lane, size_t i) const {
      return steps.data() + (lane * width + i) * max_steps;
    }
    void Clear(size_t lane, size_t i) { leaf(lane, i) = FoldLeaf(); }
    void Push(size_t lane, size_t i, const FoldStep& step) {
      FoldLeaf& l = leaf(lane, i);
      steps[(lane * width + i) * max_steps + l.num_steps++] = step;
    }
  };
  /// One folded SUM.
  struct FoldTerm {
    ExprPtr arg;          ///< bound over the joined schema
    size_t column = 0;    ///< right-side column the argument is linear in
    bool int_sum = false; ///< INTEGER output (else DOUBLE)
    /// A CASE condition reads MOD(band key, w) and there are several
    /// bands: one leaf per band, whose residue decides the branches;
    /// else one leaf for every band.
    bool per_band = false;
    size_t first_leaf = 0;  ///< offset of its leaves among a lane's
    /// Its leaves resolved once per Open (open_leaves_): every CASE
    /// condition compares MOD(key + c, w) with MOD(band key, w) and
    /// every factor is a constant, so on offset-resolved vectors the
    /// leaf of a band is the same for every row (DESIGN.md §16 "Affine
    /// bands").
    bool open = false;
    /// Prefix path (set with prefixes_): the largest |coefficient| c
    /// for which |c| · max|cell| · (right keys) stays exact — 2^53 for
    /// DOUBLE sums, INT64_MAX for INTEGER ones.
    int64_t prefix_max_coeff = 0;
  };
  /// Strided prefix sums for one band modulus m over the dense key
  /// range: sums[t][i] and counts[t][i] hold term t's column sum and
  /// non-NULL count over dense positions i, i - m, i - 2m, ... >= 0, so
  /// any congruence chain inside an interval is one difference.
  struct FoldPrefix {
    int64_t modulus = 1;
    int64_t base_residue = 0;  ///< the first dense key's class mod m
    std::vector<std::vector<int64_t>> sums;
    std::vector<std::vector<int64_t>> counts;
  };
  /// A band of the current left row on the dense positions: the chain
  /// first, first + m, ..., last (n = its length, 0 = empty).
  struct BandChain {
    int64_t first = 0;
    int64_t last = 0;
    int64_t n = 0;
  };

  /// Copies current_lane_'s bands from lane_bands_ into resolved_; after
  /// a vector's evaluation error, evaluates them on the lane's row
  /// (current_left_) instead.
  Status ResolveBands();
  /// Fills candidates_ from resolved_ (cross-band deduplicated).
  void CollectCandidates();
  /// Resolves every band for every selected row of the new left_vp_
  /// into lane_bands_: from the key lane by offsets when ResolveAffine
  /// succeeds, else one columnar evaluation per bound.
  Status ResolveLeftVector();
  /// Affine bands (affine_): resolves every band of left_vp_ from the
  /// key lane by offsets (affine_bands_). False, with lane_bands_ partly
  /// written, when a selected key is neither INTEGER nor NULL or a step
  /// the evaluator would take overflows: the vector then evaluates.
  bool ResolveAffine();
  /// Appends row ids of keys_ positions matching `band` to candidates_,
  /// using the per-band monotone start cursor `cursor`.
  void CollectBand(const ResolvedBand& band, size_t band_index);
  /// Positions current_lane_ on the next left row, pulling (and
  /// resolving the bands of) left input as needed; *eof = true at its
  /// end.
  Status NextLeftLane(bool* eof);
  /// Fills candidates_ from the current lane's bands (cross-band
  /// deduplicated), then applies the columnar residual filter.
  Status ResolveLaneCandidates();
  /// Fold mode's NextVectorImpl: one partial row per matched left row.
  Status NextFoldedVector(VectorProjection** out, bool* eof);
  /// Folds the current left row's candidates into term `t`'s (sum,
  /// count) cells at output position `at`. Without leaves_ready_, first
  /// resolves the row's leaves of term `t` (ResolveLaneLeaves).
  Status FoldTermCandidates(size_t t, size_t at);
  /// The leaf slot candidate `id` takes in a per-band term: the first
  /// non-empty band of the current row whose residue class holds its
  /// key (all bands holding a key agree on MOD(key, w)).
  size_t FoldSlot(size_t id) const;
  /// Resolves term `t`'s leaves of the current row over a one-lane
  /// selection, for the slots its candidates use, in the order they
  /// first use them.
  Status ResolveLaneLeaves(size_t t);
  /// Open: builds prefixes_ when this Open's data admit the prefix path.
  void BuildFoldPrefixes();
  /// Once per left vector: resolves every leaf the rows' non-empty
  /// bands can use (leaves_ready_ on success), plans every row (no
  /// group, prefix sums, or walk) and computes the prefix rows'
  /// partials.
  void PlanFoldVector();
  /// Adds a prefix row's chain sums into lane_sums_ / lane_counts_;
  /// false when a leaf's coefficient is not exact (the row walks).
  bool SumPrefixLane(uint32_t lane);
  /// Band b of one left row as a chain of dense positions.
  BandChain ChainOf(const ResolvedBand& band, size_t b) const;
  /// The non-empty chains[0, bands) are pairwise disjoint.
  bool ChainsDisjoint(const BandChain* chains);
  /// Open: sets each term's `open` and resolves its per-band leaves
  /// into open_leaves_, when the spec is affine.
  void ResolveOpenLeaves();
  /// Resolves `e` on band `band` into per-Open leaf `leaf` of
  /// open_leaves_, taking the CASE branches its conditions take there;
  /// false when a condition or factor is not of the per-Open shape.
  bool ResolveOpenLeaf(const Expr& e, size_t leaf, size_t band);
  /// Whether `cond`, MOD(key + c, w) = MOD(band key, w) in either
  /// order, holds on band `band`: (c - a) mod w = 0 with a the band's
  /// anchor offset. nullopt when `cond` has another shape; otherwise
  /// open_keys_ narrows to the keys c's chain takes.
  std::optional<bool> OpenCondition(const Expr& cond, size_t band);
  /// Term `t`'s leaf table and the lane to read it at: open_leaves_ at
  /// lane 0 on open vectors for an open term, else the vector's leaves_.
  const FoldLeafTable& LeavesOf(size_t t, uint32_t* lane) const {
    if (open_vector_ && fold_terms_[t].open) {
      *lane = 0;
      return open_leaves_;
    }
    return leaves_;
  }
  /// Resolves term `t`'s leaf `slot` on `lanes` of fold_vp_, whose band
  /// key column holds each lane's band residue.
  Status ResolveFoldLeaves(size_t t, size_t slot,
                           const SelectionVector& lanes);
  /// The fold-argument interpreter: walks a run-foldable argument over
  /// `lanes` of fold_vp_, evaluating its CASE conditions and factors
  /// columnar in Evaluator's operand order, and appends the taken
  /// branch's typed steps to each lane's leaf `leaf` (or marks it
  /// null). An error means some lane's row would raise one.
  Status ResolveFoldExprVector(const Expr& e, size_t leaf,
                               const SelectionVector& lanes);

  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  BandJoinSpec spec_;
  JoinType join_type_;

  /// (key, row id) for non-NULL keys, sorted by key then row id.
  std::vector<std::pair<int64_t, size_t>> keys_;
  /// Dense direct-address table: keys are unique and contiguous, so
  /// dense_[key - dense_base_] is the row id (point/stride lookups
  /// become O(1)).
  std::vector<size_t> dense_;
  int64_t dense_base_ = 0;
  bool dense_valid_ = false;
  /// Per-band monotone start cursors into keys_ with the previous lower
  /// bound; reused across left rows while bounds move forward.
  std::vector<size_t> cursors_;
  std::vector<int64_t> prev_lo_;

  /// The current left row, materialized only when its bands resolve one
  /// by one (ResolveBands after an evaluation error).
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  std::vector<size_t> candidates_;
  size_t candidate_pos_ = 0;
  size_t right_width_ = 0;

  /// The right side, columnar (row id = position): the gather source
  /// for output runs.
  VectorProjection right_vp_;

  /// Pooled output lanes and residual-filter scratch, reused across
  /// NextVector calls.
  VectorProjection out_vp_;
  VectorProjection residual_scratch_;
  /// The current left projection (child-owned).
  VectorProjection* left_vp_ = nullptr;
  size_t left_lane_pos_ = 0;    ///< next selection slot in left_vp_
  uint32_t current_lane_ = 0;   ///< current left row position in left_vp_
  /// ResolveLeftVector's output, [band][lane], and its scratch;
  /// !lane_bands_ready_ after an evaluation error, when each row
  /// resolves its bands itself.
  std::vector<std::vector<ResolvedBand>> lane_bands_;
  bool lane_bands_ready_ = false;
  SelectionVector live_lanes_;
  Vector bound_lane_;
  size_t vector_capacity_ = kVectorSize;
  /// Every band is affine in one left column, affine_column_ (set at
  /// Open); affine_vectors_ counts the left vectors resolved by offsets.
  bool affine_ = false;
  size_t affine_column_ = 0;
  int64_t affine_vectors_ = 0;
  /// Per band: its lo, hi and anchor steps compiled.
  struct AffineBand {
    AffineChain lo;
    AffineChain hi;
    AffineChain anchor;
  };
  std::vector<AffineBand> affine_bands_;
  /// Every non-NULL key of the current vector is in open_keys_ (set by
  /// ResolveAffine).
  bool keys_open_ = false;
  bool affine_vector_ = false;  ///< ResolveAffine resolved the current one

  // --- SUM fold (TryEnableSumFold); empty fold_terms_ = off ---
  std::vector<FoldTerm> fold_terms_;
  /// Resolved bands of the current left row.
  std::vector<ResolvedBand> resolved_;
  int64_t folded_candidates_ = 0;
  /// The current left vector's leaves, [lane][term's first_leaf +
  /// slot]; leaves_ready_ when PlanFoldVector resolved them, else each
  /// walked row resolves its own.
  FoldLeafTable leaves_;
  size_t fold_leaves_ = 0;
  size_t fold_max_steps_ = 0;  ///< the most steps any term's leaf takes
  bool leaves_ready_ = false;
  /// Per-Open leaves of the open terms, [0][first_leaf + slot], and the
  /// keys whose CASE condition operands, key + c, do not overflow
  /// (open_keys_). open_vector_: the current vector was resolved by
  /// offsets and its keys are among those, so open terms read
  /// open_leaves_.
  FoldLeafTable open_leaves_;
  AffineChain open_keys_;
  bool open_vector_ = false;
  /// Prefix path (empty prefixes_ = off for this Open): the prefix of
  /// each band's modulus.
  std::vector<FoldPrefix> prefixes_;
  std::vector<size_t> band_prefix_;
  /// The current left vector's plan and prefix partials, by lane.
  enum LanePlan : uint8_t { kWalkLane, kPrefixLane, kNoGroupLane };
  std::vector<LanePlan> lane_plan_;
  std::vector<int64_t> lane_keys_;    ///< candidates per lane
  std::vector<int64_t> lane_sums_;    ///< [lane * terms + term]
  std::vector<int64_t> lane_counts_;  ///< [lane * terms + term]
  std::vector<BandChain> lane_chains_;  ///< [lane * bands + band]
  /// Left columns and the right ones up to the band key, which holds
  /// the band's residue as a placeholder.
  VectorProjection fold_vp_;
  SelectionVector prefix_lanes_;
  SelectionVector leaf_lanes_;
  std::vector<size_t> chain_order_;
  int64_t prefix_rows_ = 0;
};

/// Hash join on equi-key conjuncts (inner / left outer) with optional
/// residual condition. The build bulk-hashes whole key vectors into a
/// contiguous bucket-chain table (one allocation pass); the probe
/// bulk-hashes each probe vector, chases chains per lane and gathers
/// matches column-wise. See join.cc.
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(Schema schema, PhysicalOperatorPtr left,
             PhysicalOperatorPtr right, std::vector<ExprPtr> left_keys,
             std::vector<ExprPtr> right_keys, ExprPtr residual,
             JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        join_type_(join_type) {}
  const char* name() const override { return "hash_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }
  /// Test hook: shrinks the output capacity so tests can force match
  /// runs to split across output vectors.
  void SetVectorOutputCapacityForTest(size_t cap) {
    vector_capacity_ = cap == 0 ? 1 : cap;
  }

 protected:
  /// Collects the build side's vectors into build_vp_, bulk-hashes the
  /// key vectors, and links the bucket-chain table (heads_/chain_next_)
  /// in one pass.
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  JoinType join_type_;

  size_t right_width_ = 0;
  bool left_valid_ = false;
  bool left_matched_ = false;

  /// Chain terminator / empty bucket sentinel.
  static constexpr uint32_t kChainEnd = 0xffffffffu;
  /// Columnar build side: all build rows (gather source), their
  /// evaluated key vectors, and per-row full hashes. Entries are linked
  /// head-first in REVERSE row order so every chain walks in ascending
  /// build-row order.
  VectorProjection build_vp_;
  std::vector<Vector> build_key_vecs_;
  std::vector<uint64_t> build_hashes_;
  std::vector<uint32_t> heads_;       ///< bucket -> first entry (row id)
  std::vector<uint32_t> chain_next_;  ///< entry -> next entry in chain
  uint64_t bucket_mask_ = 0;          ///< heads_.size() - 1 (power of two)
  /// Pooled output lanes, the current probe projection (child-owned),
  /// and per-lane match state.
  VectorProjection out_vp_;
  VectorProjection residual_scratch_;
  VectorProjection* probe_vp_ = nullptr;
  std::vector<Vector> probe_key_vecs_;
  std::vector<uint64_t> probe_hashes_;
  size_t probe_lane_pos_ = 0;   ///< next selection slot in probe_vp_
  uint32_t current_lane_ = 0;   ///< current probe row position
  std::vector<size_t> candidates_;
  size_t candidate_pos_ = 0;
  size_t vector_capacity_ = kVectorSize;
};

/// Full-materialization stable sort, columnar: Open copies the child's
/// selected lanes into owned chunks of kVectorSize rows and evaluates
/// the keys with VectorEvaluator. When no adjacent pair of rows is out
/// of order, the identity is what std::stable_sort would return and the
/// chunks are emitted as they are; otherwise a stable_sort of row
/// indices under the same comparator is emitted by gather (DESIGN.md §13
/// "Columnar sort and aggregate"). The in-order check is skipped for
/// keys whose order is not a strict weak one (NaN, doubles mixed with
/// int64 beyond 2^53).
class SortOp : public PhysicalOperator {
 public:
  SortOp(Schema schema, PhysicalOperatorPtr child, std::vector<SortKey> keys)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        keys_(std::move(keys)) {}
  const char* name() const override { return "sort"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }
  /// `presorted=1` when the in-order check answered the sort,
  /// `presorted=0` when a permutation ran, and `presorted=1 handoff=1`
  /// when the child vouched for the order.
  std::string MetricsDetail() const override;

 protected:
  /// Takes the child's order when its first key is an ascending bare
  /// column reference that the child vouches for
  /// (ColumnStrictlyAscends): a strictly ascending first key leaves no
  /// ties for a later key to break, so the child's stream is the sorted
  /// one and is forwarded as it comes. Otherwise drains the child into
  /// chunks_, evaluates the keys and decides between pass-through and
  /// permutation.
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  const Vector& KeyLane(size_t chunk, size_t k) const {
    return key_lanes_[chunk * keys_.size() + k];
  }
  /// Value::Compare order of rows a and b under the keys' directions.
  int CompareRows(size_t a, size_t b) const;

  PhysicalOperatorPtr child_;
  std::vector<SortKey> keys_;
  size_t pos_ = 0;
  bool presorted_ = false;
  /// The child's order was taken: its vectors are forwarded.
  bool handoff_ = false;
  std::vector<VectorProjection> chunks_;
  size_t num_rows_ = 0;
  /// Key k of chunk c, evaluated: key_lanes_[c * keys + k].
  std::vector<Vector> key_lanes_;
  /// Emission order by global row index (chunk * capacity + lane);
  /// empty when presorted_.
  std::vector<uint32_t> perm_;
  VectorProjection out_vp_;
};

/// Hash aggregation (grouped or global). Ingests vectors and keeps its
/// groups columnar: group g's key cells and finished aggregates sit in
/// lane g % kVectorSize of output vector g / kVectorSize, and its
/// accumulators in one flat groups × aggregates array. Output vectors
/// are emitted as they are.
///
/// Direct path (folded input, one group key): while the int64 key
/// strictly ascends with no NULL, each input row is a group of one
/// partial, and its SUM cells are written straight from the partials,
/// with no lookup and no accumulator. The first row that breaks the run
/// rebuilds the accumulators and the int map from the groups so far and
/// continues on the hash path (DESIGN.md §13).
class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(Schema schema, PhysicalOperatorPtr child,
                  std::vector<ExprPtr> group_by,
                  std::vector<AggregateCall> aggregates)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {}
  const char* name() const override { return "hash_aggregate"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }
  /// The child is a folding MergeBandJoinOp: its vectors carry partial
  /// rows whose (sum, count) pair for aggregate a sits in columns
  /// partial_base + 2a and partial_base + 2a + 1 (partial_base is the
  /// join's fold_partial_base()); they are combined instead of
  /// evaluating the aggregate arguments.
  void SetFoldedInput(size_t partial_base) {
    folded_ = true;
    partial_base_ = partial_base;
  }
  /// True for the key column when the direct path held for the whole
  /// input: then every key cell is a non-NULL int64, each above the one
  /// before.
  bool ColumnStrictlyAscends(size_t c) const override {
    return c == 0 && key_ascends_;
  }

 protected:
  /// Builds groups_ from the child's vectors.
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateCall> aggregates_;
  bool folded_ = false;
  size_t partial_base_ = 0;
  bool key_ascends_ = false;
  size_t pos_ = 0;
  /// Output vectors: group keys, then one column per aggregate.
  std::vector<VectorProjection> groups_;
  size_t num_groups_ = 0;
};

/// Reporting-function (window) operator: materializes its input,
/// evaluates every WindowCall with an O(1)-amortized-per-row frame
/// engine (see exec/window_frame.h), appends one column per call, and
/// re-emits rows in their original input order, up to kVectorSize of
/// them per output vector.
///
/// Each call sorts the rows by (partition keys, order keys) and sweeps
/// the partitions one after another, in one ordered pass per partition.
class WindowOp : public PhysicalOperator {
 public:
  WindowOp(Schema schema, PhysicalOperatorPtr child,
           std::vector<WindowCall> calls)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        calls_(std::move(calls)) {}
  const char* name() const override { return "window"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// Inputs of one call's per-partition sweeps, computed once per call.
  struct CallContext {
    const WindowCall* call = nullptr;
    /// Per row: evaluated aggregate argument (empty unless kAggregate
    /// with an argument).
    std::vector<Value> args;
    /// Per row: partition keys followed by order keys.
    std::vector<std::vector<Value>> keys;
    /// Row indices sorted by (partition keys, order keys).
    std::vector<size_t> order;
  };

  Status ComputeCall(const WindowCall& call, std::vector<Value>* out) const;

  /// Evaluates one partition (the sorted index range [begin, end) of
  /// ctx.order) into the matching slots of *out.
  Status ProcessPartition(const CallContext& ctx, size_t begin, size_t end,
                          std::vector<Value>* out) const;

  PhysicalOperatorPtr child_;
  std::vector<WindowCall> calls_;
  std::vector<Row> rows_;
  std::vector<std::vector<Value>> extra_columns_;
  /// Next buffered row to emit.
  size_t pos_ = 0;
  VectorProjection out_vp_;
};

class UnionAllOp : public PhysicalOperator {
 public:
  UnionAllOp(Schema schema, std::vector<PhysicalOperatorPtr> children)
      : PhysicalOperator(std::move(schema)), children_(std::move(children)) {}
  const char* name() const override { return "union_all"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    for (const PhysicalOperatorPtr& c : children_) out->push_back(c.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  std::vector<PhysicalOperatorPtr> children_;
  size_t current_ = 0;
};

class LimitOp : public PhysicalOperator {
 public:
  LimitOp(Schema schema, PhysicalOperatorPtr child, int64_t limit)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        limit_(limit) {}
  const char* name() const override { return "limit"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  /// Truncates the child projection's selection to the rows remaining
  /// under the limit and passes the projection through.
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace rfv

#endif  // RFVIEW_EXEC_OPERATORS_H_
