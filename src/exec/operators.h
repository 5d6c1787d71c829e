#ifndef RFVIEW_EXEC_OPERATORS_H_
#define RFVIEW_EXEC_OPERATORS_H_

// Internal header: physical operator classes. Users of the library go
// through exec/executor.h (BuildPhysicalPlan / ExecutePlan); these
// classes are exposed for white-box tests.

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "exec/executor.h"
#include "expr/expr.h"
#include "storage/table.h"
#include "storage/table_snapshot.h"

namespace rfv {

/// Full scan over a base table. Open pins the table's committed
/// snapshot (chunked copy-on-write image) plus a reader epoch, so the
/// scan reads a stable statement-granular image of the table in both
/// pull protocols while concurrent DML mutates the live row store.
/// Close releases the pin, letting the EpochManager reclaim superseded
/// snapshots.
class TableScanOp : public PhysicalOperator {
 public:
  TableScanOp(Schema schema, Table* table)
      : PhysicalOperator(std::move(schema)), table_(table) {}
  const char* name() const override { return "scan"; }
  bool VectorNative() const override { return true; }

  Table* table() const { return table_; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  Table* table_;
  size_t pos_ = 0;
  /// The stable image this scan reads; pinned in OpenImpl.
  TableSnapshotPtr snap_;
  /// Reader epoch pin held for the scan's lifetime.
  EpochGuard epoch_guard_{nullptr};
  /// Vector path: the projection handed to NextVector callers.
  VectorProjection vp_;
};

class FilterOp : public PhysicalOperator {
 public:
  FilterOp(Schema schema, PhysicalOperatorPtr child, ExprPtr predicate)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}
  const char* name() const override { return "filter"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
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
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  std::vector<ExprPtr> projections_;
  /// Vector path: output columns evaluated from the child projection;
  /// shares the child's row positions and selection.
  VectorProjection out_vp_;
};

/// Nested-loop join: materializes the right input once, then scans it
/// per left row. Supports inner, cross and left outer joins with an
/// arbitrary residual condition — the fallback the paper's "self join
/// method **without** index" rows in Table 1 exercise.
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(Schema schema, PhysicalOperatorPtr left,
                   PhysicalOperatorPtr right, ExprPtr condition,
                   JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(std::move(condition)),
        join_type_(join_type) {}
  const char* name() const override { return "nested_loop_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  Status AdvanceLeft(bool* eof);

  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  ExprPtr condition_;
  JoinType join_type_;

  std::vector<Row> right_rows_;
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  size_t right_pos_ = 0;
  size_t right_width_ = 0;
};

/// Probe specification for an index nested-loop join: how to derive,
/// from each left row, the key set to look up in the right table's
/// ordered index. Produced by TryExtractIndexProbe (exec/join.cc).
struct IndexProbeSpec {
  /// Right-table column (table-local index) the probes address.
  size_t right_column = 0;

  /// Point probes: each expression (bound over the LEFT schema) yields
  /// one key; a right row qualifies when its key equals any of them.
  std::vector<ExprPtr> point_exprs;

  /// Range probe (used when point_exprs is empty): optional bounds,
  /// inclusive. Bound expressions are bound over the LEFT schema.
  ExprPtr range_lo;
  ExprPtr range_hi;

  /// True when the probe is a superset of the join condition and the
  /// full condition must be re-checked on each candidate (e.g. strict
  /// `<` relaxed to `<=`, or a disjunctive condition widened to its
  /// column hull). When false the probe is exact and the condition
  /// conjuncts it covers were already removed from `residual`.
  bool approximate = true;

  /// Condition to evaluate on each joined candidate row; null = accept.
  ExprPtr residual;
};

/// Attempts to turn `condition` (bound over the joined schema, left
/// width `left_width`) into an index probe on an indexed column of
/// `right_table`. Returns nullopt when no usable pattern is found.
///
/// Recognized per-conjunct patterns on an indexed right column rc:
///   rc = <left expr>                      → exact point
///   rc IN (<left exprs>)                  → exact points
///   <left expr> IN (rc ± const, ...)      → exact points (inverted form,
///                                           paper Fig. 2/4 predicates)
///   rc BETWEEN <left lo> AND <left hi>    → exact range
///   rc < / <= / > / >= <left expr>        → approximate one-sided range
///   OR of branches each yielding a probe on rc
///                                         → approximate union/hull probe
std::optional<IndexProbeSpec> TryExtractIndexProbe(const Expr& condition,
                                                   size_t left_width,
                                                   Table* right_table);

/// Index nested-loop join: per left row, probes an ordered index on the
/// right base table — the paper's "with primary key index" execution
/// paths in Tables 1 and 2.
class IndexNestedLoopJoinOp : public PhysicalOperator {
 public:
  IndexNestedLoopJoinOp(Schema schema, PhysicalOperatorPtr left,
                        Table* right_table, Schema right_schema,
                        IndexProbeSpec spec, JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_table_(right_table),
        right_schema_(std::move(right_schema)),
        spec_(std::move(spec)),
        join_type_(join_type) {}
  const char* name() const override { return "index_nested_loop_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  Status AdvanceLeft(bool* eof);

  PhysicalOperatorPtr left_;
  Table* right_table_;
  Schema right_schema_;
  IndexProbeSpec spec_;
  JoinType join_type_;

  OrderedIndex* index_ = nullptr;
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  std::vector<size_t> candidates_;
  size_t candidate_pos_ = 0;
};

/// One band of a merge band join: the set of right-side keys a left row
/// joins with, described as an inclusive integer interval plus an
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
};

/// Merge band join plan: each left row matches right rows whose key
/// column falls in ANY of the bands (the bands are the branches of the
/// paper's disjunctive MaxOA/MinOA join predicates). Produced by
/// TryExtractBandJoin (exec/band_join.cc).
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
};

/// Attempts to turn `condition` into a band join on an INTEGER column of
/// `right_table`. Returns nullopt when no band shape is found, or when
/// the shape is one the hash/index joins already handle better (a single
/// equality point and nothing else).
///
/// Recognized per-conjunct shapes on an int64 right column rc:
///   rc BETWEEN lo AND hi / rc <op> e       → interval band
///   rc = e / rc IN (...) / e IN (rc ± c)   → point bands
///   MOD(e, w) = MOD(rc, w)                 → congruence on the band
///   OR of branches, each an AND of the above → one band per branch
std::optional<BandJoinSpec> TryExtractBandJoin(const Expr& condition,
                                               size_t left_width,
                                               Table* right_table);

/// Merge band join: materializes the right input once into a sorted
/// (key, row) array — skipping the sort when the input is already in key
/// order — then resolves each left row's bands against it with monotone
/// start cursors (O(n + matches) for the paper's forward-moving frames),
/// binary-search fallback for non-monotone bounds, and congruence-class
/// stride enumeration for the MaxOA/MinOA partitioned patterns. This is
/// the linear-time execution strategy for the Fig. 2/10/13 self-join
/// patterns; selected ahead of the index nested-loop probe when the
/// condition has band shape.
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
  /// Native columnar output: candidate runs from the monotone band
  /// cursors are gathered column-wise into pooled output lanes
  /// (band_join.cc NextVectorImpl) instead of transposing per-row
  /// concatenations.
  bool VectorNative() const override { return true; }
  /// Test hook: shrinks the native vector path's output capacity so
  /// tests can force candidate runs to split across output vectors.
  void SetVectorOutputCapacityForTest(size_t cap) {
    vector_capacity_ = cap == 0 ? 1 : cap;
  }

  /// SUM fold: called by BuildPhysicalPlan when a HashAggregateOp sits
  /// directly on this join. Succeeds when the join is inner and
  /// vectorized, every group key is left-only and every aggregate is a
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
  /// `fold=sum folded=<candidates> prefix=<left rows>` while folding
  /// (EXPLAIN ANALYZE): prefix counts the partial rows answered from
  /// prefix sums instead of a candidate walk.
  std::string MetricsDetail() const override;

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// Evaluated, integer-resolved bounds of one band for one left row.
  struct ResolvedBand {
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
    int64_t residue = 0;  ///< anchor's class mod the band's modulus
    bool empty = false;
  };

  /// One typed step of a resolved fold argument, applied to the cell
  /// innermost first: unary minus, or a multiplication by a factor
  /// (`factor_first` keeps the row path's operand order).
  struct FoldStep {
    bool negate = false;
    bool factor_first = false;
    bool factor_int = false;  ///< the factor is an int64 (else double)
    int64_t factor_i = 0;
    double factor_d = 0;      ///< the factor as a double, either way
  };
  /// A fold argument resolved for one left row and one band: the steps
  /// that turn a right cell into the argument value, or `null` when the
  /// argument is NULL for every candidate of the band.
  struct FoldLeaf {
    bool resolved = false;
    bool null = false;
    std::vector<FoldStep> steps;
  };
  /// One folded SUM.
  struct FoldTerm {
    ExprPtr arg;          ///< bound over the joined schema
    size_t column = 0;    ///< right-side column the argument is linear in
    bool int_sum = false; ///< INTEGER output (else DOUBLE)
    /// The resolution reads the left row (CASE or column factors); a
    /// constant argument resolves once per Open.
    bool per_left_row = false;
    std::vector<FoldLeaf> leaves;  ///< per band when tagging, else one
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

  Status AdvanceLeft(bool* eof);
  /// Resolves all bands for current_left_ into candidates_ (cross-band
  /// deduplicated); shared by the row and vector paths.
  Status ResolveCandidates();
  /// Evaluates every band of current_left_ into resolved_ (row path),
  /// or copies current_lane_'s from lane_bands_ (vector paths; after a
  /// vector's evaluation error, evaluates the lane's row instead).
  Status ResolveBands();
  /// Fills candidates_ from resolved_ (cross-band deduplicated).
  void CollectCandidates();
  Status ResolveBand(const BandSpec& band, const Row& left_row,
                     ResolvedBand* out) const;
  /// Applies an evaluated lower (`is_lo`) or upper bound to *out; NULL
  /// empties the band.
  static Status ApplyBound(const Value& v, bool strict, bool is_lo,
                           ResolvedBand* out);
  /// Applies an evaluated congruence anchor to *out.
  static void ApplyAnchor(const Value& a, int64_t modulus, ResolvedBand* out);
  /// Vector paths: resolves every band for every selected row of the
  /// new left_vp_ into lane_bands_, one columnar evaluation per bound.
  Status ResolveLeftVector();
  /// Appends row ids of keys_ positions matching `band` to candidates_,
  /// using the per-band monotone start cursor `cursor`.
  void CollectBand(const ResolvedBand& band, size_t band_index);
  /// Vector paths: positions current_lane_ on the next left row, pulling
  /// (and resolving the bands of) left input as needed; *have = false at
  /// its end.
  Status NextLeftLane(bool* have);
  /// Vector paths: ResolveCandidates from the band lanes, plus the
  /// columnar residual filter.
  Status ResolveLaneCandidates();
  /// Fold mode's NextVectorImpl: one partial row per matched left row.
  Status NextFoldedVector(VectorProjection** out, bool* eof);
  /// Folds the current left row's candidates into term `t`'s (sum,
  /// count) cells at output position `at`.
  Status FoldTermCandidates(size_t t, size_t at);
  /// Open: builds prefixes_ when this Open's data admit the prefix path.
  void BuildFoldPrefixes();
  /// Prefix path, once per left vector: plans every lane (no group,
  /// prefix sums, or walk) and computes the prefix lanes' partials.
  void PlanFoldVector();
  /// Band b of one left row as a chain of dense positions.
  BandChain ChainOf(const ResolvedBand& band, size_t b) const;
  /// The non-empty chains[0, bands) are pairwise disjoint.
  bool ChainsDisjoint(const BandChain* chains);
  /// ResolveFoldExpr over `lanes` of fold_vp_, columnar: multiplies
  /// lane_coeff_ by the taken branch's integer coefficient, or flags
  /// the lane (kLeafNull / kLeafInexact) in lane_leaf_. An error means
  /// some lane's walk would raise one. A columnar twin of
  /// ResolveFoldExpr, kept for its measured gain over resolving each
  /// prefix row through it (EXPERIMENTS.md A10 "Prefix path").
  Status ResolveFoldExprVector(const Expr& e, const FoldTerm& term,
                               const SelectionVector& lanes);
  /// Resolves term->leaves[slot] on fold_row_ for the current left row.
  Status ResolveFoldLeaf(FoldTerm* term, size_t slot);
  /// Walks a run-foldable argument, evaluating its CASE conditions and
  /// factors on fold_row_ and recording the steps of the taken branch.
  Status ResolveFoldExpr(const Expr& e, FoldLeaf* leaf) const;

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

  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  std::vector<size_t> candidates_;
  size_t candidate_pos_ = 0;
  size_t right_width_ = 0;
  /// Fold-mode dedup scratch: (candidate, band) pairs to sort.
  std::vector<std::pair<size_t, uint32_t>> tagged_;

  /// The right side, columnar (row id = position): the gather source
  /// for output runs and of the row path's joined rows.
  VectorProjection right_vp_;

  // --- Vector-native path (NextVectorImpl, used when vectorized()) ---
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
  bool left_input_eof_ = false;
  size_t vector_capacity_ = kVectorSize;

  // --- SUM fold (TryEnableSumFold); empty fold_terms_ = off ---
  std::vector<FoldTerm> fold_terms_;
  /// Resolved bands of the current left row (fold leaves read residues).
  std::vector<ResolvedBand> resolved_;
  /// Some CASE condition reads MOD(band key, w) and there are several
  /// bands: candidates then carry their band index (candidate_bands_,
  /// parallel to candidates_) through the cross-band dedup.
  bool fold_tag_bands_ = false;
  std::vector<uint32_t> candidate_bands_;
  /// Left row ⊕ right placeholders (band key = the band's residue): the
  /// row fold CASE conditions and factors are evaluated on.
  Row fold_row_;
  int64_t folded_candidates_ = 0;
  /// Prefix path (empty prefixes_ = off for this Open): the prefix of
  /// each band's modulus, and the current left vector's plan, by lane.
  std::vector<FoldPrefix> prefixes_;
  std::vector<size_t> band_prefix_;
  enum LanePlan : uint8_t { kWalkLane, kPrefixLane, kNoGroupLane };
  std::vector<LanePlan> lane_plan_;
  std::vector<int64_t> lane_keys_;    ///< candidates per lane
  std::vector<int64_t> lane_sums_;    ///< [lane * terms + term]
  std::vector<int64_t> lane_counts_;  ///< [lane * terms + term]
  /// Leaf resolution scratch: coefficient and flags per lane.
  static constexpr uint8_t kLeafNull = 1;
  static constexpr uint8_t kLeafInexact = 2;
  std::vector<int64_t> lane_coeff_;
  std::vector<uint8_t> lane_leaf_;
  /// Left columns and the right ones up to the band key, which holds
  /// the band's residue as a placeholder.
  VectorProjection fold_vp_;
  SelectionVector prefix_lanes_;
  SelectionVector leaf_lanes_;
  std::vector<BandChain> chains_;
  std::vector<size_t> chain_order_;
  int64_t prefix_rows_ = 0;
};

/// Hash join on equi-key conjuncts (inner / left outer) with optional
/// residual condition.
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
  /// Native columnar execution: vectorized build (bulk-hash whole key
  /// vectors into a contiguous bucket-chain table, one allocation pass)
  /// and vectorized probe (bulk-hash the probe vector, chase chains
  /// per-lane, gather matches column-wise). See join.cc.
  bool VectorNative() const override { return true; }
  /// Test hook: shrinks the native vector path's output capacity so
  /// tests can force match runs to split across output vectors.
  void SetVectorOutputCapacityForTest(size_t cap) {
    vector_capacity_ = cap == 0 ? 1 : cap;
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  Status AdvanceLeft(bool* eof);
  /// Vectorized build: drains the build side, transposes it once into
  /// build_vp_, bulk-hashes the key vectors, and links the bucket-chain
  /// table (heads_/chain_next_) in one pass.
  Status OpenVectorized();

  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  JoinType join_type_;

  std::unordered_map<std::vector<Value>, std::vector<Row>, RowColumnsHash>
      hash_table_;
  size_t right_width_ = 0;
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;

  // --- Vector-native path (OpenVectorized + NextVectorImpl) ---
  /// Chain terminator / empty bucket sentinel.
  static constexpr uint32_t kChainEnd = 0xffffffffu;
  /// Columnar build side: all build rows (gather source), their
  /// evaluated key vectors, and per-row full hashes. Entries are linked
  /// head-first in REVERSE row order so every chain walks in ascending
  /// build-row order — exactly the row path's bucket arrival order.
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
  bool probe_input_eof_ = false;
  std::vector<size_t> vec_candidates_;
  size_t vec_candidate_pos_ = 0;
  size_t vector_capacity_ = kVectorSize;
};

/// Full-materialization stable sort.
///
/// Vector mode (vectorized()) is columnar: Open copies the child's
/// selected lanes into owned chunks of kVectorSize rows and evaluates
/// the keys with VectorEvaluator. When no adjacent
/// pair of rows is out of order, the identity is what std::stable_sort
/// would return and the chunks are emitted as they are; otherwise a
/// stable_sort of row indices under the same comparator is emitted by
/// gather (DESIGN.md §13 "Columnar sort and aggregate"). Row mode keeps
/// the row sort, the reference of the `vector` oracle. The in-order
/// check is skipped for keys whose order is not a strict weak one (NaN,
/// doubles mixed with int64 beyond 2^53).
class SortOp : public PhysicalOperator {
 public:
  SortOp(Schema schema, PhysicalOperatorPtr child, std::vector<SortKey> keys)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        keys_(std::move(keys)) {}
  const char* name() const override { return "sort"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }
  /// Vector mode: `presorted=1` when the in-order check answered the
  /// sort, `presorted=0` when a permutation ran. Empty in row mode.
  std::string MetricsDetail() const override;

 protected:
  Status OpenImpl() override;
  /// Vector mode: materializes the next row from the chunks.
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// Vector-mode Open: drains the child into chunks_, evaluates the
  /// keys and decides between pass-through and permutation.
  Status OpenColumnar();
  const Vector& KeyLane(size_t chunk, size_t k) const {
    return key_lanes_[chunk * keys_.size() + k];
  }
  /// Value::Compare order of rows a and b under the keys' directions.
  int CompareRows(size_t a, size_t b) const;

  PhysicalOperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;

  // --- Vector mode ---
  bool presorted_ = false;
  std::vector<VectorProjection> chunks_;
  size_t num_rows_ = 0;
  /// Key k of chunk c, evaluated: key_lanes_[c * keys + k].
  std::vector<Vector> key_lanes_;
  /// Emission order by global row index (chunk * capacity + lane);
  /// empty when presorted_.
  std::vector<uint32_t> perm_;
  VectorProjection out_vp_;
};

/// Hash aggregation (grouped or global).
///
/// Vector mode (vectorized()) ingests vectors and keeps its
/// groups columnar: group g's key cells and finished aggregates sit in
/// lane g % kVectorSize of output vector g / kVectorSize, and
/// its accumulators in one flat groups × aggregates array. Output
/// vectors are emitted as they are. Row mode keeps Value-keyed groups
/// and result rows, the reference of the `vector` oracle.
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
  bool VectorNative() const override { return true; }
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

 protected:
  Status OpenImpl() override;
  /// Vector mode: materializes the next group's row from the columns.
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// Vector-mode Open: builds groups_ from the child's vectors.
  Status OpenColumnar();

  PhysicalOperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateCall> aggregates_;
  bool folded_ = false;
  size_t partial_base_ = 0;
  std::vector<Row> results_;
  size_t pos_ = 0;

  // --- Vector mode ---
  /// Output vectors: group keys, then one column per aggregate.
  std::vector<VectorProjection> groups_;
  size_t num_groups_ = 0;
};

/// Reporting-function (window) operator: materializes its input,
/// evaluates every WindowCall with an O(1)-amortized-per-row frame
/// engine (see exec/window_frame.h), appends one column per call, and
/// re-emits rows in their original input order.
///
/// Partition-parallel: after the sort, the per-partition sweeps are
/// independent, so partitions are chunked across the shared ThreadPool
/// when the input is large enough and `workers` allows it. Partitions
/// are never split and each task writes disjoint output slots, so the
/// result is byte-identical to the single-threaded path.
class WindowOp : public PhysicalOperator {
 public:
  /// `workers`: 1 = single-threaded, n > 1 = up to n parallel tasks,
  /// 0 = auto (hardware concurrency). `parallel_min_rows` gates the
  /// parallel path by input size.
  WindowOp(Schema schema, PhysicalOperatorPtr child,
           std::vector<WindowCall> calls, int workers = 1,
           int64_t parallel_min_rows = 4096)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        calls_(std::move(calls)),
        workers_(workers),
        parallel_min_rows_(parallel_min_rows) {}
  const char* name() const override { return "window"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  /// Shared read-only inputs of one call's per-partition sweeps.
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
  /// ctx.order) into the matching slots of *out. Safe to run
  /// concurrently for disjoint ranges.
  Status ProcessPartition(const CallContext& ctx, size_t begin, size_t end,
                          std::vector<Value>* out) const;

  /// Resolved worker count for an input of `rows` rows split into
  /// `partitions` partitions; 1 means run single-threaded.
  int EffectiveWorkers(size_t rows, size_t partitions) const;

  PhysicalOperatorPtr child_;
  std::vector<WindowCall> calls_;
  int workers_;
  int64_t parallel_min_rows_;
  std::vector<Row> rows_;
  std::vector<std::vector<Value>> extra_columns_;
  size_t pos_ = 0;
};

class UnionAllOp : public PhysicalOperator {
 public:
  UnionAllOp(Schema schema, std::vector<PhysicalOperatorPtr> children)
      : PhysicalOperator(std::move(schema)), children_(std::move(children)) {}
  const char* name() const override { return "union_all"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    for (const PhysicalOperatorPtr& c : children_) out->push_back(c.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
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
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
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
