#ifndef RFVIEW_EXEC_EXECUTOR_H_
#define RFVIEW_EXEC_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/vector.h"
#include "plan/logical_plan.h"

namespace rfv {

/// Per-operator execution counters, maintained by the PhysicalOperator
/// base class (wall times, row/call counts) and by the operators
/// themselves (peak buffered rows, reported by the materializing ones).
/// Cheap enough to keep always-on: two steady_clock reads per Next.
struct OperatorMetrics {
  int64_t rows_out = 0;    ///< rows produced through Next/NextVector
  int64_t next_calls = 0;  ///< pull invocations, incl. the EOF call
  /// Non-empty vectors produced: NextVector results, plus the vectors a
  /// vectorized operator produced for a row-pulling parent, so EXPLAIN
  /// ANALYZE's `vectors=` shows which operators ran columnar (a row-only
  /// operator under a columnar parent counts here too, because it
  /// *answers* NextVector from its rows).
  int64_t vectors_out = 0;
  int64_t open_ns = 0;     ///< wall time inside Open (incl. children)
  int64_t next_ns = 0;     ///< cumulative wall time inside Next (ditto)
  /// High-water mark of rows materialized by this operator (sort
  /// buffers, hash tables, window/join materializations); 0 for
  /// streaming operators.
  int64_t peak_buffered_rows = 0;

  void Reset() { *this = OperatorMetrics(); }
};

/// Pull-based (Volcano-style) physical operator. Lifecycle:
/// Open() once, then one of the two pull protocols until *eof — Next()
/// (row-at-a-time) or NextVector() (columnar VectorProjection);
/// destructor releases state. A driver picks ONE protocol per operator
/// instance and sticks with it — interleaving them on the same operator
/// is undefined.
///
/// Open/Next/NextVector are non-virtual shells that maintain
/// OperatorMetrics and are the only place the two protocols meet: each
/// operator body implements one protocol per mode, and the shells
/// translate. A vectorized() operator runs NextVectorImpl and its Next
/// serves the rows of those vectors; any other operator runs NextImpl
/// and its NextVector writes those rows into the lanes of one retained
/// projection. White-box users (tests, the executor driver) call the
/// shells.
class PhysicalOperator {
 public:
  explicit PhysicalOperator(Schema schema) : schema_(std::move(schema)) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  Status Open() {
    metrics_.Reset();
    exhausted_ = false;
    row_vp_ = nullptr;
    row_slot_ = 0;
    const auto start = std::chrono::steady_clock::now();
    Status status = OpenImpl();
    metrics_.open_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return status;
  }

  /// Produces the next row into *row, or sets *eof = true (row left
  /// untouched) when the stream is exhausted.
  Status Next(Row* row, bool* eof) {
    const auto start = std::chrono::steady_clock::now();
    Status status =
        vectorized() ? NextRowFromVectors(row, eof) : NextImpl(row, eof);
    metrics_.next_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ++metrics_.next_calls;
    if (status.ok() && !*eof) ++metrics_.rows_out;
    return status;
  }

  /// Columnar pull. Exactly one of two results:
  ///  - *out points at a producer-owned projection with at least one
  ///    selected row, and *eof = false;
  ///  - *out = nullptr and *eof = true: the stream is exhausted (also on
  ///    every later call, without re-entering the operator).
  /// The projection stays valid until the next NextVector call on this
  /// operator. Consumers may narrow its SelectionVector in place (the
  /// zero-copy filter protocol) but must not touch the column data.
  Status NextVector(VectorProjection** out, bool* eof) {
    const auto start = std::chrono::steady_clock::now();
    Status status = vectorized() ? PullVector(out) : VectorFromRows(out);
    metrics_.next_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ++metrics_.next_calls;
    *eof = *out == nullptr;
    if (!*eof) {
      metrics_.rows_out += static_cast<int64_t>((*out)->NumSelected());
      ++metrics_.vectors_out;
    }
    return status;
  }

  /// True when this operator implements NextVectorImpl natively (columns
  /// + selection vector all the way down). Only such operators can be
  /// vectorized(); the others answer NextVector from their rows.
  virtual bool VectorNative() const { return false; }

  /// Selects the operator's mode: with `v` on a VectorNative() operator,
  /// vectorized() holds and the operator runs its columnar body
  /// (NextVectorImpl, and the columnar Open of the materializing
  /// operators); otherwise it runs its row body. Stamped by
  /// BuildPhysicalPlan from `options.exec.use_vectorized_execution`.
  void SetVectorized(bool v) { vectorized_ = v && VectorNative(); }
  bool vectorized() const { return vectorized_; }

  const Schema& schema() const { return schema_; }

  /// Short operator name for metrics/EXPLAIN-style reports.
  virtual const char* name() const = 0;

  /// Extra `key=value` tokens appended to this operator's EXPLAIN
  /// ANALYZE line (e.g. a folding band join's `fold=sum folded=N`);
  /// empty for most operators.
  virtual std::string MetricsDetail() const { return std::string(); }

  /// Appends this operator's direct inputs (tree traversal for metrics
  /// collection). Leaf operators append nothing.
  virtual void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const {
    (void)out;
  }

  const OperatorMetrics& metrics() const { return metrics_; }

  /// Planner-estimated output rows (LogicalPlan::est_rows), stamped by
  /// BuildPhysicalPlan; -1 when the plan was not estimated. Read back by
  /// CollectMetrics for the estimated-vs-actual columns of EXPLAIN
  /// ANALYZE.
  void SetEstimatedRows(double est) { estimated_rows_ = est; }
  double estimated_rows() const { return estimated_rows_; }

 protected:
  virtual Status OpenImpl() = 0;
  /// The row body, run when the operator is not vectorized().
  virtual Status NextImpl(Row* row, bool* eof) = 0;

  /// The columnar body, run when the operator is vectorized(). Looser
  /// than NextVector: *out may be null or have an empty selection, and
  /// *eof = true may come with rows (the shell passes them on and
  /// reports eof on the following call). It is never called again once
  /// it has reported eof. Row-only operators keep the default, which is
  /// never reached.
  virtual Status NextVectorImpl(VectorProjection** out, bool* eof);

  /// Raises the buffered-rows high-water mark (materializing operators
  /// call this after filling their buffers).
  void NoteBufferedRows(size_t n) {
    if (static_cast<int64_t>(n) > metrics_.peak_buffered_rows) {
      metrics_.peak_buffered_rows = static_cast<int64_t>(n);
    }
  }

  Schema schema_;

 private:
  /// NextVector of a vectorized() operator: NextVectorImpl until it
  /// yields a selected row or reports eof (then *out = nullptr).
  Status PullVector(VectorProjection** out);
  /// NextVector of any other operator: up to kVectorSize rows of NextImpl
  /// (not the Next shell, whose clock reads and counters must not be paid
  /// twice) written into the lanes of fallback_vp_; nullptr at the end.
  Status VectorFromRows(VectorProjection** out);
  /// Next of a vectorized() operator: the next selected row of row_vp_,
  /// pulling a new vector through PullVector when it is used up.
  Status NextRowFromVectors(Row* row, bool* eof);

  OperatorMetrics metrics_;
  double estimated_rows_ = -1;
  /// Set once the body reported eof to NextVector or to a vectorized
  /// Next; those shells never re-enter it after.
  bool exhausted_ = false;
  bool vectorized_ = false;
  /// NextRowFromVectors: the vector being served and its next slot.
  VectorProjection* row_vp_ = nullptr;
  size_t row_slot_ = 0;
  /// VectorFromRows: the row it pulls and the projection it writes.
  Row fallback_row_;
  VectorProjection fallback_vp_;
};

using PhysicalOperatorPtr = std::unique_ptr<PhysicalOperator>;

/// One line of a per-operator metrics report: the operator's name and
/// depth in the plan tree, its counters, and the summed rows_out of its
/// inputs (its "rows in").
struct OperatorMetricsEntry {
  std::string name;
  int depth = 0;
  int64_t rows_in = 0;
  /// Planner estimate for this operator's output (-1 = not estimated);
  /// printed as `est=` next to the measured rows_out.
  double est_rows = -1;
  OperatorMetrics metrics;
  /// PhysicalOperator::MetricsDetail at collection time.
  std::string detail;
};

/// Flattens the operator tree (pre-order) into metrics entries.
std::vector<OperatorMetricsEntry> CollectMetrics(
    const PhysicalOperator& root);

/// Renders a metrics report as an indented ASCII table, one operator per
/// line:
///   window            rows_in=100000 rows_out=100000 ... open_ms=12.3
/// Times are reported in milliseconds with the child time included
/// (wall time is measured around the recursive Open/Next calls).
std::string FormatMetricsReport(
    const std::vector<OperatorMetricsEntry>& entries);

/// Per-instance plan *tree* rendering (box-drawing connectors), each
/// node annotated with its own metrics — the EXPLAIN ANALYZE view:
///   window             rows_in=100000 rows_out=100000 ...
///   └─ scan            rows_in=0      rows_out=100000 ...
/// Repeated operators (both scans of a self-join) keep their own rows.
std::string FormatMetricsTree(
    const std::vector<OperatorMetricsEntry>& entries);

/// Knobs for physical plan selection. The defaults give the engine its
/// best plans; benchmarks flip them to reproduce the paper's comparison
/// axes (e.g. Table 1 "self join without index" by disabling index
/// joins even when an index exists).
struct ExecOptions {
  bool enable_index_nested_loop_join = true;
  bool enable_hash_join = true;
  /// Streaming merge band join for `lo(s1) <= s2.key <= hi(s1)` hull
  /// (and stride/congruence) join predicates on an INTEGER right
  /// column — the execution strategy behind the paper's Fig. 2/10/13
  /// self-join patterns. Considered before the index nested-loop probe;
  /// falls through when the condition has no band shape.
  bool enable_merge_band_join = true;
  /// Ignored by the engine. Kept declared only because the warehouse
  /// benchmark (whbench/) still assigns it; it goes together with
  /// ExecuteToVector's second parameter.
  bool use_batch_execution = true;
  /// Drive vector-native operators (scan, filter, project, limit,
  /// union-all, the hash and merge band joins, sort, hash aggregate)
  /// through the columnar NextVector protocol: expressions evaluate in
  /// typed per-vector loops and filters narrow a SelectionVector instead
  /// of copying rows. Off = the row-at-a-time Volcano driver, kept alive
  /// as the differential-testing reference (the fuzz harness "vector"
  /// oracle replays every query with this knob off).
  bool use_vectorized_execution = true;
  /// Worker count for partition-parallel window evaluation: 1 = always
  /// single-threaded, n > 1 = split partitions across up to n tasks on
  /// the shared thread pool, 0 = auto (hardware concurrency). Results
  /// are byte-identical to the single-threaded path: partitions are
  /// never split across tasks and each task writes disjoint outputs.
  int window_workers = 0;
  /// Inputs smaller than this many rows always run single-threaded
  /// (task dispatch would dominate). Tests lower it to force the
  /// parallel path on small inputs.
  int64_t window_parallel_min_rows = 4096;
};

/// Lowers a logical plan to a physical operator tree. Join
/// implementation choice (merge band vs. index nested-loop vs. hash vs.
/// nested-loop) happens here; the join conditions are taken apart by
/// TryExtractBandJoin (exec/band_join.cc, the band spec of both
/// band-driven joins) and ExtractEquiKeys (exec/executor.cc, the hash
/// join's keys).
/// Expressions are cloned — the logical plan stays reusable.
Result<PhysicalOperatorPtr> BuildPhysicalPlan(const LogicalPlan& plan,
                                              const ExecOptions& options = {});

/// Runs an operator tree to completion. Roots stamped vectorized() are
/// drained through NextVector (counting projections in the
/// rfv_exec_vectors_total metric and materializing rows only at this
/// boundary), any other root through Next. The second parameter is
/// ignored; it stays declared only because the warehouse benchmark
/// (whbench/) still passes it.
Result<std::vector<Row>> ExecuteToVector(PhysicalOperator* op,
                                         bool /*ignored*/ = true);

/// Appends every remaining row of an already-open `child` to *out — the
/// input drain of the operators that buffer rows (window, the nested-loop
/// join's right side, the row-mode sort and hash join build): through
/// NextVector when the child is vectorized(), else through Next.
Status DrainChild(PhysicalOperator* child, std::vector<Row>* out);

/// Convenience: build + run.
Result<std::vector<Row>> ExecutePlan(const LogicalPlan& plan,
                                     const ExecOptions& options = {});

}  // namespace rfv

#endif  // RFVIEW_EXEC_EXECUTOR_H_
