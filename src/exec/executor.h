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
/// Cheap enough to keep always-on: two steady_clock reads per
/// NextVector.
struct OperatorMetrics {
  int64_t rows_out = 0;    ///< selected rows produced through NextVector
  int64_t next_calls = 0;  ///< NextVector calls, incl. the EOF call
  /// Non-empty vectors produced (NextVector results): EXPLAIN ANALYZE's
  /// `vectors=`, so rows_out / vectors_out is the mean vector fill.
  int64_t vectors_out = 0;
  int64_t open_ns = 0;     ///< wall time inside Open (incl. children)
  int64_t next_ns = 0;     ///< cumulative wall time inside NextVector (ditto)
  /// High-water mark of rows materialized by this operator (sort
  /// buffers, hash tables, window/join materializations); 0 for
  /// streaming operators.
  int64_t peak_buffered_rows = 0;

  void Reset() { *this = OperatorMetrics(); }
};

/// Pull-based (Volcano-style) physical operator with one, columnar, pull
/// protocol. Lifecycle: Open() once, then NextVector() until *eof, each
/// call handing out a VectorProjection of up to kVectorSize rows;
/// destructor releases state.
///
/// Open/NextVector are non-virtual shells that maintain OperatorMetrics
/// around the operator's body, OpenImpl/NextVectorImpl. Every operator
/// produces vectors; the row-at-a-time ones (the window, the two
/// nested-loop joins) buffer or build Rows internally and write them
/// into the lanes of their own output projection. White-box users
/// (tests, the executor driver) call the shells.
class PhysicalOperator {
 public:
  explicit PhysicalOperator(Schema schema) : schema_(std::move(schema)) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  Status Open() {
    metrics_.Reset();
    exhausted_ = false;
    const auto start = std::chrono::steady_clock::now();
    Status status = OpenImpl();
    metrics_.open_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
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
    Status status = PullVector(out);
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

  /// The operator's body. Looser than NextVector: *out may be null or
  /// have an empty selection, and *eof = true may come with rows (the
  /// shell passes them on and reports eof on the following call). It is
  /// never called again once it has reported eof.
  virtual Status NextVectorImpl(VectorProjection** out, bool* eof) = 0;

  /// Raises the buffered-rows high-water mark (materializing operators
  /// call this after filling their buffers).
  void NoteBufferedRows(size_t n) {
    if (static_cast<int64_t>(n) > metrics_.peak_buffered_rows) {
      metrics_.peak_buffered_rows = static_cast<int64_t>(n);
    }
  }

  Schema schema_;

 private:
  /// NextVectorImpl until it yields a selected row or reports eof (then
  /// *out = nullptr).
  Status PullVector(VectorProjection** out);

  OperatorMetrics metrics_;
  double estimated_rows_ = -1;
  /// Set once the body reported eof; NextVector never re-enters it after.
  bool exhausted_ = false;
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
/// (wall time is measured around the recursive Open/NextVector calls).
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
  /// Ignored by the engine, as is use_vectorized_execution. Both stay
  /// declared only because the warehouse benchmark (whbench/) still
  /// assigns them; they go together with ExecuteToVector's second
  /// parameter.
  bool use_batch_execution = true;
  bool use_vectorized_execution = true;
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

/// Runs an operator tree to completion: drains the root through
/// NextVector, counting its projections in the rfv_exec_vectors_total
/// metric and materializing rows only at this boundary. The second
/// parameter is ignored; it stays declared only because the warehouse
/// benchmark (whbench/) still passes it.
Result<std::vector<Row>> ExecuteToVector(PhysicalOperator* op,
                                         bool /*ignored*/ = true);

/// Appends every remaining selected row of an already-open `child` to
/// *out, pulled through NextVector — the input drain of the operators
/// that buffer rows (window, the nested-loop join's right side).
Status DrainChild(PhysicalOperator* child, std::vector<Row>* out);

/// Convenience: build + run.
Result<std::vector<Row>> ExecutePlan(const LogicalPlan& plan,
                                     const ExecOptions& options = {});

}  // namespace rfv

#endif  // RFVIEW_EXEC_EXECUTOR_H_
