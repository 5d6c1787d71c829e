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
#include "exec/batch.h"
#include "exec/vector.h"
#include "plan/logical_plan.h"

namespace rfv {

/// Per-operator execution counters, maintained by the PhysicalOperator
/// base class (wall times, row/call counts) and by the operators
/// themselves (peak buffered rows, reported by the materializing ones).
/// Cheap enough to keep always-on: two steady_clock reads per Next.
struct OperatorMetrics {
  int64_t rows_out = 0;    ///< rows produced through Next/NextBatch/NextVector
  int64_t next_calls = 0;  ///< pull invocations, incl. the EOF call
  /// NextBatch calls that produced rows; NextVector calls that produced a
  /// projection with a non-empty selection count here too.
  int64_t batches_out = 0;
  /// NextVector calls that produced a non-empty projection — the
  /// vector-only slice of batches_out, so EXPLAIN ANALYZE shows which
  /// operators actually ran columnar (a vectorized join emitting
  /// vectors=N, batches=N; a transpose-fallback operator still counts
  /// here because it *answers* NextVector, but its children's zero stays
  /// zero under a batch drain).
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
/// Open() once, then one of the three pull styles until *eof — Next()
/// (row-at-a-time), NextBatch() (RowBatch-at-a-time) or NextVector()
/// (columnar VectorProjection); destructor releases state. A driver
/// picks ONE pull style per operator instance and sticks with it —
/// interleaving them on the same operator is undefined.
///
/// Open/Next/NextBatch/NextVector are non-virtual shells that maintain
/// OperatorMetrics and delegate to the *Impl overrides; white-box users
/// (tests, the executor driver) keep calling the shells as before.
/// NextBatchImpl has a default row-loop fallback and NextVectorImpl a
/// default transpose-a-batch fallback, so operators without native
/// implementations work unchanged under any driver.
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

  /// Produces the next row into *row, or sets *eof = true (row left
  /// untouched) when the stream is exhausted.
  Status Next(Row* row, bool* eof) {
    const auto start = std::chrono::steady_clock::now();
    Status status = NextImpl(row, eof);
    metrics_.next_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ++metrics_.next_calls;
    if (status.ok() && !*eof) ++metrics_.rows_out;
    return status;
  }

  /// Produces up to batch->capacity() rows into *batch (cleared first).
  ///
  /// EOF contract (this is THE batch-protocol contract; every consumer
  /// must honor it):
  ///  - *eof = true means the stream is exhausted, and the SAME call may
  ///    also have produced rows: LimitOp reports eof together with the
  ///    batch that reached the limit, UnionAllOp together with the last
  ///    child's final batch, TableScanOp together with the final chunk.
  ///    Consumers therefore drain the batch FIRST and test eof second;
  ///    treating eof as "no data" silently drops the final batch.
  ///  - *eof = false with an empty batch is legal (operators usually
  ///    loop internally, but consumers must not treat empty as done).
  ///  - Calling again after eof is safe and yields an empty eof batch
  ///    (the shell's `exhausted_` latch guarantees this even for
  ///    operators whose Impl would misbehave on re-entry).
  Status NextBatch(RowBatch* batch, bool* eof) {
    batch->Clear();
    if (exhausted_) {
      *eof = true;
      ++metrics_.next_calls;
      return Status::OK();
    }
    const auto start = std::chrono::steady_clock::now();
    *eof = false;
    Status status = NextBatchImpl(batch, eof);
    metrics_.next_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ++metrics_.next_calls;
    if (status.ok()) {
      metrics_.rows_out += static_cast<int64_t>(batch->size());
      if (!batch->empty()) ++metrics_.batches_out;
      if (*eof) exhausted_ = true;
    }
    return status;
  }

  /// Columnar pull: points *out at the producer-owned VectorProjection
  /// holding the next vector of rows, or at nullptr when this call
  /// produced nothing. The projection stays valid until the next
  /// NextVector call on this operator. Consumers may narrow the
  /// projection's SelectionVector in place (that is the zero-copy filter
  /// protocol) but must not touch the column data.
  ///
  /// EOF contract — same shape as NextBatch: *eof = true may accompany a
  /// non-empty projection (drain first, test eof second); an empty or
  /// null projection with *eof = false is legal; calls after eof are
  /// safe and yield *out = nullptr with *eof = true.
  Status NextVector(VectorProjection** out, bool* eof) {
    *out = nullptr;
    if (exhausted_) {
      *eof = true;
      ++metrics_.next_calls;
      return Status::OK();
    }
    const auto start = std::chrono::steady_clock::now();
    *eof = false;
    Status status = NextVectorImpl(out, eof);
    metrics_.next_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ++metrics_.next_calls;
    if (status.ok()) {
      const size_t produced = (*out != nullptr) ? (*out)->NumSelected() : 0;
      metrics_.rows_out += static_cast<int64_t>(produced);
      if (produced > 0) {
        ++metrics_.batches_out;
        ++metrics_.vectors_out;
      }
      if (*eof) exhausted_ = true;
    }
    return status;
  }

  /// True when this operator implements NextVectorImpl natively (columns
  /// + selection vector all the way down). Operators without a native
  /// implementation still answer NextVector through the transpose
  /// fallback, but the planner only marks natively-columnar subtrees as
  /// vectorized() so blocking operators keep their tuned batch drains.
  virtual bool VectorNative() const { return false; }

  /// Whether the executor driver should pull this operator through
  /// NextVector. Stamped by BuildPhysicalPlan as `options.exec.
  /// use_vectorized_execution && VectorNative()`; consumers (root drain,
  /// DrainChild, aggregation ingest) dispatch on it, and the
  /// materializing vector-native operators (sort, hash aggregate, the
  /// hash and band joins) choose their columnar or row code on it at
  /// Open. A row-only child still answers their NextVector pulls
  /// through the transpose fallback.
  void SetVectorized(bool v) { vectorized_ = v; }
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
  virtual Status NextImpl(Row* row, bool* eof) = 0;

  /// Default batch production: a tight row loop over NextImpl (NOT the
  /// Next shell — the shell's clock reads and counters must not be paid
  /// twice). Rows are produced directly into the batch's retained slots
  /// (NextSlot/CommitSlot) instead of through a fresh stack Row per
  /// iteration, so the transpose-fallback pipeline reuses its row
  /// storage across NextBatch/NextVector calls. Batch-native operators
  /// override this and typically pull their child through NextBatch.
  virtual Status NextBatchImpl(RowBatch* batch, bool* eof) {
    while (!batch->full()) {
      Row* slot = batch->NextSlot();
      bool row_eof = false;
      RFV_RETURN_IF_ERROR(NextImpl(slot, &row_eof));
      if (row_eof) {
        *eof = true;
        return Status::OK();
      }
      batch->CommitSlot();
    }
    return Status::OK();
  }

  /// Default vector production: run NextBatchImpl into an operator-owned
  /// RowBatch and transpose it — the adapter that lets row/batch-only
  /// operators (window; the nested-loop, index nested-loop and
  /// sort-merge joins) serve a vectorized consumer.
  /// Vector-native operators override this with true columnar pipelines.
  virtual Status NextVectorImpl(VectorProjection** out, bool* eof) {
    fallback_batch_.Clear();
    RFV_RETURN_IF_ERROR(NextBatchImpl(&fallback_batch_, eof));
    fallback_vp_.FromBatch(schema_.NumColumns(), fallback_batch_);
    *out = &fallback_vp_;
    return Status::OK();
  }

  /// Raises the buffered-rows high-water mark (materializing operators
  /// call this after filling their buffers).
  void NoteBufferedRows(size_t n) {
    if (static_cast<int64_t>(n) > metrics_.peak_buffered_rows) {
      metrics_.peak_buffered_rows = static_cast<int64_t>(n);
    }
  }

  Schema schema_;

 private:
  OperatorMetrics metrics_;
  double estimated_rows_ = -1;
  /// Set once NextBatch/NextVector reports eof; guards re-entry into the
  /// Impl after exhaustion (the protocol allows a non-empty final
  /// batch/vector, so drivers may legally call once more).
  bool exhausted_ = false;
  bool vectorized_ = false;
  /// Scratch for the default NextVectorImpl transpose fallback.
  RowBatch fallback_batch_;
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

/// By-name rollup of a metrics report: one line per operator *name* with
/// summed counters and an instance count. Merges the two scans of a
/// self-join into one row — useful as a summary, misleading as a plan
/// view; pair it with FormatMetricsTree for per-instance attribution.
std::string FormatMetricsRollup(
    const std::vector<OperatorMetricsEntry>& entries);

/// Per-instance plan *tree* rendering (box-drawing connectors), each
/// node annotated with its own metrics — the EXPLAIN ANALYZE view:
///   window             rows_in=100000 rows_out=100000 ...
///   └─ scan            rows_in=0      rows_out=100000 ...
/// Unlike the rollup, repeated operators (both scans of a self-join)
/// keep their own rows.
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
  /// Drive query execution batch-at-a-time (RowBatch, ~1024 rows) to
  /// amortize per-row virtual dispatch and metric clock reads. Off =
  /// the row-at-a-time Volcano driver; results are identical (the fuzz
  /// harness diffs the two paths).
  bool use_batch_execution = true;
  /// Drive vector-native operators (scan, filter, project, limit,
  /// union-all, the hash and merge band joins, sort, hash aggregate)
  /// through the columnar NextVector protocol: expressions evaluate in
  /// typed per-vector loops and filters narrow a SelectionVector instead
  /// of copying rows. Takes precedence over use_batch_execution for the
  /// subtrees it covers; non-native operators keep their row/batch
  /// drains. Off = the RowBatch and row paths, kept alive as
  /// differential-testing fallbacks (the fuzz harness "batch" and
  /// "vector" oracles replay every query with this knob off).
  bool use_vectorized_execution = true;
  /// Sort-merge join for equi joins; consulted when the hash join is
  /// disabled or skipped (hash is the default equi strategy).
  bool enable_sort_merge_join = false;
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
/// implementation choice (index nested-loop vs. hash vs. nested-loop)
/// happens here; see exec/join.cc for the probe-condition extraction.
/// Expressions are cloned — the logical plan stays reusable.
Result<PhysicalOperatorPtr> BuildPhysicalPlan(const LogicalPlan& plan,
                                              const ExecOptions& options = {});

/// Runs an operator tree to completion. Roots stamped vectorized() are
/// drained through NextVector (counting projections in the
/// rfv_exec_vectors_total metric and materializing rows only at this
/// boundary); otherwise `use_batches` selects the pull style: true
/// drains through NextBatch (rfv_exec_batches_total), false through
/// Next.
Result<std::vector<Row>> ExecuteToVector(PhysicalOperator* op,
                                         bool use_batches = true);

/// Appends every remaining row of an already-open `child` to *out — the
/// shared input drain of the materializing operators (sort, window,
/// join build sides), so their children run batch-at-a-time (or, when
/// the child is stamped vectorized(), columnar) even under a
/// row-at-a-time root. Honors the NextBatch/NextVector EOF contract:
/// the final batch/vector is drained before eof is acted on.
Status DrainChild(PhysicalOperator* child, std::vector<Row>* out);

/// Convenience: build + run.
Result<std::vector<Row>> ExecutePlan(const LogicalPlan& plan,
                                     const ExecOptions& options = {});

}  // namespace rfv

#endif  // RFVIEW_EXEC_EXECUTOR_H_
