// The traced run's instruments: in-memory spans recorded around each
// public call the benchmark makes into an engine layer, the counts taken
// at the same boundaries, and a replay of Database::ExecuteSelect's
// pipeline through those public calls.

#ifndef WHBENCH_LAYERS_H_
#define WHBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "harness.h"

namespace whbench {

/// Span names: one per layer boundary the benchmark crosses.
enum class Layer : uint8_t {
  kStatement,  ///< root: one client statement
  kParser,     ///< Parser::ParseStatement (the original or the rewritten SQL)
  kRewrite,    ///< Rewriter::TryRewrite (cost model included)
  kBind,       ///< Binder::BindSelect
  kOptimize,   ///< OptimizePlan + EstimateCardinality
  kBuild,      ///< BuildPhysicalPlan
  kRun,        ///< ExecuteToVector
  kDml,        ///< Session::Execute of a SQL DML statement
  kMaintain,   ///< PropagateBaseUpdate
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  int64_t stmt = 0;    ///< statement id, shared by the spans of one statement
  int32_t parent = -1; ///< index of the causing span in the same log
  Layer layer = Layer::kStatement;
  int64_t start_ns = 0;  ///< since the log's epoch
  int64_t end_ns = 0;
};

/// One client's spans, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span now; returns its index for Close and as a parent.
  int Open(int64_t stmt, Layer layer, int parent);
  void Close(int index);
  /// Records an already-measured span.
  void Add(int64_t stmt, Layer layer, int parent, Clock::time_point start,
           Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Since(Clock::time_point t) const { return ElapsedNs(epoch_, t); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Per-operator totals harvested from the executed plan's metrics.
struct OperatorTotals {
  int64_t self_ns = 0;  ///< inclusive time minus the children's
  int64_t rows_out = 0;
};

/// Counts the traced run takes at the same boundaries as its spans.
struct LayerCounts {
  int64_t selects = 0;
  int64_t parses = 0;
  int64_t recognizable = 0;  ///< window queries the rewriter recognized
  int64_t rewrites = 0;
  int64_t candidates = 0;
  int64_t sql_bytes = 0;
  double qerror_max = 1;
  int64_t scan_rows = 0;
  int64_t result_rows = 0;
  std::map<std::string, OperatorTotals> operators;
  int64_t dml = 0;
  int64_t dml_minus_parse_ns = 0;
  int64_t maintains = 0;
  int64_t maintain_rows = 0;

  void Merge(const LayerCounts& other);
};

/// Wall time of each stage of one replayed SELECT.
struct SelectStages {
  int64_t reparse_ns = 0;
  int64_t bind_ns = 0;
  int64_t optimize_ns = 0;
  int64_t build_ns = 0;
  int64_t run_ns = 0;
  bool rewritten = false;
  /// Time of the path the statement took after the rewrite decision.
  int64_t path_ns() const {
    return reparse_ns + bind_ns + optimize_ns + build_ns + run_ns;
  }
};

/// Runs `sql` through the public calls Database::ExecuteSelect makes —
/// parse, TryRewrite, re-parse of the pattern SQL, BindSelect,
/// OptimizePlan + EstimateCardinality, BuildPhysicalPlan, ExecuteToVector
/// — under `options`. Spans go to `spans` (under `parent`) and counts to
/// `counts` when those are non-null.
rfv::Result<rfv::ResultSet> ReplaySelect(rfv::Database* db,
                                         const rfv::Database::Options& options,
                                         const std::string& sql,
                                         SelectStages* stages, SpanLog* spans,
                                         int64_t stmt, int parent,
                                         LayerCounts* counts);

/// PropagateBaseUpdate for a kMaintain op, bracketed in Table::WriteGuard
/// on the base and content tables (the call has no statement bracket of
/// its own). Returns the view rows written. The call is recorded as a
/// kMaintain span when `spans` is non-null.
rfv::Result<size_t> Maintain(rfv::Database* db, const Op& op,
                             SpanLog* spans = nullptr, int64_t stmt = 0,
                             int parent = -1);

/// Sum of self time (duration minus the child spans' durations) per
/// layer over `spans`, indexed by Layer.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace whbench

#endif  // WHBENCH_LAYERS_H_
