#ifndef RFVIEW_BENCH_WORKLOAD_H_
#define RFVIEW_BENCH_WORKLOAD_H_

#include <string>

#include "db/database.h"

namespace rfv {
namespace bench {

/// Builds the paper's synthetic sequence table `seq(pos INTEGER, val
/// DOUBLE)` with dense positions 1..n and deterministic pseudo-random
/// values, loading rows through the storage API (benchmark setup must
/// not be dominated by INSERT parsing). `with_index` creates the ordered
/// index on pos — the paper's "with primary key index" configuration —
/// built on return, so no query pays for an index rebuild.
void BuildSeqTable(Database* db, int64_t n, bool with_index,
                   const std::string& name = "seq");

/// Materializes the complete sequence view used by the Table 2
/// experiments: SUM(val) OVER (ORDER BY pos ROWS BETWEEN l PRECEDING AND
/// h FOLLOWING) with header/trailer and a pos index.
void BuildSequenceView(Database* db, const std::string& view_name, int64_t l,
                       int64_t h, const std::string& base = "seq");

/// Builds a multi-partition sequence table `name(grp INTEGER, pos
/// INTEGER, val DOUBLE)`: `partitions` groups of `rows_per_partition`
/// dense positions each, deterministic pseudo-random values. The
/// workload of BM_WindowOp_Partitioned.
void BuildPartitionedSeqTable(Database* db, int64_t partitions,
                              int64_t rows_per_partition,
                              const std::string& name = "pseq");

/// Runs one SQL statement, aborting on error (benchmark misconfiguration
/// must be loud).
ResultSet MustExecute(Database* db, const std::string& sql);

/// Dumps a result's per-operator metrics report to stderr under `tag`
/// (once per distinct tag — benchmarks call this every iteration).
void PrintOperatorMetrics(const ResultSet& rs, const std::string& tag);

}  // namespace bench
}  // namespace rfv

#endif  // RFVIEW_BENCH_WORKLOAD_H_
