// Paper Table 1 — "Computing Sequence Data".
//
// Query: SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1
// PRECEDING AND 1 FOLLOWING) FROM seq
//
// Four configurations per cardinality n ∈ {5000, 10000, 15000}:
//   * reporting functionality inside the engine (native window operator),
//     with and without a primary-key index (the operator ignores indexes,
//     so the two columns should coincide — exactly as in the paper),
//   * the Fig. 2 self-join simulation, with and without the index
//     (without: quadratic nested loops; with: index nested-loop join).
//     Each self-join column switches off the join strategies the engine
//     would prefer over the one it names (the merge band join, which
//     also folds the SUM, is considered first), so it measures that
//     strategy.
// A fifth series, the self join under the engine's defaults without an
// index (merge band join with the SUM fold), shows the gap to the
// paper's columns.
//
// Expected shape (paper): native ≈ linear and fastest; self join without
// index grows ~quadratically; self join with index ≈ linear with a small
// constant multiple of native.

// Set RFVIEW_TRACE=1 to run every query with lifecycle tracing enabled
// (measures the tracing overhead against the default untraced run).

#include <benchmark/benchmark.h>

#include "json_reporter.h"

#include <cstdlib>
#include <string>

#include "workload.h"

namespace rfv {
namespace bench {
namespace {

constexpr const char* kNativeQuery =
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND "
    "1 FOLLOWING) FROM seq";

constexpr const char* kSelfJoinQuery =
    "SELECT s1.pos AS pos, SUM(s2.val) AS val FROM seq s1, seq s2 WHERE "
    "s1.pos IN (s2.pos - 1, s2.pos, s2.pos + 1) GROUP BY s1.pos";

void RunQuery(benchmark::State& state, const char* tag, const char* query,
              bool with_index, bool allow_index_join,
              bool allow_band_join = true) {
  const int64_t n = state.range(0);
  Database db;
  BuildSeqTable(&db, n, with_index);
  db.options().exec.enable_index_nested_loop_join = allow_index_join;
  db.options().exec.enable_merge_band_join = allow_band_join;
  const char* trace_env = std::getenv("RFVIEW_TRACE");
  db.options().enable_tracing =
      trace_env != nullptr && std::string(trace_env) == "1";
  // The index columns run the query once untimed, so their iterations
  // measure the steady state: the CI smoke's short min_time times a
  // single iteration, and a fresh database's first query (first snapshot
  // pin, first-touch allocations) reads well above a warm one.
  if (with_index) MustExecute(&db, query);
  for (auto _ : state) {
    const ResultSet rs = MustExecute(&db, query);
    benchmark::DoNotOptimize(rs.NumRows());
    if (rs.NumRows() != static_cast<size_t>(n)) {
      state.SkipWithError("wrong result cardinality");
      return;
    }
    // Per-operator breakdown (scan/join/sort/aggregate/window rows and
    // wall times), printed once per benchmark cell.
    PrintOperatorMetrics(rs, std::string(tag) + "/" + std::to_string(n));
  }
  state.counters["rows"] = static_cast<double>(n);
}

void BM_Table1_ReportingFunction_NoIndex(benchmark::State& state) {
  RunQuery(state, "native_noindex", kNativeQuery, /*with_index=*/false,
           /*allow_index_join=*/false);
}

void BM_Table1_ReportingFunction_WithIndex(benchmark::State& state) {
  RunQuery(state, "native_index", kNativeQuery, /*with_index=*/true,
           /*allow_index_join=*/true);
}

// Nested-loop join.
void BM_Table1_SelfJoin_NoIndex(benchmark::State& state) {
  RunQuery(state, "selfjoin_noindex", kSelfJoinQuery, /*with_index=*/false,
           /*allow_index_join=*/false, /*allow_band_join=*/false);
}

// Index nested-loop join.
void BM_Table1_SelfJoin_WithIndex(benchmark::State& state) {
  RunQuery(state, "selfjoin_index", kSelfJoinQuery, /*with_index=*/true,
           /*allow_index_join=*/true, /*allow_band_join=*/false);
}

// Engine defaults, no index: merge band join folding the SUM.
void BM_Table1_SelfJoin_EngineDefault(benchmark::State& state) {
  RunQuery(state, "selfjoin_default", kSelfJoinQuery, /*with_index=*/false,
           /*allow_index_join=*/true);
}

// The paper's cardinalities. The no-index self join is quadratic; run a
// single iteration per cell.
BENCHMARK(BM_Table1_ReportingFunction_NoIndex)
    ->Arg(5000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table1_ReportingFunction_WithIndex)
    ->Arg(5000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table1_SelfJoin_NoIndex)
    ->Arg(5000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Table1_SelfJoin_WithIndex)
    ->Arg(5000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Table1_SelfJoin_EngineDefault)
    ->Arg(5000)->Arg(10000)->Arg(15000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace rfv

BENCH_MAIN_WITH_JSON()
