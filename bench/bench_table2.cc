// Paper Table 2 — "Computing Sequence Data" (deriving sequence queries
// from a materialized sequence view).
//
// Scenario (paper §3.2/§7): materialized view x̃ = (2,1), incoming query
// ỹ = (3,1); n ∈ {100, 500, 1000, 1500, 2000, 3000, 5000}; primary-key
// index on the view's pos column. Four configurations:
//   MaxOA  × {disjunctive join predicate, union of simple-pred queries}
//   MinOA  × {disjunctive join predicate, union of simple-pred queries}
//
// Expected shape (paper): all four grow super-linearly on a pure
// relational engine; the disjunctive variant beats the union variant at
// small n; MaxOA vs. MinOA has no universal winner.

#include <benchmark/benchmark.h>

#include "json_reporter.h"

#include "workload.h"

namespace rfv {
namespace bench {
namespace {

constexpr const char* kQuery =
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
    "1 FOLLOWING) FROM seq";

void RunDerivation(benchmark::State& state, DerivationMethod method,
                   RewriteVariant variant) {
  const int64_t n = state.range(0);
  Database db;
  BuildSeqTable(&db, n, /*with_index=*/true);
  BuildSequenceView(&db, "matseq", /*l=*/2, /*h=*/1);
  db.options().force_method = method;
  db.options().rewrite_variant = variant;
  // One untimed run first, so the single timed iteration measures the
  // steady state, not a fresh database's first query (first snapshot
  // pin, first-touch allocations).
  MustExecute(&db, kQuery);
  for (auto _ : state) {
    const ResultSet rs = MustExecute(&db, kQuery);
    benchmark::DoNotOptimize(rs.NumRows());
    if (rs.rewrite_method().empty() ||
        rs.NumRows() != static_cast<size_t>(n)) {
      state.SkipWithError("rewrite did not apply");
      return;
    }
  }
  state.counters["rows"] = static_cast<double>(n);
}

void BM_Table2_MaxOA_Disjunctive(benchmark::State& state) {
  RunDerivation(state, DerivationMethod::kMaxoa,
                RewriteVariant::kDisjunctive);
}
void BM_Table2_MaxOA_Union(benchmark::State& state) {
  RunDerivation(state, DerivationMethod::kMaxoa, RewriteVariant::kUnion);
}
void BM_Table2_MinOA_Disjunctive(benchmark::State& state) {
  RunDerivation(state, DerivationMethod::kMinoa,
                RewriteVariant::kDisjunctive);
}
void BM_Table2_MinOA_Union(benchmark::State& state) {
  RunDerivation(state, DerivationMethod::kMinoa, RewriteVariant::kUnion);
}

void Table2Sizes(benchmark::internal::Benchmark* b) {
  for (const int64_t n : {100, 500, 1000, 1500, 2000, 3000, 5000}) {
    b->Arg(n);
  }
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_Table2_MaxOA_Disjunctive)->Apply(Table2Sizes);
BENCHMARK(BM_Table2_MaxOA_Union)->Apply(Table2Sizes);
BENCHMARK(BM_Table2_MinOA_Disjunctive)->Apply(Table2Sizes);
BENCHMARK(BM_Table2_MinOA_Union)->Apply(Table2Sizes);

}  // namespace
}  // namespace bench
}  // namespace rfv

BENCH_MAIN_WITH_JSON()
