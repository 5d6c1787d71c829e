// Ablation A5 — join strategy comparison on the engine substrate: the
// same equi self join executed as nested loops, hash join and index
// nested-loop join. Explains where Table 1/2's
// "with index" numbers come from and what DB2's buffer-backed plans
// correspond to in this engine.

#include <benchmark/benchmark.h>

#include "json_reporter.h"
#include "workload.h"

namespace rfv {
namespace bench {
namespace {

constexpr const char* kEquiJoin =
    "SELECT s1.pos AS pos, SUM(s2.val) AS val FROM seq s1, seq s2 WHERE "
    "s1.pos = s2.pos GROUP BY s1.pos";

void RunJoin(benchmark::State& state, bool hash, bool inlj) {
  Database db;
  BuildSeqTable(&db, state.range(0), /*with_index=*/inlj);
  db.options().exec.enable_hash_join = hash;
  db.options().exec.enable_index_nested_loop_join = inlj;
  for (auto _ : state) {
    const ResultSet rs = MustExecute(&db, kEquiJoin);
    benchmark::DoNotOptimize(rs.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Join_NestedLoop(benchmark::State& state) {
  RunJoin(state, false, false);
}
void BM_Join_Hash(benchmark::State& state) {
  RunJoin(state, true, false);
}
void BM_Join_IndexNestedLoop(benchmark::State& state) {
  RunJoin(state, false, true);
}

BENCHMARK(BM_Join_NestedLoop)
    ->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Join_Hash)
    ->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_IndexNestedLoop)
    ->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

// Band self join — the shape every Fig. 2/10/13 rewrite emits. The
// merge band join sorts once and walks a monotone cursor (O(n +
// matches)); the index nested loop runs the same band spec as one
// ordered-index range probe per left row; the nested loop sweeps all
// pairs.
constexpr const char* kBandJoin =
    "SELECT s1.pos AS pos, SUM(s2.val) AS val FROM seq s1, seq s2 WHERE "
    "s2.pos >= s1.pos - 8 AND s2.pos <= s1.pos + 8 GROUP BY s1.pos";

void RunBandJoin(benchmark::State& state, bool band, bool inlj) {
  Database db;
  BuildSeqTable(&db, state.range(0), /*with_index=*/inlj);
  db.options().exec.enable_merge_band_join = band;
  db.options().exec.enable_index_nested_loop_join = inlj;
  for (auto _ : state) {
    const ResultSet rs = MustExecute(&db, kBandJoin);
    benchmark::DoNotOptimize(rs.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BandJoin_NestedLoop(benchmark::State& state) {
  RunBandJoin(state, false, false);
}
void BM_BandJoin_IndexNestedLoop(benchmark::State& state) {
  RunBandJoin(state, false, true);
}
void BM_BandJoin_Merge(benchmark::State& state) {
  RunBandJoin(state, true, false);
}

BENCHMARK(BM_BandJoin_NestedLoop)
    ->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_BandJoin_IndexNestedLoop)
    ->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BandJoin_Merge)
    ->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace rfv

BENCH_MAIN_WITH_JSON()
