// Ablation A4 — end-to-end rewriter: answering a reporting-function
// query through the full SQL stack (parse → rewrite → plan → execute)
// from a materialized view (direct hit and cumulative-diff derivation)
// vs. computing from base data with the native window operator. Direct
// hits should win for large n (the paper's motivation for materializing
// sequence views); pattern-based derivations pay join costs.

#include <benchmark/benchmark.h>

#include "workload.h"

namespace rfv {
namespace bench {
namespace {

constexpr const char* kQuery =
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND "
    "1 FOLLOWING) FROM seq";

void BM_Rewrite_NativeFromBase(benchmark::State& state) {
  Database db;
  BuildSeqTable(&db, state.range(0), /*with_index=*/true);
  db.options().enable_view_rewrite = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustExecute(&db, kQuery).NumRows());
  }
}

void BM_Rewrite_DirectViewHit(benchmark::State& state) {
  Database db;
  BuildSeqTable(&db, state.range(0), /*with_index=*/true);
  BuildSequenceView(&db, "matseq", 2, 1);
  for (auto _ : state) {
    const ResultSet rs = MustExecute(&db, kQuery);
    if (rs.rewrite_method() != "direct") {
      state.SkipWithError("expected direct rewrite");
      return;
    }
    benchmark::DoNotOptimize(rs.NumRows());
  }
}

void BM_Rewrite_CumulativeDiff(benchmark::State& state) {
  Database db;
  BuildSeqTable(&db, state.range(0), /*with_index=*/true);
  SequenceViewDef def;
  def.view_name = "cumview";
  def.base_table = "seq";
  def.value_column = "val";
  def.order_column = "pos";
  def.fn = SeqAggFn::kSum;
  def.window = WindowSpec::Cumulative();
  if (!db.view_manager()->CreateSequenceView(def).ok()) {
    state.SkipWithError("view creation failed");
    return;
  }
  for (auto _ : state) {
    const ResultSet rs = MustExecute(&db, kQuery);
    if (rs.rewrite_method() != "cumulative-diff") {
      state.SkipWithError("expected cumulative-diff rewrite");
      return;
    }
    benchmark::DoNotOptimize(rs.NumRows());
  }
}

void BM_Rewrite_ParseAndPlanOnly(benchmark::State& state) {
  // The rewrite decision itself (no execution): EXPLAIN parses, runs
  // the rewriter, then binds, optimizes and estimates the plan — the
  // overhead the rewriter and planner add to every incoming query.
  Database db;
  BuildSeqTable(&db, 100, /*with_index=*/true);
  BuildSequenceView(&db, "matseq", 2, 1);
  const std::string explain = std::string("EXPLAIN ") + kQuery;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustExecute(&db, explain).NumRows());
  }
}

BENCHMARK(BM_Rewrite_NativeFromBase)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rewrite_DirectViewHit)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rewrite_CumulativeDiff)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rewrite_ParseAndPlanOnly)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace rfv
