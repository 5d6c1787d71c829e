// Ablation A1 — the paper's §2.2 claim: the pipelined recursion
//   x̃_k = x̃_{k-1} + x_{k+h} − x_{k-l-1}
// performs 3 operations per position independent of the window size,
// while the naive explicit form performs w+1. Sweep the window size at
// fixed n and watch the naive curve grow linearly in w while the
// pipelined curve stays flat.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "json_reporter.h"
#include "sequence/compute.h"
#include "workload.h"

namespace rfv {
namespace {

std::vector<SeqValue> MakeData(int64_t n) {
  std::vector<SeqValue> x(static_cast<size_t>(n));
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& v : x) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    v = static_cast<double>(state % 1000);
  }
  return x;
}

constexpr int64_t kN = 100000;

void BM_Compute_Naive(benchmark::State& state) {
  const int64_t half = state.range(0) / 2;
  const WindowSpec spec = WindowSpec::SlidingUnchecked(half, half + 1);
  const std::vector<SeqValue> x = MakeData(kN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSlidingNaive(x, spec));
  }
  state.counters["w"] = static_cast<double>(spec.size());
}

void BM_Compute_Pipelined(benchmark::State& state) {
  const int64_t half = state.range(0) / 2;
  const WindowSpec spec = WindowSpec::SlidingUnchecked(half, half + 1);
  const std::vector<SeqValue> x = MakeData(kN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSlidingPipelined(x, spec));
  }
  state.counters["w"] = static_cast<double>(spec.size());
}

void BM_Compute_MinMaxDeque(benchmark::State& state) {
  const int64_t half = state.range(0) / 2;
  const WindowSpec spec = WindowSpec::SlidingUnchecked(half, half + 1);
  const std::vector<SeqValue> x = MakeData(kN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSlidingMinMax(x, spec, true));
  }
  state.counters["w"] = static_cast<double>(spec.size());
}

void BM_Compute_BuildCompleteSequence(benchmark::State& state) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 1);
  const std::vector<SeqValue> x = MakeData(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildCompleteSequence(x, spec, SeqAggFn::kSum));
  }
}

// The engine's window operator on the same sliding-SUM idea, expressed
// as a PARTITION BY window query over 64 partitions x 2048 rows; the
// per-operator metrics breakdown is dumped to stderr once.
void BM_WindowOp_Partitioned(benchmark::State& state) {
  Database db;
  bench::BuildPartitionedSeqTable(&db, /*partitions=*/64,
                                  /*rows_per_partition=*/2048);
  const char* query =
      "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS "
      "BETWEEN 50 PRECEDING AND 50 FOLLOWING) FROM pseq ORDER BY grp, pos";
  for (auto _ : state) {
    const ResultSet rs = bench::MustExecute(&db, query);
    benchmark::DoNotOptimize(rs.NumRows());
    if (rs.NumRows() != 64u * 2048u) {
      state.SkipWithError("wrong result cardinality");
      return;
    }
    bench::PrintOperatorMetrics(rs, "window_partitioned");
  }
}

BENCHMARK(BM_Compute_Naive)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(64)->Arg(128)->Arg(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compute_Pipelined)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(64)->Arg(128)->Arg(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compute_MinMaxDeque)
    ->Arg(2)->Arg(32)->Arg(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compute_BuildCompleteSequence)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WindowOp_Partitioned)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rfv

BENCH_MAIN_WITH_JSON()
