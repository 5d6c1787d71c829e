// Ablation A3 — in-memory derivation algorithms compared: MaxOA
// (recursive and explicit forms) vs. MinOA vs. recomputing the query
// window from reconstructed raw data vs. computing directly from raw
// data. The paper's §7 conclusion: MinOA is theoretically leaner, MaxOA
// broader (MIN/MAX); neither dominates.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "json_reporter.h"
#include "sequence/compute.h"
#include "sequence/maxoa.h"
#include "sequence/minoa.h"

namespace rfv {
namespace {

std::vector<SeqValue> MakeData(int64_t n) {
  std::vector<SeqValue> x(static_cast<size_t>(n));
  uint64_t state = 0x2545f4914f6cdd1dull;
  for (auto& v : x) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    v = static_cast<double>(state % 1000);
  }
  return x;
}

const WindowSpec kView = WindowSpec::SlidingUnchecked(2, 1);
const WindowSpec kQuery = WindowSpec::SlidingUnchecked(3, 1);

void BM_Derive_MaxoaRecursive(benchmark::State& state) {
  const std::vector<SeqValue> x = MakeData(state.range(0));
  const Sequence view = BuildCompleteSequence(x, kView, SeqAggFn::kSum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveMaxoaRecursive(view, kQuery));
  }
}

void BM_Derive_MaxoaExplicit(benchmark::State& state) {
  const std::vector<SeqValue> x = MakeData(state.range(0));
  const Sequence view = BuildCompleteSequence(x, kView, SeqAggFn::kSum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveMaxoaExplicit(view, kQuery));
  }
}

void BM_Derive_Minoa(benchmark::State& state) {
  const std::vector<SeqValue> x = MakeData(state.range(0));
  const Sequence view = BuildCompleteSequence(x, kView, SeqAggFn::kSum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveMinoa(view, kQuery));
  }
}

void BM_Derive_ReconstructThenRecompute(benchmark::State& state) {
  const std::vector<SeqValue> x = MakeData(state.range(0));
  const Sequence view = BuildCompleteSequence(x, kView, SeqAggFn::kSum);
  for (auto _ : state) {
    Result<std::vector<SeqValue>> raw = RawFromSlidingLinear(view);
    benchmark::DoNotOptimize(
        ComputeSlidingPipelined(raw.value(), kQuery));
  }
}

void BM_Derive_DirectFromRaw(benchmark::State& state) {
  const std::vector<SeqValue> x = MakeData(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSlidingPipelined(x, kQuery));
  }
}

// The recursive form and raw reconstruction are O(n); the explicit
// forms evaluate per-position telescoping chains of length Θ(k/w_x) and
// are therefore Θ(n²/w_x) in memory — exactly the work profile their
// relational mappings (Fig. 10/13) exhibit in Table 2. Cap the explicit
// forms at 30k to keep the suite's runtime bounded.
#define DERIVE_SIZES_LINEAR Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
#define DERIVE_SIZES_QUADRATIC Arg(1000)->Arg(10000)->Arg(30000)
BENCHMARK(BM_Derive_MaxoaRecursive)->DERIVE_SIZES_LINEAR;
BENCHMARK(BM_Derive_MaxoaExplicit)->DERIVE_SIZES_QUADRATIC;
BENCHMARK(BM_Derive_Minoa)->DERIVE_SIZES_QUADRATIC;
BENCHMARK(BM_Derive_ReconstructThenRecompute)->DERIVE_SIZES_LINEAR;
BENCHMARK(BM_Derive_DirectFromRaw)->DERIVE_SIZES_LINEAR;

// Chain length is Θ(k/w_x) — it shrinks as the *view* window widens.
// Sweep the view half-width at n = 30k with a query one row wider.
void BM_Derive_MinoaViewWidth(benchmark::State& state) {
  const std::vector<SeqValue> x = MakeData(30000);
  const int64_t half = state.range(0);
  const WindowSpec view_spec = WindowSpec::SlidingUnchecked(half, half);
  const WindowSpec query =
      WindowSpec::SlidingUnchecked(half + 1, half + 1);
  const Sequence view = BuildCompleteSequence(x, view_spec, SeqAggFn::kSum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveMinoa(view, query));
  }
  state.counters["wx"] = static_cast<double>(view_spec.size());
}
BENCHMARK(BM_Derive_MinoaViewWidth)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------
// SQL-level frame-overlap sweep: the full stack (rewriter + cost model +
// pattern SQL + executor) answering a widened window query from a
// materialized view, with the derivation method chosen by the cost
// model vs. forced. The MaxOA disjunction carries 1 + 2·(active sides)
// congruence branches against MinOA's 2 (1 in the coincident class),
// and every branch is swept over all n·m join pairs — so the per-config
// winner tracks the branch count, which is what the cost model prices.
// Configs (view_l, view_h, query_l, query_h) at n = 2000:
//   * both-sided growth  (40,40)→(44,44): MaxOA 5 branches vs MinOA 2
//   * one-sided growth   (40, 0)→(44, 0): MaxOA 3 branches vs MinOA 2
//   * coincident class   (40,40)→(121,41): Δl+Δh = w_x → MinOA 1 branch
// ---------------------------------------------------------------------

struct SqlSweepConfig {
  int64_t view_l, view_h, query_l, query_h;
};

const SqlSweepConfig kSweepConfigs[] = {
    {40, 40, 44, 44},
    {40, 0, 44, 0},
    {40, 40, 121, 41},
};

std::unique_ptr<Database> MakeSweepDb(const SqlSweepConfig& config,
                                      int64_t n) {
  auto db = std::make_unique<Database>();
  std::string ddl = "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)";
  if (!db->Execute(ddl).ok()) return nullptr;
  std::string insert = "INSERT INTO seq VALUES ";
  for (int64_t i = 1; i <= n; ++i) {
    if (i > 1) insert += ",";
    insert += "(" + std::to_string(i) + "," +
              std::to_string((i * 37 + 11) % 101 - 23) + ")";
  }
  if (!db->Execute(insert).ok()) return nullptr;
  const std::string view =
      "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER (ORDER BY "
      "pos ROWS BETWEEN " +
      std::to_string(config.view_l) + " PRECEDING AND " +
      std::to_string(config.view_h) + " FOLLOWING) FROM seq";
  if (!db->Execute(view).ok()) return nullptr;
  return db;
}

std::string SweepQuery(const SqlSweepConfig& config) {
  return "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN " +
         std::to_string(config.query_l) + " PRECEDING AND " +
         std::to_string(config.query_h) +
         " FOLLOWING) FROM seq ORDER BY pos";
}

constexpr int64_t kSweepRows = 2000;

/// method: 0 = automatic (cost model), 1 = forced MaxOA, 2 = forced
/// MinOA, 3 = native recompute (rewrite disabled).
void RunSqlSweep(benchmark::State& state, int method) {
  const SqlSweepConfig& config =
      kSweepConfigs[static_cast<size_t>(state.range(0))];
  std::unique_ptr<Database> db = MakeSweepDb(config, kSweepRows);
  if (db == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  switch (method) {
    case 0: break;
    case 1: db->options().force_method = DerivationMethod::kMaxoa; break;
    case 2: db->options().force_method = DerivationMethod::kMinoa; break;
    default: db->options().enable_view_rewrite = false; break;
  }
  const std::string sql = SweepQuery(config);
  std::string chosen = "native";
  for (auto _ : state) {
    Result<ResultSet> rs = db->Execute(sql);
    if (!rs.ok()) {
      state.SkipWithError(rs.status().ToString().c_str());
      return;
    }
    if (!rs->rewrite_method().empty()) chosen = rs->rewrite_method();
    benchmark::DoNotOptimize(rs->NumRows());
  }
  state.SetLabel(chosen);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}

void BM_SqlDerive_CostModel(benchmark::State& state) {
  RunSqlSweep(state, 0);
}
void BM_SqlDerive_ForcedMaxoa(benchmark::State& state) {
  RunSqlSweep(state, 1);
}
void BM_SqlDerive_ForcedMinoa(benchmark::State& state) {
  RunSqlSweep(state, 2);
}
void BM_SqlDerive_NativeRecompute(benchmark::State& state) {
  RunSqlSweep(state, 3);
}
BENCHMARK(BM_SqlDerive_CostModel)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SqlDerive_ForcedMaxoa)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SqlDerive_ForcedMinoa)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SqlDerive_NativeRecompute)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Ablation A8 — join strategy on the same rewritten plan: the
// cost-chosen derivation of each sweep config executed (a) with the
// merge band join disabled (the index-nested-loop path), (b) with
// MergeBandJoinOp (the engine default).
// Args: (config index, rows).
// ---------------------------------------------------------------------

void RunSqlExecMode(benchmark::State& state, bool band) {
  const SqlSweepConfig& config =
      kSweepConfigs[static_cast<size_t>(state.range(0))];
  const int64_t n = state.range(1);
  std::unique_ptr<Database> db = MakeSweepDb(config, n);
  if (db == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  db->options().exec.enable_merge_band_join = band;
  const std::string sql = SweepQuery(config);
  std::string chosen = "native";
  for (auto _ : state) {
    Result<ResultSet> rs = db->Execute(sql);
    if (!rs.ok()) {
      state.SkipWithError(rs.status().ToString().c_str());
      return;
    }
    if (!rs->rewrite_method().empty()) chosen = rs->rewrite_method();
    benchmark::DoNotOptimize(rs->NumRows());
  }
  state.SetLabel(chosen);
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_SqlExec_VectorNoBand(benchmark::State& state) {
  RunSqlExecMode(state, false);
}
void BM_SqlExec_VectorBand(benchmark::State& state) {
  RunSqlExecMode(state, true);
}
#define EXEC_MODE_ARGS \
  Args({0, 500})->Args({0, 2000})->Args({1, 2000})->Args({2, 2000})
BENCHMARK(BM_SqlExec_VectorNoBand)->EXEC_MODE_ARGS
    ->Unit(benchmark::kMillisecond);
// n = 8000 on the engine default only: with the SUM fold answering
// MinOA chains from prefix sums, cost per row stays flat from 2000 up.
BENCHMARK(BM_SqlExec_VectorBand)->EXEC_MODE_ARGS->Args({0, 8000})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Serving read: a 100-row primary-key range over a table of n rows,
// `SELECT id, val FROM facts WHERE id BETWEEN a AND a + 99` — whbench
// serve_mixed's read shape 0. The range scan binary-searches the pinned
// snapshot's image of facts_pk_id and reads the 100 rows of the range;
// a full scan reads all n. The start `a` walks the table so successive
// iterations read different rows.
// ---------------------------------------------------------------------

void BM_SqlRangeScan_Pk(benchmark::State& state) {
  const int64_t n = state.range(0);
  Database db;
  std::string insert = "INSERT INTO facts VALUES ";
  for (int64_t i = 1; i <= n; ++i) {
    insert += (i > 1 ? ", (" : "(") + std::to_string(i) + ", " +
              std::to_string(i % 16) + ", " + std::to_string(i % 101 - 50) +
              ")";
  }
  if (!db.Execute("CREATE TABLE facts (id INTEGER PRIMARY KEY, grp "
                  "INTEGER, val DOUBLE)")
           .ok() ||
      !db.Execute(insert).ok() || !db.Execute("ANALYZE").ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  int64_t a = 1;
  for (auto _ : state) {
    Result<ResultSet> rs =
        db.Execute("SELECT id, val FROM facts WHERE id BETWEEN " +
                   std::to_string(a) + " AND " + std::to_string(a + 99));
    if (!rs.ok() || rs->NumRows() != 100) {
      state.SkipWithError("range read failed");
      return;
    }
    benchmark::DoNotOptimize(rs->NumRows());
    a = a + 137 > n - 99 ? 1 : a + 137;
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SqlRangeScan_Pk)->Arg(4000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rfv

BENCH_MAIN_WITH_JSON()
