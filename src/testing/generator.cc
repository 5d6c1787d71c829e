#include "testing/generator.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "testing/fuzz_rng.h"

namespace rfv {
namespace fuzzing {

namespace {

/// Mixes the campaign seed and iteration index into one RNG state.
/// SplitMix64's output finalizer decorrelates nearby states, so simple
/// affine mixing is enough.
uint64_t MixSeed(uint64_t seed, int index) {
  return seed ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull +
                 0x2545f4914f6cdd1dull);
}

FuzzFrame RandomFrame(FuzzRng* rng) {
  FuzzFrame frame;
  frame.cumulative = rng->ChancePermille(500);
  if (!frame.cumulative) {
    frame.l = rng->UniformInt(0, 5);
    frame.h = rng->UniformInt(0, 5);
    if (frame.l + frame.h == 0) frame.h = 1;  // l + h > 0 (paper §2)
  }
  return frame;
}

Value RandomValue(FuzzRng* rng, DataType type) {
  const int64_t v = rng->UniformInt(-50, 50);
  // Integer-valued payloads keep every summation order exact, so the
  // reference evaluator, the compensated native SUM, and the rewrite
  // arithmetic cannot drift apart by rounding.
  return type == DataType::kInt64 ? Value::Int(v)
                                  : Value::Double(static_cast<double>(v));
}

FuzzDml RandomDml(FuzzRng* rng, int64_t num_groups) {
  static const std::vector<DmlKind> kKinds = {DmlKind::kUpdate,
                                              DmlKind::kInsert,
                                              DmlKind::kDelete};
  FuzzDml op;
  op.kind = rng->Pick(kKinds);
  op.grp = num_groups > 0 ? rng->UniformInt(0, num_groups - 1) : 0;
  op.position = rng->UniformInt(1, 30);
  op.value = rng->UniformInt(-50, 50);
  return op;
}

/// Messy window workload: NULLs, duplicate and gapped positions, skewed
/// and empty partitions, any window function, SQL DML between rounds.
void FillWindowScenario(Scenario* s, FuzzRng* rng) {
  s->has_grp = rng->ChancePermille(650);
  s->dense_positions = false;
  s->val_type = rng->ChancePermille(600) ? DataType::kInt64
                                         : DataType::kDouble;
  const int64_t num_groups = s->has_grp ? rng->UniformInt(1, 4) : 1;

  const int64_t n = rng->ChancePermille(80) ? 0 : rng->UniformInt(1, 50);
  for (int64_t i = 0; i < n; ++i) {
    FuzzRow& row = s->rows.emplace_back();
    // Skew: partition 0 takes an outsized share; high group ids may end
    // up empty, which is exactly the partition shape worth covering.
    row.grp = rng->ChancePermille(300) ? 0 : rng->UniformInt(0, num_groups - 1);
    row.pos = rng->ChancePermille(40) ? Value::Null()
                                      : Value::Int(rng->UniformInt(1, 30));
    row.val = rng->ChancePermille(120) ? Value::Null()
                                       : RandomValue(rng, s->val_type);
  }

  static const std::vector<FuzzFn> kAllFns = {
      FuzzFn::kSum,   FuzzFn::kAvg,       FuzzFn::kMin,
      FuzzFn::kMax,   FuzzFn::kCount,     FuzzFn::kCountStar,
      FuzzFn::kRank,  FuzzFn::kRowNumber,
  };
  const int64_t num_queries = rng->UniformInt(1, 3);
  for (int64_t q = 0; q < num_queries; ++q) {
    FuzzQuery query;
    query.fn = rng->Pick(kAllFns);
    query.frame = RandomFrame(rng);
    query.partition_by_grp = s->has_grp && rng->ChancePermille(700);
    query.order_by_val = query.is_ranking() && rng->ChancePermille(500);
    query.order_desc = query.is_ranking() && rng->ChancePermille(500);
    s->queries.push_back(query);
  }

  const int64_t num_batches = rng->UniformInt(0, 2);
  for (int64_t b = 0; b < num_batches; ++b) {
    std::vector<FuzzDml> batch;
    const int64_t ops = rng->UniformInt(1, 4);
    for (int64_t o = 0; o < ops; ++o) batch.push_back(RandomDml(rng, num_groups));
    s->dml_batches.push_back(std::move(batch));
  }

  // A trailing ORDER BY on some queries, drawn last so rows, queries and
  // DML stay as before: keys out of input order, descending and mixed
  // directions, NULL keys, and ties, some between INTEGER and DOUBLE
  // cells (COALESCE(val, pos) over a DOUBLE val) that only a stable sort
  // keeps in input order. This is the columnar sort's permutation path,
  // compared in order by the execution-mode oracles.
  static const std::vector<std::string> kOrders = {
      "val DESC, pos", "val, pos DESC", "pos DESC", "COALESCE(val, pos)",
      "COALESCE(val, pos) DESC"};
  static const std::vector<std::string> kGrpOrders = {
      "grp, val", "grp DESC, COALESCE(val, pos), pos"};
  for (FuzzQuery& query : s->queries) {
    if (!rng->ChancePermille(350)) continue;
    query.order_by = s->has_grp && rng->ChancePermille(400)
                         ? rng->Pick(kGrpOrders)
                         : rng->Pick(kOrders);
  }

  // Oversized frame offsets, drawn last for the same reason: n - 1, n
  // and n + 1 (n = the initial row count, so the frame reaches or just
  // passes every partition's ends) and INT64_MAX, where the frame ends
  // must stop at the partition instead of overflowing.
  const int64_t rows = static_cast<int64_t>(s->rows.size());
  const std::vector<int64_t> oversized = {
      std::max<int64_t>(rows - 1, 0), rows, rows + 1,
      std::numeric_limits<int64_t>::max()};
  for (FuzzQuery& query : s->queries) {
    if (query.frame.cumulative || !rng->ChancePermille(200)) continue;
    int64_t& offset = rng->ChancePermille(500) ? query.frame.l : query.frame.h;
    offset = rng->Pick(oversized);
    if (query.frame.l == 0 && query.frame.h == 0) query.frame.h = 1;
  }
}

/// Dense sequences the generated rows must satisfy: positions 1..n per
/// partition (sequence views reject anything else), all values non-NULL.
void FillDenseRows(Scenario* s, FuzzRng* rng, int64_t num_groups,
                   int64_t min_per_partition, int64_t max_per_partition) {
  for (int64_t g = 0; g < num_groups; ++g) {
    const int64_t n = rng->UniformInt(min_per_partition, max_per_partition);
    for (int64_t p = 1; p <= n; ++p) {
      FuzzRow row;
      row.grp = g;
      row.pos = Value::Int(p);
      row.val = RandomValue(rng, s->val_type);
      s->rows.push_back(row);
    }
  }
}

/// Rewrite workload: SUM/MIN/MAX views + strict rewriter-shaped
/// aggregate queries (automatic / MaxOA / MinOA runs diffed against the
/// native operator). No DML: SQL DML does not maintain views, so views
/// would correctly go stale and the diff would be meaningless.
void FillRewriteScenario(Scenario* s, FuzzRng* rng) {
  s->has_grp = rng->ChancePermille(450);
  s->dense_positions = true;
  s->val_type = rng->ChancePermille(500) ? DataType::kInt64
                                         : DataType::kDouble;
  FillDenseRows(s, rng, s->has_grp ? rng->UniformInt(1, 3) : 1, 1, 24);

  static const std::vector<FuzzFn> kViewFns = {FuzzFn::kSum, FuzzFn::kMin,
                                               FuzzFn::kMax};
  const int64_t num_views = rng->UniformInt(1, 2);
  for (int64_t v = 0; v < num_views; ++v) {
    FuzzView view;
    view.name = "v" + std::to_string(v);
    view.fn = rng->Pick(kViewFns);
    view.frame = RandomFrame(rng);
    s->views.push_back(view);
  }

  static const std::vector<FuzzFn> kQueryFns = {
      FuzzFn::kSum, FuzzFn::kAvg,   FuzzFn::kMin,
      FuzzFn::kMax, FuzzFn::kCount, FuzzFn::kCountStar,
  };
  const int64_t num_queries = rng->UniformInt(1, 3);
  for (int64_t q = 0; q < num_queries; ++q) {
    FuzzQuery query;
    query.fn = rng->Pick(kQueryFns);
    query.frame = RandomFrame(rng);
    // Usually match the views' partitioning (rewrite hits); sometimes
    // not, to cover the recognizer's non-partitioned shape too.
    query.partition_by_grp = s->has_grp && !rng->ChancePermille(200);
    s->queries.push_back(query);
  }
}

/// Large rewrite workload: one dense sequence of 1,100–1,300 rows, so
/// the scans, the band join's candidate runs and its SUM-fold partial
/// rows all cross the 1,024-row vector boundary. One sliding SUM view
/// and one or two SUM/AVG queries keep the oracle cost of a scenario at
/// a few seconds (the band-off replay runs a nested loop over n²
/// pairs).
void FillLargeRewriteScenario(Scenario* s, FuzzRng* rng) {
  s->has_grp = false;
  s->dense_positions = true;
  s->val_type = rng->ChancePermille(500) ? DataType::kInt64
                                         : DataType::kDouble;
  FillDenseRows(s, rng, 1, 1100, 1300);
  FuzzView view;
  view.name = "v0";
  view.fn = FuzzFn::kSum;
  view.frame = RandomFrame(rng);
  if (view.frame.cumulative) {
    // MinOA and MaxOA — the band-join derivations — need a sliding view.
    view.frame.cumulative = false;
    view.frame.l = rng->UniformInt(1, 5);
    view.frame.h = rng->UniformInt(0, 5);
  }
  s->views.push_back(view);

  static const std::vector<FuzzFn> kQueryFns = {FuzzFn::kSum, FuzzFn::kSum,
                                                FuzzFn::kAvg};
  const int64_t num_queries = rng->UniformInt(1, 2);
  for (int64_t q = 0; q < num_queries; ++q) {
    FuzzQuery query;
    query.fn = rng->Pick(kQueryFns);
    query.frame = RandomFrame(rng);
    s->queries.push_back(query);
  }
}

/// Maintenance workload: non-partitioned (pos, val) sequence —
/// PropagateBaseInsert requires the base table to be exactly the order
/// and value columns — with views kept fresh incrementally and checked
/// against a full recompute after every batch.
void FillMaintenanceScenario(Scenario* s, FuzzRng* rng) {
  s->has_grp = false;
  s->dense_positions = true;
  s->val_type = DataType::kDouble;  // PropagateBase* carries doubles
  FillDenseRows(s, rng, 1, 1, 24);

  static const std::vector<FuzzFn> kViewFns = {FuzzFn::kSum, FuzzFn::kMin,
                                               FuzzFn::kMax};
  const int64_t num_views = rng->UniformInt(1, 3);
  for (int64_t v = 0; v < num_views; ++v) {
    FuzzView view;
    view.name = "v" + std::to_string(v);
    view.fn = rng->Pick(kViewFns);
    view.frame = RandomFrame(rng);
    s->views.push_back(view);
  }

  // A few strict-shape queries so maintained content also feeds the
  // rewrite oracles after each batch.
  static const std::vector<FuzzFn> kQueryFns = {
      FuzzFn::kSum, FuzzFn::kAvg, FuzzFn::kMin, FuzzFn::kMax,
      FuzzFn::kCount,
  };
  const int64_t num_queries = rng->UniformInt(0, 2);
  for (int64_t q = 0; q < num_queries; ++q) {
    FuzzQuery query;
    query.fn = rng->Pick(kQueryFns);
    query.frame = RandomFrame(rng);
    s->queries.push_back(query);
  }

  const int64_t num_batches = rng->UniformInt(1, 3);
  for (int64_t b = 0; b < num_batches; ++b) {
    std::vector<FuzzDml> batch;
    const int64_t ops = rng->UniformInt(1, 3);
    for (int64_t o = 0; o < ops; ++o) batch.push_back(RandomDml(rng, 0));
    s->dml_batches.push_back(std::move(batch));
  }
}

}  // namespace

Scenario GenerateScenario(uint64_t seed, int index) {
  FuzzRng rng(MixSeed(seed, index));
  Scenario s;
  s.seed = seed;
  s.index = index;
  const int64_t dice = rng.UniformInt(0, 999);
  if (dice < 400) {
    s.kind = ScenarioKind::kWindow;
    FillWindowScenario(&s, &rng);
  } else if (dice < 700) {
    s.kind = ScenarioKind::kRewrite;
    FillRewriteScenario(&s, &rng);
  } else if (dice >= 992) {
    s.kind = ScenarioKind::kRewrite;
    FillLargeRewriteScenario(&s, &rng);
  } else {
    s.kind = ScenarioKind::kMaintenance;
    FillMaintenanceScenario(&s, &rng);
  }
  return s;
}

}  // namespace fuzzing
}  // namespace rfv
