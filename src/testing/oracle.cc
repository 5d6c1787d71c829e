#include "testing/oracle.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/metrics_registry.h"
#include "db/database.h"
#include "testing/reference_window.h"
#include "testing/result_compare.h"
#include "view/maintenance.h"

namespace rfv {
namespace fuzzing {

namespace {

Counter* ChecksCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_fuzz_checks_total", {},
      "Differential-oracle comparisons performed by the fuzz harness");
  return c;
}

Counter* MismatchesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_fuzz_mismatches_total", {},
      "Differential-oracle comparisons that found a mismatch");
  return c;
}

void RecordCheck(ScenarioVerdict* verdict, const std::string& oracle) {
  ++verdict->checks[oracle];
  ChecksCounter()->Increment();
}

void RecordFailure(ScenarioVerdict* verdict, std::string oracle,
                   std::string detail, std::string diff, int round) {
  MismatchesCounter()->Increment();
  verdict->failures.push_back(OracleFailure{
      std::move(oracle), std::move(detail), std::move(diff), round});
}

/// Test hook: the classic frame off-by-one, simulated by perturbing the
/// window column (last column) of the result's last row.
ResultSet CorruptLastValue(const ResultSet& rs) {
  std::vector<Row> rows = rs.rows();
  if (!rows.empty() && !rows.back().empty()) {
    Value& cell = rows.back()[rows.back().size() - 1];
    if (cell.type() == DataType::kInt64) {
      cell = Value::Int(cell.AsInt() + 1);
    } else if (cell.type() == DataType::kDouble) {
      cell = Value::Double(cell.AsDouble() + 1.0);
    } else if (cell.is_null()) {
      cell = Value::Int(1);
    }
  }
  return ResultSet(rs.schema(), std::move(rows));
}

/// Computes the expected result of `query` with the reference evaluator
/// over the base table's current rows (read straight from the catalog;
/// storage order is the scan order the engine sees).
Result<ResultSet> BuildExpected(Database* db, const Scenario& s,
                                const FuzzQuery& query,
                                const Schema& schema) {
  Table* table = nullptr;
  {
    Result<Table*> t = db->catalog()->GetTable(s.table);
    if (!t.ok()) return t.status();
    table = *t;
  }
  const std::vector<Row>& base = table->rows();
  const int grp_col = s.has_grp ? 0 : -1;
  const int pos_col = s.has_grp ? 1 : 0;
  const int val_col = pos_col + 1;

  RefWindowCall call;
  call.fn = query.fn;
  call.frame = query.frame;
  call.partition_col = query.partition_by_grp && s.has_grp ? grp_col : -1;
  call.order_col = query.is_ranking() && query.order_by_val ? val_col
                                                            : pos_col;
  call.order_desc = query.is_ranking() && query.order_desc;
  call.arg_col = query.fn == FuzzFn::kCountStar || query.is_ranking()
                     ? -1
                     : val_col;
  const std::vector<Value> win = ReferenceWindow(base, call);

  const bool strict_shape = s.kind != ScenarioKind::kWindow;
  std::vector<Row> expected;
  expected.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    Row row;
    if (s.has_grp && (strict_shape ? query.partition_by_grp : true)) {
      row.Append(base[i][0]);
    }
    row.Append(base[i][static_cast<size_t>(pos_col)]);
    if (!strict_shape) row.Append(base[i][static_cast<size_t>(val_col)]);
    row.Append(win[i]);
    expected.push_back(std::move(row));
  }
  return ResultSet(schema, std::move(expected));
}

class OracleRunner {
 public:
  OracleRunner(const Scenario& s, const OracleOptions& opts)
      : s_(s), opts_(opts) {}

  ScenarioVerdict Run() {
    static Counter* scenarios = MetricsRegistry::Global().GetCounter(
        "rfv_fuzz_scenarios_total", {},
        "Fuzz scenarios replayed through the oracle runner");
    scenarios->Increment();
    // Register the other families up front so a clean campaign still
    // exports them (at zero) instead of omitting the series.
    ChecksCounter();
    MismatchesCounter();

    db_.options().enable_view_rewrite = false;
    if (!Setup()) return std::move(verdict_);
    for (int round = 0;
         round <= static_cast<int>(s_.dml_batches.size()); ++round) {
      if (round > 0) {
        ApplyBatch(s_.dml_batches[static_cast<size_t>(round - 1)], round);
        if (s_.kind == ScenarioKind::kMaintenance) {
          CheckViewContents(round);
        }
      }
      for (const FuzzQuery& query : s_.queries) CheckQuery(query, round);
      if (!verdict_.failures.empty()) break;  // report the first round
    }
    return std::move(verdict_);
  }

 private:
  bool Setup() {
    if (!MustExecute(s_.CreateTableSql(), "setup", 0)) return false;
    const std::string insert = s_.InsertSql();
    if (!insert.empty() && !MustExecute(insert, "setup", 0)) return false;
    for (const FuzzView& view : s_.views) {
      if (!MustExecute(s_.CreateViewSql(view), "setup", 0)) return false;
    }
    return true;
  }

  bool MustExecute(const std::string& sql, const std::string& oracle,
                   int round) {
    Result<ResultSet> r = db_.Execute(sql);
    if (!r.ok()) {
      RecordFailure(&verdict_, oracle, sql, r.status().ToString(), round);
      return false;
    }
    return true;
  }

  void ApplyBatch(const std::vector<FuzzDml>& batch, int round) {
    for (const FuzzDml& op : batch) {
      if (s_.kind == ScenarioKind::kMaintenance) {
        ApplyMaintenanceOp(op, round);
      } else {
        MustExecute(s_.DmlSql(op), "dml", round);
      }
    }
  }

  /// Replays one op through the PropagateBase* API. Positions are
  /// clamped to the table's current extent so shrunk scenarios (with
  /// rows removed) stay replayable without changing the generated ops'
  /// meaning — generated positions are always in range already.
  void ApplyMaintenanceOp(const FuzzDml& op, int round) {
    Result<Table*> t = db_.catalog()->GetTable(s_.table);
    if (!t.ok()) {
      RecordFailure(&verdict_, "maintenance", "lookup " + s_.table,
                    t.status().ToString(), round);
      return;
    }
    const int64_t n = static_cast<int64_t>((*t)->NumRows());
    const auto clamp = [](int64_t v, int64_t lo, int64_t hi) {
      return std::max(lo, std::min(v, hi));
    };
    Status status = Status::OK();
    std::string what;
    switch (op.kind) {
      case DmlKind::kUpdate: {
        if (n == 0) return;
        const int64_t pos = clamp(op.position, 1, n);
        what = "PropagateBaseUpdate(pos=" + std::to_string(pos) +
               ", val=" + std::to_string(op.value) + ")";
        status = PropagateBaseUpdate(db_.view_manager(), s_.table, pos,
                                     static_cast<double>(op.value))
                     .status();
        break;
      }
      case DmlKind::kInsert: {
        const int64_t pos = clamp(op.position, 1, n + 1);
        what = "PropagateBaseInsert(pos=" + std::to_string(pos) +
               ", val=" + std::to_string(op.value) + ")";
        status = PropagateBaseInsert(db_.view_manager(), s_.table, pos,
                                     static_cast<double>(op.value))
                     .status();
        break;
      }
      case DmlKind::kDelete: {
        if (n <= 1) return;  // keep at least one raw position
        const int64_t pos = clamp(op.position, 1, n);
        what = "PropagateBaseDelete(pos=" + std::to_string(pos) + ")";
        status =
            PropagateBaseDelete(db_.view_manager(), s_.table, pos).status();
        break;
      }
    }
    if (!status.ok()) {
      RecordFailure(&verdict_, "maintenance", what, status.ToString(),
                    round);
    }
  }

  /// Incremental maintenance vs. full recompute: snapshot each view's
  /// content, refresh it from base data, and compare. On success the
  /// refreshed content equals the incremental content, so later rounds
  /// keep compounding incremental state.
  void CheckViewContents(int round) {
    for (const FuzzView& view : s_.views) {
      Result<Table*> content = db_.catalog()->GetTable(view.name);
      if (!content.ok()) {
        RecordFailure(&verdict_, "maintenance", view.name,
                      content.status().ToString(), round);
        continue;
      }
      std::vector<Row> incremental = (*content)->rows();
      const Status refreshed = db_.view_manager()->RefreshView(view.name);
      if (!refreshed.ok()) {
        RecordFailure(&verdict_, "maintenance", view.name,
                      refreshed.ToString(), round);
        continue;
      }
      RecordCheck(&verdict_, "maintenance");
      std::optional<std::string> diff = DiffRowVectorsCanonical(
          std::move(incremental), (*content)->rows());
      if (diff.has_value()) {
        RecordFailure(&verdict_, "maintenance",
                      view.name + " (incremental vs. full recompute)",
                      *diff, round);
      }
    }
  }

  void CheckQuery(const FuzzQuery& query, int round) {
    const std::string sql = s_.QuerySql(query);
    db_.options().enable_view_rewrite = false;
    db_.options().force_method = std::nullopt;
    db_.options().exec.window_workers = 1;

    Result<ResultSet> serial_result = db_.Execute(sql);
    if (!serial_result.ok()) {
      RecordFailure(&verdict_, "error", sql,
                    serial_result.status().ToString(), round);
      return;
    }
    ResultSet serial = std::move(*serial_result);
    if (opts_.corruption == OracleOptions::Corruption::kOffByOne) {
      serial = CorruptLastValue(serial);
    }

    // Oracle 1: native vs. the trusted reference evaluator.
    {
      Result<ResultSet> expected =
          BuildExpected(&db_, s_, query, serial.schema());
      if (!expected.ok()) {
        RecordFailure(&verdict_, "reference", sql,
                      expected.status().ToString(), round);
      } else {
        RecordCheck(&verdict_, "reference");
        std::optional<std::string> diff =
            DiffRowsCanonical(serial, *expected);
        if (diff.has_value()) {
          RecordFailure(&verdict_, "reference", sql, *diff, round);
        }
      }
    }

    // Oracle 2: serial vs. partition-parallel window execution.
    {
      db_.options().exec.window_workers = opts_.parallel_workers;
      const int64_t saved_min_rows =
          db_.options().exec.window_parallel_min_rows;
      db_.options().exec.window_parallel_min_rows = 1;
      Result<ResultSet> parallel = db_.Execute(sql);
      db_.options().exec.window_workers = 1;
      db_.options().exec.window_parallel_min_rows = saved_min_rows;
      if (!parallel.ok()) {
        RecordFailure(&verdict_, "parallel", sql,
                      parallel.status().ToString(), round);
      } else {
        RecordCheck(&verdict_, "parallel");
        std::optional<std::string> diff =
            DiffRowsCanonical(serial, *parallel);
        if (diff.has_value()) {
          RecordFailure(&verdict_, "parallel", sql, *diff, round);
        }
      }
    }

    // Oracle 3: execution-mode cross-check. The serial run above used
    // the engine default (columnar vectorized execution), so replay the
    // same query with vectorized execution off — the pure row-at-a-time
    // pull loop — and demand identical rows ("vector", named for the
    // path it vouches for).
    {
      const bool saved_vectorized =
          db_.options().exec.use_vectorized_execution;
      db_.options().exec.use_vectorized_execution = false;
      Result<ResultSet> replay = db_.Execute(sql);
      db_.options().exec.use_vectorized_execution = saved_vectorized;
      if (!replay.ok()) {
        RecordFailure(&verdict_, "vector", sql, replay.status().ToString(),
                      round);
      } else {
        RecordCheck(&verdict_, "vector");
        // Under a trailing ORDER BY both modes run a stable sort of the
        // same input order, so the rows must agree in order.
        std::optional<std::string> diff =
            query.order_by.empty() ? DiffRowsCanonical(serial, *replay)
                                   : DiffRows(serial, *replay);
        if (diff.has_value()) {
          RecordFailure(&verdict_, "vector", sql, *diff, round);
        }
      }
    }

    // Oracle 4: view rewrites vs. the native result — the cost-based
    // automatic choice, the paper's static preference order, and both
    // forced methods, each under both pattern variants. Running the
    // cost-based and static choosers through the same comparison
    // asserts that the cost model's (possibly different, possibly
    // declined) pick never changes query results.
    if (!s_.views.empty()) {
      struct RewriteConfig {
        const char* label;
        std::optional<DerivationMethod> force;
        bool use_cost_model;
      };
      const RewriteConfig configs[] = {
          {"cost", std::nullopt, true},
          {"static", std::nullopt, false},
          {"forced", DerivationMethod::kMaxoa, true},
          {"forced", DerivationMethod::kMinoa, true},
      };
      for (const RewriteConfig& config : configs) {
        for (const RewriteVariant variant :
             {RewriteVariant::kDisjunctive, RewriteVariant::kUnion}) {
          db_.options().enable_view_rewrite = true;
          db_.options().force_method = config.force;
          db_.options().use_cost_model = config.use_cost_model;
          db_.options().rewrite_variant = variant;
          Result<ResultSet> derived = db_.Execute(sql);

          // Oracle 5: merge band join on vs. off. Rewritten patterns are
          // exactly the band-shaped self joins MergeBandJoinOp claims
          // (BETWEEN hulls, MOD strides, disjunctions of both), so the
          // forced-method configs are replayed with the band join
          // disabled — falling back to index-/nested-loop joins — and
          // must produce identical rows.
          std::optional<Result<ResultSet>> no_band;
          if (config.force.has_value() &&
              variant == RewriteVariant::kDisjunctive) {
            const bool saved_band =
                db_.options().exec.enable_merge_band_join;
            db_.options().exec.enable_merge_band_join = false;
            no_band = db_.Execute(sql);
            db_.options().exec.enable_merge_band_join = saved_band;
          }

          // Oracle 6: forced hash join. Partitioned rewrites join the
          // view to the base table on grp/pos equi-keys
          // (PartitionedDirectSql), so with both the band and the index
          // nested-loop joins disabled the planner must route the same
          // pattern through HashJoinOp's vectorized build/probe — and
          // produce identical rows. Not gated on the forced configs:
          // partitioned pairs only derive under the automatic choosers.
          std::optional<Result<ResultSet>> hash_only;
          if (variant == RewriteVariant::kDisjunctive && s_.has_grp &&
              query.partition_by_grp) {
            const bool saved_band =
                db_.options().exec.enable_merge_band_join;
            const bool saved_inl =
                db_.options().exec.enable_index_nested_loop_join;
            db_.options().exec.enable_merge_band_join = false;
            db_.options().exec.enable_index_nested_loop_join = false;
            hash_only = db_.Execute(sql);
            db_.options().exec.enable_merge_band_join = saved_band;
            db_.options().exec.enable_index_nested_loop_join = saved_inl;
          }

          db_.options().enable_view_rewrite = false;
          db_.options().force_method = std::nullopt;
          db_.options().use_cost_model = true;
          if (!derived.ok()) {
            RecordFailure(&verdict_, "rewrite-error", sql,
                          derived.status().ToString(), round);
            continue;
          }
          if (derived->rewrite_method().empty()) {
            // Includes cost-model no-rewrite verdicts: those fall back
            // to the native path, which Oracle 1 already covers.
            ++verdict_.checks["rewrite-skipped"];
            continue;
          }
          std::string oracle = std::string("rewrite:") + config.label + ":" +
                               derived->rewrite_method();
          if (variant == RewriteVariant::kUnion) oracle += "+union";
          RecordCheck(&verdict_, oracle);
          std::optional<std::string> diff =
              DiffRowsCanonical(serial, *derived);
          if (diff.has_value()) {
            RecordFailure(&verdict_, oracle,
                          sql + "\n  rewritten: " + derived->rewritten_sql(),
                          *diff, round);
          }
          if (no_band.has_value()) {
            if (!no_band->ok()) {
              RecordFailure(&verdict_, "band", sql,
                            no_band->status().ToString(), round);
            } else {
              RecordCheck(&verdict_, "band");
              std::optional<std::string> band_diff =
                  DiffRowsCanonical(*derived, **no_band);
              if (band_diff.has_value()) {
                RecordFailure(&verdict_, "band",
                              sql + "\n  rewritten: " +
                                  derived->rewritten_sql(),
                              *band_diff, round);
              }
            }
          }
          if (hash_only.has_value()) {
            if (!hash_only->ok()) {
              RecordFailure(&verdict_, "hashjoin", sql,
                            hash_only->status().ToString(), round);
            } else {
              RecordCheck(&verdict_, "hashjoin");
              std::optional<std::string> hash_diff =
                  DiffRowsCanonical(*derived, **hash_only);
              if (hash_diff.has_value()) {
                RecordFailure(&verdict_, "hashjoin",
                              sql + "\n  rewritten: " +
                                  derived->rewritten_sql(),
                              *hash_diff, round);
              }
            }
          }
        }
      }
    }
  }

  const Scenario& s_;
  const OracleOptions& opts_;
  Database db_;
  ScenarioVerdict verdict_;
};

}  // namespace

int ScenarioVerdict::TotalChecks() const {
  int total = 0;
  for (const auto& [oracle, count] : checks) {
    if (oracle != "rewrite-skipped") total += count;
  }
  return total;
}

std::string ScenarioVerdict::Summary() const {
  std::string out = "checks:";
  for (const auto& [oracle, count] : checks) {
    out += " " + oracle + "=" + std::to_string(count);
  }
  out += "\nverdict: ";
  out += ok() ? "OK" : "FAIL";
  for (const OracleFailure& f : failures) {
    out += "\n[" + f.oracle + "] round=" + std::to_string(f.round) + " " +
           f.detail + "\n  " + f.diff;
  }
  return out;
}

ScenarioVerdict RunScenario(const Scenario& scenario,
                            const OracleOptions& options) {
  return OracleRunner(scenario, options).Run();
}

}  // namespace fuzzing
}  // namespace rfv
