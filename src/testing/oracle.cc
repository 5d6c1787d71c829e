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

/// The largest scenario table the nestedloop oracle replays: its
/// nested loops try every pair of rows, so the large rewrite kind's
/// 1 100-1 300-row tables cost seconds per query. This bound keeps the
/// smaller quarter of them, whose left inputs still span two vectors.
constexpr size_t kNestedLoopMaxRows = 1150;

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

/// The rows of `table`'s committed snapshot, in storage order.
std::vector<Row> SnapshotRows(const Table& table) {
  const TableSnapshotPtr snap = table.PinSnapshot();
  std::vector<Row> rows;
  rows.reserve(snap->num_rows());
  for (size_t r = 0; r < snap->num_rows(); ++r) rows.push_back(snap->row(r));
  return rows;
}

/// One key of a trailing ORDER BY: a base-table column, or
/// COALESCE(val, pos) (column = -1), and its direction.
struct OrderKey {
  int column = 0;
  bool desc = false;
};

/// The keys of `query`'s trailing ORDER BY (Scenario::OrderByList), or
/// an error for a list item the reference does not know.
Result<std::vector<OrderKey>> TrailingOrderKeys(const Scenario& s,
                                                const FuzzQuery& query) {
  const int grp_col = s.has_grp ? 0 : -1;
  const int pos_col = s.has_grp ? 1 : 0;
  const std::string list = s.OrderByList(query);
  std::vector<OrderKey> keys;
  size_t at = 0;
  while (at < list.size()) {
    // Items are separated by ", " outside parentheses.
    size_t end = at;
    int depth = 0;
    while (end < list.size() && !(depth == 0 && list[end] == ',')) {
      depth += list[end] == '(' ? 1 : list[end] == ')' ? -1 : 0;
      ++end;
    }
    std::string item = list.substr(at, end - at);
    at = end + 2;
    OrderKey key;
    const std::string desc = " DESC";
    if (item.size() > desc.size() &&
        item.compare(item.size() - desc.size(), desc.size(), desc) == 0) {
      key.desc = true;
      item.resize(item.size() - desc.size());
    }
    if (item == "grp" && grp_col >= 0) {
      key.column = grp_col;
    } else if (item == "pos") {
      key.column = pos_col;
    } else if (item == "val") {
      key.column = pos_col + 1;
    } else if (item == "COALESCE(val, pos)") {
      key.column = -1;
    } else {
      return Status::Internal("reference: unknown ORDER BY item " + item);
    }
    keys.push_back(key);
  }
  return keys;
}

/// Computes the expected result of `query` with the reference evaluator
/// over the base table's current rows (read from its snapshot; storage
/// order is the scan order the engine sees). The window emits rows in
/// input order and the engine's sort is stable, so under a trailing
/// ORDER BY the rows are stable-sorted from snapshot order by its keys
/// under Value::Compare: the expected order, not just the row set.
Result<ResultSet> BuildExpected(Database* db, const Scenario& s,
                                const FuzzQuery& query,
                                const Schema& schema) {
  Table* table = nullptr;
  {
    Result<Table*> t = db->catalog()->GetTable(s.table);
    if (!t.ok()) return t.status();
    table = *t;
  }
  const std::vector<Row> base = SnapshotRows(*table);
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

  std::vector<size_t> order(base.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (!s.OrderByList(query).empty()) {
    std::vector<OrderKey> keys;
    RFV_ASSIGN_OR_RETURN(keys, TrailingOrderKeys(s, query));
    const auto key_value = [&](size_t row, const OrderKey& key) {
      if (key.column >= 0) return base[row][static_cast<size_t>(key.column)];
      const Value& val = base[row][static_cast<size_t>(val_col)];
      return val.is_null() ? base[row][static_cast<size_t>(pos_col)] : val;
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const OrderKey& key : keys) {
        const int c = key_value(a, key).Compare(key_value(b, key));
        if (c != 0) return key.desc ? c > 0 : c < 0;
      }
      return false;
    });
  }

  const bool strict_shape = s.kind != ScenarioKind::kWindow;
  std::vector<Row> expected;
  expected.reserve(base.size());
  for (const size_t i : order) {
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
      CheckIndexScans(round);
      if (!verdict_.failures.empty()) break;  // report the first round
    }
    return std::move(verdict_);
  }

 private:
  bool Setup() {
    if (!MustExecute(s_.CreateTableSql(), "setup", 0)) return false;
    const std::string insert = s_.InsertSql();
    if (!insert.empty() && !MustExecute(insert, "setup", 0)) return false;
    const std::string index = s_.CreateIndexSql();
    if (!index.empty() && !MustExecute(index, "setup", 0)) return false;
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
      std::vector<Row> incremental = SnapshotRows(**content);
      const Status refreshed = db_.view_manager()->RefreshView(view.name);
      if (!refreshed.ok()) {
        RecordFailure(&verdict_, "maintenance", view.name,
                      refreshed.ToString(), round);
        continue;
      }
      RecordCheck(&verdict_, "maintenance");
      std::optional<std::string> diff = DiffRowVectorsCanonical(
          std::move(incremental), SnapshotRows(**content));
      if (diff.has_value()) {
        RecordFailure(&verdict_, "maintenance",
                      view.name + " (incremental vs. full recompute)",
                      *diff, round);
      }
    }
  }

  /// Oracle 6: range scans vs. full scans. Every table of the scenario
  /// with an index on `pos` (the base table's primary key or window
  /// index, each view's position index) answers a fixed set of
  /// sargable SELECTs, sized from its current row count; each is
  /// replayed with the key wrapped as `pos + 0`, which no recognizer
  /// takes for a key range, and the rows must be identical and in the
  /// same order (a range scan emits rows in row-id order, exactly as a
  /// full scan does). "indexscan-ranged" counts the queries that did
  /// read a key range.
  void CheckIndexScans(int round) {
    std::vector<std::string> tables = {s_.table};
    for (const FuzzView& view : s_.views) tables.push_back(view.name);
    for (const std::string& name : tables) {
      Result<Table*> table = db_.catalog()->GetTable(name);
      if (!table.ok()) continue;
      const Result<size_t> pos = (*table)->schema().FindColumn("", "pos");
      if (!pos.ok() || !(*table)->HasIndexOnColumn(*pos)) continue;
      const int64_t n = static_cast<int64_t>((*table)->NumRows());
      const std::string a = std::to_string(n / 3 + 1);
      const std::string b = std::to_string(n / 3 + 1 + std::max<int64_t>(
                                                         1, n / 8));
      const std::string low = std::to_string(std::max<int64_t>(1, n / 8));
      const std::string high = std::to_string(n - n / 8);
      // `$` stands for the key column.
      const std::string predicates[] = {
          "$ BETWEEN " + a + " AND " + b,
          "$ = " + a,
          "$ < " + low,
          "$ >= " + high,
          "$ > " + a + " AND $ <= " + b,
          "$ BETWEEN " + a + " - 0.5 AND " + b + " + 0.5",
          "$ BETWEEN " + b + " AND " + a,
          b + " >= $ AND val IS NOT NULL",
      };
      for (const std::string& predicate : predicates) {
        std::string ranged;
        std::string plain;
        for (const char c : predicate) {
          ranged += c == '$' ? std::string("pos") : std::string(1, c);
          plain += c == '$' ? std::string("(pos + 0)") : std::string(1, c);
        }
        const std::string sql = "SELECT * FROM " + name + " WHERE " + ranged;
        Result<ResultSet> got = db_.Execute(sql);
        Result<ResultSet> want =
            db_.Execute("SELECT * FROM " + name + " WHERE " + plain);
        if (!got.ok() || !want.ok()) {
          RecordFailure(&verdict_, "indexscan", sql,
                        (got.ok() ? want : got).status().ToString(), round);
          continue;
        }
        RecordCheck(&verdict_, "indexscan");
        for (const OperatorMetricsEntry& op : got->metrics()) {
          if (op.name == "scan" && op.detail.find("index=") == 0) {
            ++verdict_.checks["indexscan-ranged"];
          }
        }
        std::optional<std::string> diff = DiffRows(*want, *got);
        if (diff.has_value()) {
          RecordFailure(&verdict_, "indexscan", sql, *diff, round);
        }
      }
    }
  }

  void CheckQuery(const FuzzQuery& query, int round) {
    const std::string sql = s_.QuerySql(query);
    db_.options().enable_view_rewrite = false;
    db_.options().force_method = std::nullopt;

    Result<ResultSet> native_result = db_.Execute(sql);
    if (!native_result.ok()) {
      RecordFailure(&verdict_, "error", sql,
                    native_result.status().ToString(), round);
      return;
    }
    ResultSet native = std::move(*native_result);
    if (opts_.corruption == OracleOptions::Corruption::kOffByOne) {
      native = CorruptLastValue(native);
    }

    // Oracle 1: native vs. the trusted reference evaluator, in order
    // under a trailing ORDER BY (the sort's permutation is checked too).
    {
      Result<ResultSet> expected =
          BuildExpected(&db_, s_, query, native.schema());
      if (!expected.ok()) {
        RecordFailure(&verdict_, "reference", sql,
                      expected.status().ToString(), round);
      } else {
        RecordCheck(&verdict_, "reference");
        std::optional<std::string> diff =
            !s_.OrderByList(query).empty()
                ? DiffRows(native, *expected)
                : DiffRowsCanonical(native, *expected);
        if (diff.has_value()) {
          RecordFailure(&verdict_, "reference", sql, *diff, round);
        }
      }
    }

    // Oracle 3: view rewrites vs. the native result — the cost-based
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

          // Oracle 4: merge band join on vs. off. Rewritten patterns are
          // exactly the band-shaped self joins MergeBandJoinOp claims
          // (BETWEEN hulls, MOD strides, disjunctions of both), so the
          // forced-method configs are replayed with the band join
          // disabled — the index nested-loop join then probes the
          // view's position index with the same band spec, or the
          // nested loop runs where no index applies — and must produce
          // identical rows. The replay has no band join, so no SUM fold
          // either (DESIGN.md §16): it also checks the fold's walk and
          // prefix path. Fuzz values are integers, so the sums are
          // exact and the rows must be identical.
          //
          // Oracle 6: the same configs with the index and hash joins off
          // too, so every join of the rewrite is a NestedLoopJoinOp: the
          // row-at-a-time reference join, which shares no join code
          // with the band, index-probe or hash paths.
          std::optional<Result<ResultSet>> no_band;
          std::optional<Result<ResultSet>> nested_loop;
          if (config.force.has_value() &&
              variant == RewriteVariant::kDisjunctive) {
            ExecOptions& exec = db_.options().exec;
            const ExecOptions saved = exec;
            exec.enable_merge_band_join = false;
            no_band = db_.Execute(sql);
            if (s_.rows.size() <= kNestedLoopMaxRows) {
              exec.enable_index_nested_loop_join = false;
              exec.enable_hash_join = false;
              nested_loop = db_.Execute(sql);
            }
            exec = saved;
          }

          // Oracle 5: forced hash join. Partitioned rewrites join the
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
              DiffRowsCanonical(native, *derived);
          if (diff.has_value()) {
            RecordFailure(&verdict_, oracle,
                          sql + "\n  rewritten: " + derived->rewritten_sql(),
                          *diff, round);
          }
          // Replays must reproduce the rewrite's rows.
          const auto check_replay =
              [&](const char* name,
                  const std::optional<Result<ResultSet>>& replay) {
                if (!replay.has_value()) return;
                if (!replay->ok()) {
                  RecordFailure(&verdict_, name, sql,
                                replay->status().ToString(), round);
                  return;
                }
                RecordCheck(&verdict_, name);
                std::optional<std::string> replay_diff =
                    DiffRowsCanonical(*derived, **replay);
                if (replay_diff.has_value()) {
                  RecordFailure(&verdict_, name,
                                sql + "\n  rewritten: " +
                                    derived->rewritten_sql(),
                                *replay_diff, round);
                }
              };
          check_replay("band", no_band);
          check_replay("nestedloop", nested_loop);
          check_replay("hashjoin", hash_only);

          // Oracle 7: a folding band join's offset resolution against
          // the evaluator's. The rewritten SQL runs as written and as
          // its non-affine twin; both must give the same rows.
          const bool folds = std::any_of(
              derived->metrics().begin(), derived->metrics().end(),
              [](const OperatorMetricsEntry& e) {
                return e.detail.find("fold=sum") != std::string::npos;
              });
          if (folds) {
            Result<ResultSet> affine = db_.Execute(derived->rewritten_sql());
            Result<ResultSet> twin =
                db_.Execute(NonAffineBandSql(derived->rewritten_sql()));
            if (!affine.ok() || !twin.ok()) {
              RecordFailure(&verdict_, "affine", derived->rewritten_sql(),
                            (affine.ok() ? twin : affine).status().ToString(),
                            round);
            } else {
              RecordCheck(&verdict_, "affine");
              std::optional<std::string> twin_diff =
                  DiffRowsCanonical(*affine, *twin);
              if (twin_diff.has_value()) {
                RecordFailure(&verdict_, "affine", derived->rewritten_sql(),
                              *twin_diff, round);
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

std::string NonAffineBandSql(const std::string& sql) {
  static const std::string kKey = "s1.pos";
  std::string out;
  size_t from = 0;
  for (size_t at = sql.find(kKey); at != std::string::npos;
       at = sql.find(kKey, from)) {
    out.append(sql, from, at + kKey.size() - from);
    out += " * 1";
    from = at + kKey.size();
  }
  out.append(sql, from, std::string::npos);
  return out;
}

int ScenarioVerdict::TotalChecks() const {
  int total = 0;
  for (const auto& [oracle, count] : checks) {
    if (oracle != "rewrite-skipped" && oracle != "indexscan-ranged") {
      total += count;
    }
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
