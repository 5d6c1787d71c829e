#include "testing/interleave.h"

#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/metrics_registry.h"
#include "db/database.h"
#include "db/session.h"
#include "testing/fuzz_rng.h"
#include "testing/result_compare.h"

namespace rfv {
namespace fuzzing {

namespace {

struct InterleaveMetrics {
  Counter* scenarios;
  Counter* checks;
  Counter* mismatches;
};

InterleaveMetrics& Metrics() {
  static InterleaveMetrics metrics = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    InterleaveMetrics m;
    m.scenarios =
        registry.GetCounter("rfv_fuzz_interleave_scenarios_total", {},
                            "Concurrent-session interleave scenarios run");
    m.checks = registry.GetCounter("rfv_fuzz_interleave_checks_total", {},
                                   "Interleave oracle comparisons performed");
    m.mismatches =
        registry.GetCounter("rfv_fuzz_interleave_mismatches_total", {},
                            "Interleave oracle mismatches detected");
    return m;
  }();
  return metrics;
}

/// One session's DML state during generation: positions are per-session
/// monotone, so every (session, pos) pair identifies at most one row.
struct SessionGenState {
  int64_t next_pos = 1;
  std::vector<int64_t> live_positions;
  int steps_left = 0;
};

/// The key-writer part of a scenario (see interleave.h), drawn from its
/// own stream so the rest of the schedule is the one drawn without it.
/// Every row of k keeps val = 7 * id.
void AddKeyWriter(uint64_t seed, int index, InterleaveScenario* scenario) {
  FuzzRng rng(seed * 0xd1b54a32d192ed03ull + static_cast<uint64_t>(index) +
              0x6b6579ull);
  if (!rng.ChancePermille(500)) return;
  scenario->key_writer = true;
  const int64_t rows = rng.UniformInt(20, 60);
  std::vector<int64_t> ids;
  std::string insert = "INSERT INTO k VALUES ";
  for (int64_t id = 1; id <= rows; ++id) {
    insert += (id > 1 ? ", (" : "(") + std::to_string(id) + ", " +
              std::to_string(7 * id) + ")";
    ids.push_back(id);
  }
  scenario->setup.push_back("CREATE TABLE k (id INTEGER PRIMARY KEY, val "
                            "INTEGER)");
  scenario->setup.push_back(std::move(insert));
  scenario->setup.push_back("CREATE TABLE p (lo INTEGER)");
  scenario->setup.push_back("INSERT INTO p VALUES (" +
                            std::to_string(rng.UniformInt(1, rows)) + "), (" +
                            std::to_string(rng.UniformInt(1, rows)) + ")");

  // Session 0's writes to k, in program order.
  std::vector<InterleaveStep> added;
  int64_t next_id = rows + 1;
  int64_t shift = 1000;
  const int64_t writes = rng.UniformInt(4, 10);
  for (int64_t w = 0; w < writes; ++w) {
    InterleaveStep step;
    step.session = 0;
    const int64_t kind = rng.UniformInt(0, 3);
    const int64_t a = rng.Pick(ids);
    const int64_t b = a + rng.UniformInt(0, 8);
    if (kind == 0) {
      const int64_t n = rng.UniformInt(1, 3);
      step.sql = "INSERT INTO k VALUES ";
      for (int64_t r = 0; r < n; ++r, ++next_id) {
        step.sql += (r > 0 ? ", (" : "(") + std::to_string(next_id) + ", " +
                    std::to_string(7 * next_id) + ")";
        ids.push_back(next_id);
      }
    } else if (kind == 1) {
      step.sql = "DELETE FROM k WHERE id BETWEEN " + std::to_string(a) +
                 " AND " + std::to_string(a + rng.UniformInt(0, 2));
    } else if (kind == 2) {
      // Key update: moves ids (and their index entries) far out.
      step.sql = "UPDATE k SET id = id + " + std::to_string(shift) +
                 ", val = val + " + std::to_string(7 * shift) +
                 " WHERE id BETWEEN " + std::to_string(a) + " AND " +
                 std::to_string(b);
      for (int64_t id = a; id <= b; ++id) ids.push_back(id + shift);
      shift += 1000;
    } else {
      step.sql = "UPDATE k SET val = 7 * id WHERE id BETWEEN " +
                 std::to_string(a) + " AND " + std::to_string(b);
    }
    added.push_back(std::move(step));
  }
  // Readers: every other session reads k one to three times.
  for (int s = 1; s < scenario->num_sessions; ++s) {
    const int64_t reads = rng.UniformInt(1, 3);
    for (int64_t r = 0; r < reads; ++r) {
      InterleaveStep step;
      step.session = s;
      step.check = InterleaveStep::Check::kSnapshotOfKeyWriter;
      const std::string a = std::to_string(rng.UniformInt(1, rows));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          step.sql = "SELECT id, val FROM k WHERE id BETWEEN " + a + " AND " +
                     a + " + 5";
          break;
        case 1:
          step.sql = "SELECT id, val FROM k WHERE id < " + a;
          break;
        default:
          step.sql =
              "SELECT p.lo, k.id, k.val FROM p, k WHERE k.id BETWEEN p.lo "
              "AND p.lo + 3";
          break;
      }
      // Readers land anywhere among the writes.
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(added.size())));
      added.insert(added.begin() + static_cast<ptrdiff_t>(at),
                   std::move(step));
    }
  }
  // Merge into the schedule: each list keeps its own order.
  std::vector<InterleaveStep> merged;
  merged.reserve(scenario->steps.size() + added.size());
  size_t i = 0;
  size_t j = 0;
  while (i < scenario->steps.size() || j < added.size()) {
    const bool take_added =
        j < added.size() &&
        (i == scenario->steps.size() || rng.ChancePermille(500));
    merged.push_back(std::move(take_added ? added[j++] : scenario->steps[i++]));
  }
  scenario->steps = std::move(merged);
}

}  // namespace

std::string InterleaveScenario::Id() const {
  return "interleave seed" + std::to_string(seed) + "/iter" +
         std::to_string(index);
}

std::string InterleaveScenario::ToSqlScript() const {
  std::string out = "-- " + Id() + ": " + std::to_string(num_sessions) +
                    " sessions, " + std::to_string(steps.size()) +
                    " scheduled statements\n";
  if (key_writer) {
    out += "-- run with exec.enable_merge_band_join and "
           "exec.enable_hash_join off\n";
  }
  for (const std::string& sql : setup) out += sql + ";\n";
  for (const InterleaveStep& step : steps) {
    out += "-- s" + std::to_string(step.session) + "\n" + step.sql + ";\n";
  }
  return out;
}

InterleaveScenario GenerateInterleaveScenario(uint64_t seed, int index) {
  // Offset the stream from GenerateScenario's so the two generators
  // stay decorrelated when driven with the same campaign seed.
  FuzzRng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(index) +
              0x5157ull);

  InterleaveScenario scenario;
  scenario.seed = seed;
  scenario.index = index;
  scenario.num_sessions = static_cast<int>(rng.UniformInt(2, 4));
  scenario.setup.push_back(
      "CREATE TABLE t (session INTEGER, pos INTEGER, val INTEGER)");

  std::vector<SessionGenState> sessions(
      static_cast<size_t>(scenario.num_sessions));
  int64_t total_inserted = 0;  // every row the scenario ever inserts
  // Optional shared seed data: session-tagged rows in one setup insert.
  if (rng.ChancePermille(700)) {
    std::string insert = "INSERT INTO t VALUES ";
    bool first = true;
    for (int s = 0; s < scenario.num_sessions; ++s) {
      const int64_t rows = rng.UniformInt(1, 3);
      for (int64_t r = 0; r < rows; ++r) {
        if (!first) insert += ", ";
        first = false;
        SessionGenState& state = sessions[static_cast<size_t>(s)];
        insert += "(" + std::to_string(s) + ", " +
                  std::to_string(state.next_pos) + ", " +
                  std::to_string(rng.UniformInt(-50, 50)) + ")";
        state.live_positions.push_back(state.next_pos++);
        ++total_inserted;
      }
    }
    scenario.setup.push_back(std::move(insert));
  }

  int remaining = 0;
  for (SessionGenState& state : sessions) {
    state.steps_left = static_cast<int>(rng.UniformInt(4, 10));
    remaining += state.steps_left;
  }

  // The schedule: repeatedly pick a session with steps left — this
  // order IS the serial reference order.
  while (remaining > 0) {
    int s;
    do {
      s = static_cast<int>(rng.UniformInt(0, scenario.num_sessions - 1));
    } while (sessions[static_cast<size_t>(s)].steps_left == 0);
    SessionGenState& state = sessions[static_cast<size_t>(s)];
    --state.steps_left;
    --remaining;

    InterleaveStep step;
    step.session = s;
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind < 4) {  // 40%: multi-row insert of own-tagged rows
      const int64_t rows = rng.UniformInt(1, 3);
      std::string insert = "INSERT INTO t VALUES ";
      for (int64_t r = 0; r < rows; ++r) {
        if (r > 0) insert += ", ";
        insert += "(" + std::to_string(s) + ", " +
                  std::to_string(state.next_pos) + ", " +
                  std::to_string(rng.UniformInt(-50, 50)) + ")";
        state.live_positions.push_back(state.next_pos++);
        ++total_inserted;
      }
      step.sql = std::move(insert);
    } else if (kind < 6 && !state.live_positions.empty()) {  // update own row
      const int64_t pos = rng.Pick(state.live_positions);
      step.sql = "UPDATE t SET val = " +
                 std::to_string(rng.UniformInt(-50, 50)) +
                 " WHERE session = " + std::to_string(s) +
                 " AND pos = " + std::to_string(pos);
    } else if (kind == 6 && state.live_positions.size() > 1) {  // delete own
      const size_t at = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(state.live_positions.size()) - 1));
      step.sql = "DELETE FROM t WHERE session = " + std::to_string(s) +
                 " AND pos = " + std::to_string(state.live_positions[at]);
      state.live_positions.erase(state.live_positions.begin() +
                                 static_cast<long>(at));
    } else if (kind < 9) {  // own-partition select: serial == concurrent
      step.sql = "SELECT pos, val FROM t WHERE session = " + std::to_string(s);
      step.check = InterleaveStep::Check::kOwnRows;
    } else {  // global count: bounded, not exact
      step.sql = "SELECT COUNT(*) FROM t";
      step.check = InterleaveStep::Check::kGlobalCount;
      step.min_visible_rows =
          static_cast<int64_t>(state.live_positions.size());
    }
    scenario.steps.push_back(std::move(step));
  }
  // The upper count bound must be scenario-wide: in the concurrent run
  // another session's insert scheduled *after* a COUNT(*) step can
  // execute before it, and an insert-then-delete pair can straddle the
  // observation — so only "every row ever inserted" is sound.
  for (InterleaveStep& step : scenario.steps) {
    if (step.check == InterleaveStep::Check::kGlobalCount) {
      step.max_visible_rows = total_inserted;
    }
  }
  AddKeyWriter(seed, index, &scenario);
  return scenario;
}

std::string InterleaveVerdict::Summary() const {
  std::string out = "interleave: " + std::to_string(checks) + " checks, " +
                    std::to_string(failures.size()) + " failures";
  for (const std::string& f : failures) out += "\n  " + f;
  return out;
}

namespace {

struct StepResult {
  Status status = Status::OK();
  std::vector<Row> rows;
};

std::vector<StepResult> RunSerial(const InterleaveScenario& scenario,
                                  Database* db) {
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(static_cast<size_t>(scenario.num_sessions));
  for (int s = 0; s < scenario.num_sessions; ++s) {
    sessions.push_back(std::make_unique<Session>(db));
  }
  std::vector<StepResult> results(scenario.steps.size());
  for (size_t i = 0; i < scenario.steps.size(); ++i) {
    const InterleaveStep& step = scenario.steps[i];
    Result<ResultSet> rs =
        sessions[static_cast<size_t>(step.session)]->Execute(step.sql);
    if (rs.ok()) {
      results[i].rows = rs->rows();
    } else {
      results[i].status = rs.status();
    }
  }
  return results;
}

std::vector<StepResult> RunConcurrent(const InterleaveScenario& scenario,
                                      Database* db) {
  // Pre-split the schedule per session; each thread writes only its own
  // step indices, so the results vector needs no lock.
  std::vector<std::vector<size_t>> per_session(
      static_cast<size_t>(scenario.num_sessions));
  for (size_t i = 0; i < scenario.steps.size(); ++i) {
    per_session[static_cast<size_t>(scenario.steps[i].session)].push_back(i);
  }
  std::vector<StepResult> results(scenario.steps.size());
  std::vector<std::thread> threads;
  threads.reserve(per_session.size());
  for (const std::vector<size_t>& indices : per_session) {
    threads.emplace_back([&scenario, db, &results, &indices] {
      Session session(db);
      for (const size_t i : indices) {
        Result<ResultSet> rs = session.Execute(scenario.steps[i].sql);
        if (rs.ok()) {
          results[i].rows = rs->rows();
        } else {
          results[i].status = rs.status();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

std::vector<Row> FinalContents(Database* db, const std::string& sql) {
  Session session(db);
  Result<ResultSet> rs = session.Execute(sql);
  if (!rs.ok()) return {};
  return rs->rows();
}

/// Key-writer scenarios: the rows of every kSnapshotOfKeyWriter query
/// after each prefix of session 0's writes to k (answers[j] = after j
/// writes), replayed on a fresh database of its own.
std::vector<std::map<std::string, std::vector<Row>>> KeyWriterAnswers(
    const InterleaveScenario& scenario) {
  std::vector<std::map<std::string, std::vector<Row>>> answers;
  Database db;
  db.options().exec.enable_merge_band_join = false;
  db.options().exec.enable_hash_join = false;
  Session session(&db);
  for (const std::string& sql : scenario.setup) (void)session.Execute(sql);
  const auto snapshot = [&] {
    std::map<std::string, std::vector<Row>> rows;
    for (const InterleaveStep& step : scenario.steps) {
      if (step.check != InterleaveStep::Check::kSnapshotOfKeyWriter) continue;
      Result<ResultSet> rs = session.Execute(step.sql);
      if (rs.ok()) rows[step.sql] = rs->rows();
    }
    answers.push_back(std::move(rows));
  };
  snapshot();
  for (const InterleaveStep& step : scenario.steps) {
    const bool writes_k = step.sql.rfind("INSERT INTO k ", 0) == 0 ||
                          step.sql.rfind("DELETE FROM k ", 0) == 0 ||
                          step.sql.rfind("UPDATE k ", 0) == 0;
    if (!writes_k) continue;
    (void)session.Execute(step.sql);
    snapshot();
  }
  return answers;
}

}  // namespace

InterleaveVerdict RunInterleaveScenario(const InterleaveScenario& scenario) {
  Metrics().scenarios->Increment();
  InterleaveVerdict verdict;
  const auto check = [&verdict](bool ok, std::string failure) {
    ++verdict.checks;
    Metrics().checks->Increment();
    if (!ok) {
      Metrics().mismatches->Increment();
      verdict.failures.push_back(std::move(failure));
    }
  };

  Database serial_db;
  Database concurrent_db;
  for (Database* db : {&serial_db, &concurrent_db}) {
    if (scenario.key_writer) {
      db->options().exec.enable_merge_band_join = false;
      db->options().exec.enable_hash_join = false;
    }
    Session setup(db);
    for (const std::string& sql : scenario.setup) {
      const Result<ResultSet> rs = setup.Execute(sql);
      if (!rs.ok()) {
        verdict.failures.push_back("setup failed: " + rs.status().ToString());
        return verdict;
      }
    }
  }

  const std::vector<StepResult> serial = RunSerial(scenario, &serial_db);
  const std::vector<StepResult> concurrent =
      RunConcurrent(scenario, &concurrent_db);
  const std::vector<Row> serial_final =
      FinalContents(&serial_db, "SELECT session, pos, val FROM t");
  const std::vector<std::map<std::string, std::vector<Row>>> answers =
      scenario.key_writer
          ? KeyWriterAnswers(scenario)
          : std::vector<std::map<std::string, std::vector<Row>>>();

  for (size_t i = 0; i < scenario.steps.size(); ++i) {
    const InterleaveStep& step = scenario.steps[i];
    const std::string where =
        "step " + std::to_string(i) + " (s" + std::to_string(step.session) +
        ": " + step.sql + ")";
    // 1. No errors anywhere: serial failure = generator bug, concurrent
    // failure = isolation bug.
    check(serial[i].status.ok(),
          where + " failed serially: " + serial[i].status.ToString());
    check(concurrent[i].status.ok(),
          where + " failed concurrently: " + concurrent[i].status.ToString());
    if (!serial[i].status.ok() || !concurrent[i].status.ok()) continue;

    switch (step.check) {
      case InterleaveStep::Check::kOwnRows: {
        // 2. A session's own partition is single-writer: results match
        // the serial replay exactly.
        const std::optional<std::string> diff =
            DiffRowVectorsCanonical(serial[i].rows, concurrent[i].rows);
        check(!diff.has_value(),
              where + " own-rows diverged:\n" + diff.value_or(""));
        break;
      }
      case InterleaveStep::Check::kGlobalCount: {
        // 3. Global counts are bounded by [own live rows, rows ever
        // inserted] — see the header for why the final total is NOT a
        // valid upper bound.
        const int64_t count = concurrent[i].rows.empty()
                                  ? -1
                                  : concurrent[i].rows[0][0].AsInt();
        check(count >= step.min_visible_rows &&
                  count <= step.max_visible_rows,
              where + " count " + std::to_string(count) + " outside [" +
                  std::to_string(step.min_visible_rows) + ", " +
                  std::to_string(step.max_visible_rows) + "]");
        break;
      }
      case InterleaveStep::Check::kSnapshotOfKeyWriter: {
        // 5. A reader of k sees one statement boundary of session 0's
        // writes: its rows, in order, are the serial answer after some
        // prefix of them — in the serial run and the concurrent one.
        for (const StepResult* run : {&serial[i], &concurrent[i]}) {
          bool matched = false;
          for (const auto& prefix : answers) {
            const auto it = prefix.find(step.sql);
            if (it != prefix.end() && it->second == run->rows) {
              matched = true;
              break;
            }
          }
          check(matched, where + (run == &serial[i] ? " serially" : "") +
                             " returned rows no prefix of s0's writes "
                             "to k gives (" +
                             std::to_string(run->rows.size()) + " rows)");
        }
        break;
      }
      case InterleaveStep::Check::kNone:
        break;
    }
  }

  // 4. Commuting writes: both runs converge to the same contents.
  const std::optional<std::string> diff = DiffRowVectorsCanonical(
      serial_final,
      FinalContents(&concurrent_db, "SELECT session, pos, val FROM t"));
  check(!diff.has_value(), "final contents diverged:\n" + diff.value_or(""));
  if (scenario.key_writer) {
    const std::string sql = "SELECT id, val FROM k";
    const std::optional<std::string> k_diff = DiffRowVectorsCanonical(
        FinalContents(&serial_db, sql), FinalContents(&concurrent_db, sql));
    check(!k_diff.has_value(),
          "final contents of k diverged:\n" + k_diff.value_or(""));
  }
  return verdict;
}

}  // namespace fuzzing
}  // namespace rfv
