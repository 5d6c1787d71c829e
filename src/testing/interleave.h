#ifndef RFVIEW_TESTING_INTERLEAVE_H_
#define RFVIEW_TESTING_INTERLEAVE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rfv {
namespace fuzzing {

/// Differential oracle for concurrent-session interleavings.
///
/// The generator emits a deterministic schedule of (session, statement)
/// pairs over a shared table where every session writes only rows
/// tagged with its own session id — writes from different sessions
/// commute, so the serial replay of the schedule is a sound reference
/// for the concurrent run:
///
///   * serial reference — one thread executes the schedule in order;
///   * concurrent run   — one thread per session executes that
///     session's statements in schedule order, racing the others
///     through Database::Execute's full write-mutex/snapshot path.
///
/// Checks, in oracle order:
///   1. no statement errors in the concurrent run (the serial replay is
///      valid SQL by construction, so any concurrent-only failure is an
///      isolation bug — the old mutation_epoch abort is the canonical
///      example);
///   2. per-session own-partition SELECTs return exactly the serial
///      replay's rows (only the owning session writes its partition, and
///      statements are ordered within a session);
///   3. global COUNT(*) observations are bounded: at least the rows the
///      observing session itself has live at that point in its program
///      order, at most every row the scenario ever inserts (NOT the
///      final total — another session's insert-then-delete pair may
///      straddle the observation, so a mid-run count can legitimately
///      exceed the final count; a torn snapshot or lost write still
///      lands outside this bracket);
///   4. final table contents equal the serial replay's (commuting
///      writes ⇒ same fixpoint), compared under canonical row order.
///
/// About half the scenarios add an indexed table `k (id INTEGER PRIMARY
/// KEY, val INTEGER)` that session 0 alone writes: inserts, deletes,
/// key updates that move ids (`SET id = id + d`) and non-key updates.
/// The other sessions read it through range SELECTs and an index
/// nested-loop join (both databases run with the merge band and hash
/// joins off, so the join is forced onto the index). A reader sees
/// one committed statement boundary, so each of its results must equal,
/// rows and order alike, the serial answer after *some* prefix of
/// session 0's writes to k (check 5), and k's final contents must
/// converge too.

struct InterleaveStep {
  int session = 0;  ///< 0-based session index
  std::string sql;
  /// Check kind this step participates in beyond "no error":
  enum class Check { kNone, kOwnRows, kGlobalCount, kSnapshotOfKeyWriter };
  Check check = Check::kNone;
  /// kGlobalCount only: the observing session's own live rows before
  /// this step — the count a concurrent snapshot may never drop below.
  int64_t min_visible_rows = 0;
  /// kGlobalCount only: every row the scenario ever inserts (setup +
  /// all INSERT steps) — the count a snapshot may never exceed.
  int64_t max_visible_rows = 0;
};

struct InterleaveScenario {
  uint64_t seed = 0;
  int index = 0;
  int num_sessions = 2;
  std::vector<std::string> setup;  ///< DDL + seed data, run before racing
  std::vector<InterleaveStep> steps;
  /// Session 0 writes the indexed table k; readers run with the merge
  /// band and hash joins off (see the class comment).
  bool key_writer = false;

  /// "interleave seed<seed>/iter<index>" — stable log/repro identifier.
  std::string Id() const;

  /// Human-replayable transcript: setup, then the schedule in serial
  /// order with `-- s<N>` session annotations. Byte-stable.
  std::string ToSqlScript() const;
};

/// Deterministic scenario for (seed, index): same pair, same schedule,
/// on every platform.
InterleaveScenario GenerateInterleaveScenario(uint64_t seed, int index);

struct InterleaveVerdict {
  std::vector<std::string> failures;
  int checks = 0;  ///< comparisons performed across both runs

  bool ok() const { return failures.empty(); }
  /// Byte-stable rendering (no timings) for logs and determinism tests.
  std::string Summary() const;
};

/// Replays the scenario serially and concurrently against two fresh
/// Databases and runs all checks.
InterleaveVerdict RunInterleaveScenario(const InterleaveScenario& scenario);

}  // namespace fuzzing
}  // namespace rfv

#endif  // RFVIEW_TESTING_INTERLEAVE_H_
