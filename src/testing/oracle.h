#ifndef RFVIEW_TESTING_ORACLE_H_
#define RFVIEW_TESTING_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "testing/scenario.h"

namespace rfv {
namespace fuzzing {

/// The oracle runner: replays one scenario against a fresh Database and
/// cross-checks every execution strategy the engine offers against the
/// trusted reference evaluator and against each other:
///
///   * reference   — native window operator vs. the naive O(n²)
///                   evaluator (reference_window.h); under a trailing
///                   ORDER BY the expected rows are stable-sorted from
///                   snapshot order and compared in order, which checks
///                   the sort's permutation;
///   * rewrite:*   — MaxOA / MinOA / automatic view rewrites (both
///                   pattern variants) vs. the native operator;
///   * band        — forced rewrites replayed with the merge band join
///                   disabled (exec.enable_merge_band_join off), so the
///                   index nested-loop join runs the same band spec on
///                   the view's position index, vs. the merge band join
///                   and its SUM fold;
///   * affine      — rewrites whose merge band join folds, their SQL
///                   replayed as written and with every `s1.pos` written
///                   `s1.pos * 1` (NonAffineBandSql): the bands, anchors
///                   and CASE leaves then resolve through the evaluator
///                   row by row instead of from the key by offsets, and
///                   the rows must be identical;
///   * hashjoin    — partitioned rewrites replayed with the band and
///                   index joins off, so their equi-join runs through
///                   the hash join;
///   * maintenance — incrementally maintained view content vs. a full
///                   recompute (ViewManager::RefreshView) after every
///                   DML batch;
///   * indexscan   — sargable SELECTs on every `pos`-indexed table vs.
///                   the same SELECTs with the key made non-sargable
///                   (`pos + 0`): the range scan must return the full
///                   scan's rows in the same order.
///
/// Row comparisons run under canonical row ordering (result_compare.h),
/// so plans without a final sort cannot produce order-only false
/// positives — except `reference` under a trailing ORDER BY and
/// `indexscan`, whose two plans share one scan order.

struct OracleOptions {
  /// Test hook: simulated engine bugs, used to validate that the
  /// harness catches and shrinks real mismatches (tests + the
  /// --inject-off-by-one flag of rfview_fuzz).
  enum class Corruption {
    kNone,
    /// Adds 1 to the window column of the last row of every native
    /// serial window-query result — the classic frame off-by-one.
    kOffByOne,
  };
  Corruption corruption = Corruption::kNone;
};

struct OracleFailure {
  std::string oracle;  ///< "reference", "rewrite:…", …
  std::string detail;  ///< offending query SQL / view name / DML op
  std::string diff;    ///< first differing rows, row counts, or error
  int round = 0;       ///< 0 = initial data, k = after DML batch k-1
};

struct ScenarioVerdict {
  std::vector<OracleFailure> failures;
  /// Oracle name → number of comparisons performed. Skipped rewrites
  /// (method not applicable) are counted under "rewrite-skipped", the
  /// indexscan queries that read a key range under "indexscan-ranged",
  /// and the reference comparisons of frames that exclude the current
  /// row under "reference-excluding"; none counts toward TotalChecks.
  std::map<std::string, int> checks;

  bool ok() const { return failures.empty(); }
  int TotalChecks() const;

  /// Byte-stable rendering (no timings) — the determinism tests compare
  /// these strings across runs.
  std::string Summary() const;
};

/// `sql` with every `s1.pos` written `s1.pos * 1`: the same values, but
/// the rewrite patterns' band bounds, anchors and CASE conditions over
/// their left key s1.pos are no longer affine (DESIGN.md §16 "Affine
/// bands"), so a band join resolves them through the evaluator.
std::string NonAffineBandSql(const std::string& sql);

/// Replays the scenario and runs every applicable oracle.
ScenarioVerdict RunScenario(const Scenario& scenario,
                            const OracleOptions& options = {});

}  // namespace fuzzing
}  // namespace rfv

#endif  // RFVIEW_TESTING_ORACLE_H_
