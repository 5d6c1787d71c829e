#ifndef RFVIEW_TESTING_GENERATOR_H_
#define RFVIEW_TESTING_GENERATOR_H_

#include <cstdint>

#include "testing/scenario.h"

namespace rfv {
namespace fuzzing {

/// Generates the `index`-th scenario of the campaign started with
/// `seed`. Fully deterministic: (seed, index) alone decides every byte
/// of the scenario — no global state, clocks, or platform-dependent
/// library distributions are involved, so two runs of the same campaign
/// produce identical scenarios (and, engine being deterministic too,
/// identical verdicts) on any platform.
///
/// Scenario mix (approximate):
///   * ~40% kWindow      — messy data (NULLs, duplicate and gapped
///     positions, skewed and empty partitions), any window function,
///     SQL DML batches between oracle rounds;
///   * ~30% kRewrite     — dense sequences + SUM/MIN/MAX views, strict
///     rewriter-shaped aggregate queries, no DML (SQL DML does not
///     maintain views — the rewrite would correctly see stale content);
///   * ~30% kMaintenance — non-partitioned (pos, val) sequences with
///     views, DML replayed through the PropagateBase* API;
///   * ~0.8% large kRewrite — one dense 1,100–1,300-row sequence, a SUM
///     view and SUM/AVG queries, so execution crosses the 1,024-row
///     vector boundary (taken from the maintenance share).
Scenario GenerateScenario(uint64_t seed, int index);

}  // namespace fuzzing
}  // namespace rfv

#endif  // RFVIEW_TESTING_GENERATOR_H_
