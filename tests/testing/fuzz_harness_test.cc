// Harness-level tests for the differential fuzzer: generator
// determinism (same seed → byte-identical scenarios AND byte-identical
// verdicts), clean verdicts on fixed seeds, the injected-off-by-one
// catch + shrink-to-tiny-repro guarantee, and the metrics counters.

#include <gtest/gtest.h>

#include <map>

#include <string>

#include "common/metrics_registry.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"

namespace rfv {
namespace fuzzing {
namespace {

TEST(FuzzGeneratorTest, SameSeedSameScenarioBytes) {
  for (int i = 0; i < 40; ++i) {
    const Scenario a = GenerateScenario(7, i);
    const Scenario b = GenerateScenario(7, i);
    EXPECT_EQ(a.ToSqlScript(), b.ToSqlScript()) << "iter " << i;
  }
}

TEST(FuzzGeneratorTest, DifferentSeedsDiffer) {
  int different = 0;
  for (int i = 0; i < 10; ++i) {
    if (GenerateScenario(1, i).ToSqlScript() !=
        GenerateScenario(2, i).ToSqlScript()) {
      ++different;
    }
  }
  EXPECT_GT(different, 5);
}

TEST(FuzzGeneratorTest, CoversAllScenarioKinds) {
  bool saw[3] = {false, false, false};
  for (int i = 0; i < 50; ++i) {
    saw[static_cast<int>(GenerateScenario(3, i).kind)] = true;
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

// The rare large kind: dense sequences past one 1,024-row vector, so
// SQL-level fuzzing reaches vector boundaries. One of them must pass
// every oracle, the rewrites (and their SUM fold) included.
TEST(FuzzGeneratorTest, LargeScenariosCrossTheVectorBoundary) {
  int large = 0;
  int first = -1;
  for (int i = 0; i < 2000; ++i) {
    const Scenario s = GenerateScenario(1, i);
    if (s.rows.size() <= 1100) continue;
    EXPECT_EQ(s.kind, ScenarioKind::kRewrite) << s.Id();
    EXPECT_LE(s.rows.size(), 1300u) << s.Id();
    if (first < 0) first = i;
    ++large;
  }
  EXPECT_GE(large, 5);   // ~0.8% of scenarios
  EXPECT_LE(large, 40);
  ASSERT_GE(first, 0);
  const Scenario s = GenerateScenario(1, first);
  const ScenarioVerdict v = RunScenario(s);
  EXPECT_TRUE(v.ok()) << s.Id() << "\n" << v.Summary();
  EXPECT_GT(v.TotalChecks(), 0);
}

// Same seed → byte-identical verdict summaries across two runs.
TEST(FuzzOracleTest, SameSeedSameVerdictBytes) {
  for (int i = 0; i < 15; ++i) {
    const Scenario s = GenerateScenario(11, i);
    const ScenarioVerdict a = RunScenario(s);
    const ScenarioVerdict b = RunScenario(s);
    EXPECT_EQ(a.Summary(), b.Summary()) << s.Id();
  }
}

// The forced-hash-join oracle (partitioned rewrites replayed with the
// band and index nested-loop joins disabled) must actually fire within
// a modest seed sweep — otherwise the vectorized hash join would go
// fuzz-unexercised without anything failing.
TEST(FuzzOracleTest, HashJoinOracleFires) {
  int fired = 0;
  for (int i = 0; i < 120 && fired == 0; ++i) {
    const Scenario s = GenerateScenario(13, i);
    const ScenarioVerdict v = RunScenario(s);
    EXPECT_TRUE(v.ok()) << s.Id() << "\n" << v.Summary();
    const auto it = v.checks.find("hashjoin");
    if (it != v.checks.end()) fired += it->second;
  }
  EXPECT_GT(fired, 0);
}

// The indexscan oracle must compare real range scans, not only plain
// scans of tables too small for the range to pay: over a fixed seed,
// some of its queries read a key range — in window scenarios (NULL and
// duplicate keys) as well as in the others.
TEST(FuzzOracleTest, IndexScanOracleReadsKeyRanges) {
  std::map<ScenarioKind, int> ranged;
  int compared = 0;
  for (int i = 0; i < 60; ++i) {
    const Scenario s = GenerateScenario(1, i);
    const ScenarioVerdict v = RunScenario(s);
    EXPECT_TRUE(v.ok()) << s.Id() << "\n" << v.Summary();
    const auto checks = v.checks.find("indexscan");
    if (checks != v.checks.end()) compared += checks->second;
    const auto it = v.checks.find("indexscan-ranged");
    if (it != v.checks.end()) ranged[s.kind] += it->second;
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(ranged[ScenarioKind::kWindow], 0);
  EXPECT_GT(ranged[ScenarioKind::kRewrite] + ranged[ScenarioKind::kMaintenance],
            0);
}

TEST(FuzzOracleTest, FixedSeedsRunGreen) {
  for (int i = 0; i < 30; ++i) {
    const Scenario s = GenerateScenario(5, i);
    const ScenarioVerdict v = RunScenario(s);
    EXPECT_TRUE(v.ok()) << s.Id() << "\n" << v.Summary() << "\n"
                        << s.ToSqlScript();
    EXPECT_GT(v.TotalChecks(), 0) << s.Id();
  }
}

TEST(FuzzOracleTest, MetricsCountersAdvance) {
  Counter* scenarios = MetricsRegistry::Global().GetCounter(
      "rfv_fuzz_scenarios_total");
  Counter* checks = MetricsRegistry::Global().GetCounter(
      "rfv_fuzz_checks_total");
  const int64_t scenarios_before = scenarios->value();
  const int64_t checks_before = checks->value();
  RunScenario(GenerateScenario(5, 0));
  EXPECT_EQ(scenarios->value(), scenarios_before + 1);
  EXPECT_GT(checks->value(), checks_before);
}

// The acceptance drill: an injected off-by-one (the corruption hook
// simulates the classic frame bug in a scratch build) must be caught by
// the reference oracle and shrunk to a tiny repro — ≤ 20 rows.
TEST(FuzzShrinkerTest, InjectedOffByOneCaughtAndShrunk) {
  OracleOptions opts;
  opts.corruption = OracleOptions::Corruption::kOffByOne;
  int caught = 0;
  for (int i = 0; i < 10 && caught < 3; ++i) {
    const Scenario s = GenerateScenario(42, i);
    const ScenarioVerdict v = RunScenario(s, opts);
    if (v.ok()) continue;  // e.g. scenarios whose last window value is
                           // unchanged by the perturbation
    ++caught;
    const ShrinkResult shrunk = ShrinkScenario(s, opts);
    EXPECT_FALSE(shrunk.verdict.ok()) << s.Id();
    EXPECT_LE(shrunk.scenario.rows.size(), 20u) << s.Id();
    EXPECT_EQ(shrunk.verdict.failures.front().oracle,
              v.failures.front().oracle)
        << s.Id();

    const std::string repro = ReproSql(shrunk.scenario, shrunk.verdict);
    EXPECT_NE(repro.find("CREATE TABLE"), std::string::npos);
    EXPECT_NE(repro.find("-- verdict: FAIL"), std::string::npos);
  }
  EXPECT_GE(caught, 3) << "corruption hook failed to trigger";
}

// Shrinking a healthy scenario is a no-op.
TEST(FuzzShrinkerTest, CleanScenarioIsNotShrunk) {
  const Scenario s = GenerateScenario(5, 1);
  const ShrinkResult r = ShrinkScenario(s);
  EXPECT_TRUE(r.verdict.ok());
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.scenario.ToSqlScript(), s.ToSqlScript());
}

}  // namespace
}  // namespace fuzzing
}  // namespace rfv
