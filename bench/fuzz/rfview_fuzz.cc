// rfview_fuzz: differential fuzzing driver for reporting-function views.
//
// Generates seeded random scenarios (src/testing/generator.h), replays
// each one through the oracle runner (native vs. reference evaluator,
// MaxOA/MinOA rewrites vs. native, incremental maintenance vs. full
// recompute), and on any mismatch shrinks the scenario to a minimal
// reproducer and writes a replayable .sql artifact.
//
// Usage:
//   rfview_fuzz [--seed N] [--iterations N] [--interleave N]
//               [--time-budget SECONDS] [--out-dir DIR]
//               [--inject-off-by-one] [--quiet]
//
// Exit status: 0 when every scenario passed every oracle, 1 on any
// mismatch, 2 on bad usage.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "common/metrics_registry.h"
#include "testing/generator.h"
#include "testing/interleave.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"

namespace {

struct Args {
  uint64_t seed = 1;
  int iterations = 200;
  int interleave_iterations = 0;  // concurrent-session oracle scenarios
  double time_budget_s = 0;       // 0 = unlimited
  std::string out_dir = ".";
  rfv::fuzzing::OracleOptions oracle;
  bool quiet = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--iterations N] [--interleave N]\n"
      "          [--time-budget SECONDS] [--out-dir DIR]\n"
      "          [--inject-off-by-one] [--quiet]\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--iterations") {
      const char* v = next();
      if (v == nullptr) return false;
      args->iterations = std::atoi(v);
    } else if (flag == "--interleave") {
      const char* v = next();
      if (v == nullptr) return false;
      args->interleave_iterations = std::atoi(v);
    } else if (flag == "--time-budget") {
      const char* v = next();
      if (v == nullptr) return false;
      args->time_budget_s = std::atof(v);
    } else if (flag == "--out-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_dir = v;
    } else if (flag == "--inject-off-by-one") {
      args->oracle.corruption =
          rfv::fuzzing::OracleOptions::Corruption::kOffByOne;
    } else if (flag == "--quiet") {
      args->quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return args->iterations > 0 || args->interleave_iterations > 0 ||
         args->time_budget_s > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  int executed = 0;
  int failed = 0;
  int64_t total_checks = 0;
  std::map<std::string, int64_t> checks_by_oracle;

  // Concurrent-session interleave campaign: serial replay vs. racing
  // per-session threads (testing/interleave.h). Iteration-bounded, so
  // it runs before the open-ended scenario campaign consumes the time
  // budget. No shrinker — the schedule transcript is already minimal
  // enough to replay by hand.
  for (int i = 0; i < args.interleave_iterations; ++i) {
    if (args.time_budget_s > 0 && elapsed_s() >= args.time_budget_s) break;
    const rfv::fuzzing::InterleaveScenario scenario =
        rfv::fuzzing::GenerateInterleaveScenario(args.seed, i);
    const rfv::fuzzing::InterleaveVerdict verdict =
        rfv::fuzzing::RunInterleaveScenario(scenario);
    ++executed;
    total_checks += verdict.checks;
    if (!verdict.ok()) {
      ++failed;
      std::printf("MISMATCH %s\n%s\n", scenario.Id().c_str(),
                  verdict.Summary().c_str());
      const std::string path = args.out_dir + "/fuzz_interleave_seed" +
                               std::to_string(args.seed) + "_iter" +
                               std::to_string(i) + ".sql";
      std::error_code ec;
      std::filesystem::create_directories(args.out_dir, ec);
      std::ofstream out(path);
      if (out) {
        out << scenario.ToSqlScript();
        std::printf("  schedule written to %s\n", path.c_str());
      }
    }
  }

  for (int i = 0; i < args.iterations || (args.iterations <= 0 &&
                                          args.time_budget_s > 0);
       ++i) {
    if (args.time_budget_s > 0 && elapsed_s() >= args.time_budget_s) {
      if (!args.quiet) {
        std::printf("time budget reached after %d scenarios\n", executed);
      }
      break;
    }
    const rfv::fuzzing::Scenario scenario =
        rfv::fuzzing::GenerateScenario(args.seed, i);
    rfv::fuzzing::ScenarioVerdict verdict =
        rfv::fuzzing::RunScenario(scenario, args.oracle);
    ++executed;
    total_checks += verdict.TotalChecks();
    for (const auto& [oracle, n] : verdict.checks) {
      checks_by_oracle[oracle] += n;
    }

    if (!verdict.ok()) {
      ++failed;
      std::printf("MISMATCH %s (%s): %s\n", scenario.Id().c_str(),
                  rfv::fuzzing::ScenarioKindName(scenario.kind),
                  verdict.failures.front().oracle.c_str());
      const rfv::fuzzing::ShrinkResult shrunk =
          rfv::fuzzing::ShrinkScenario(scenario, args.oracle);
      std::printf(
          "  shrunk: %zu rows, %zu queries, %zu views, %zu batches "
          "(%d attempts, %d accepted)\n",
          shrunk.scenario.rows.size(), shrunk.scenario.queries.size(),
          shrunk.scenario.views.size(), shrunk.scenario.dml_batches.size(),
          shrunk.attempts, shrunk.accepted);
      const std::string path = args.out_dir + "/fuzz_repro_seed" +
                               std::to_string(args.seed) + "_iter" +
                               std::to_string(i) + ".sql";
      std::error_code ec;  // best-effort; ofstream reports the failure
      std::filesystem::create_directories(args.out_dir, ec);
      std::ofstream out(path);
      if (out) {
        out << rfv::fuzzing::ReproSql(shrunk.scenario, shrunk.verdict);
        std::printf("  repro written to %s\n", path.c_str());
      } else {
        std::printf("  could not write repro to %s\n", path.c_str());
      }
      std::printf("%s\n", shrunk.verdict.Summary().c_str());
    } else if (!args.quiet && executed % 50 == 0) {
      std::printf("...%d scenarios, %lld checks, %d mismatches (%.1fs)\n",
                  executed, static_cast<long long>(total_checks), failed,
                  elapsed_s());
    }
  }

  std::printf(
      "rfview_fuzz: seed=%llu scenarios=%d oracle_checks=%lld "
      "mismatches=%d elapsed=%.1fs\n",
      static_cast<unsigned long long>(args.seed), executed,
      static_cast<long long>(total_checks), failed, elapsed_s());
  // Per-oracle scenario checks, rewrite:* summed. rewrite-skipped and
  // indexscan-ranged are tallies, not checks.
  std::map<std::string, int64_t> summary;
  for (const auto& [oracle, n] : checks_by_oracle) {
    summary[oracle.rfind("rewrite:", 0) == 0 ? "rewrite:*" : oracle] += n;
  }
  std::printf("checks by oracle:");
  for (const auto& [oracle, n] : summary) {
    std::printf(" %s=%lld", oracle.c_str(), static_cast<long long>(n));
  }
  std::printf("\n");
  if (!args.quiet) {
    // The harness's own counters, via the engine's metrics registry.
    const std::string metrics =
        "\n" + rfv::MetricsRegistry::Global().ToPrometheusText();
    for (const char* name :
         {"rfv_fuzz_scenarios_total", "rfv_fuzz_checks_total",
          "rfv_fuzz_mismatches_total", "rfv_fuzz_interleave_scenarios_total",
          "rfv_fuzz_interleave_checks_total",
          "rfv_fuzz_interleave_mismatches_total"}) {
      // Value lines start at column 0 ("# HELP"/"# TYPE" lines do not).
      const size_t pos = metrics.find("\n" + std::string(name) + " ");
      if (pos != std::string::npos) {
        const size_t end = metrics.find('\n', pos + 1);
        std::printf("%s\n", metrics.substr(pos + 1, end - pos - 1).c_str());
      }
    }
  }
  return failed == 0 ? 0 : 1;
}
