// Shared pieces of the warehouse benchmark: the seeded generator, the
// statement a client sends, the workload interface and the result
// checks every workload builds on.

#ifndef WHBENCH_HARNESS_H_
#define WHBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"

namespace whbench {

using Clock = std::chrono::steady_clock;

inline int64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// SplitMix64 — the benchmark's only source of randomness. Every input
/// (table values, range endpoints, written values) derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// A deterministic per-(seed, stream, index) generator, so a client's
/// i-th statement is the same on every run with the same seed.
inline Rng OpRng(uint64_t seed, int64_t stream, int64_t index) {
  Rng mix(seed ^ (static_cast<uint64_t>(stream) << 48) ^
          static_cast<uint64_t>(index) * 0x2545f4914f6cdd1dull);
  return Rng(mix.Next());
}

/// One statement a client sends: a SELECT, a SQL DML statement, or a
/// view-maintenance call (PropagateBaseUpdate on `base_table`).
struct Op {
  enum class Kind { kSelect, kDml, kMaintain };
  Kind kind = Kind::kSelect;
  int shape = 0;  ///< index into the workload's shape list of its kind
  std::string sql;
  std::string base_table;  ///< kMaintain: table whose value changes
  std::string view_table;  ///< kMaintain: the dependent view's content table
  int64_t position = 0;    ///< kMaintain
  double value = 0;        ///< kMaintain
  /// Workload-specific counters captured when the op was generated
  /// (e.g. the writer's committed inserts and deletes before a concurrent
  /// COUNT(*)).
  int64_t seen[2] = {0, 0};
  bool is_write() const { return kind != Kind::kSelect; }
};

/// A closed-loop workload over one Database. Clients call NextOp from
/// their own thread only; Check may run concurrently on several clients.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int clients() const = 0;
  /// Length of the cycle in which each client's statement stream runs
  /// every one of its shapes once.
  virtual int64_t cycle_ops() const = 0;
  /// Statements each client runs before the timed phase (every shape at
  /// least twice).
  virtual int64_t warmup_ops() const = 0;

  /// Loads tables, runs ANALYZE and materializes views through SQL — the
  /// set-up the setup_s metric times. Returns false on any failure.
  virtual bool Load(rfv::Database* db) const = 0;

  /// Computes the reference results the checks compare against (after
  /// Load, untimed). Returns false when the references cannot be built.
  virtual bool Prepare(rfv::Database* db) = 0;

  /// The i-th statement of `client`.
  virtual Op NextOp(int client, int64_t i) = 0;

  /// Whether one statement's result is correct. For kMaintain ops `rs`
  /// carries the propagation's view-row count as affected().
  virtual bool Check(const Op& op, const rfv::ResultSet& rs) = 0;

  /// Called by the issuing client after a write returned.
  virtual void AfterWrite(const Op& op) { (void)op; }

  /// End-of-run invariants, checked with no client running.
  virtual bool CheckQuiesced(rfv::Database* db) = 0;

  /// One representative SQL text per read shape (replica and regret
  /// measurements run each once per shape).
  virtual std::vector<std::string> ReadShapes() const = 0;
};

/// The workload named `name` with inputs from `seed`; null when unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace whbench

#endif  // WHBENCH_HARNESS_H_
