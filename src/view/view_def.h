#ifndef RFVIEW_VIEW_VIEW_DEF_H_
#define RFVIEW_VIEW_VIEW_DEF_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sequence/window_spec.h"

namespace rfv {

/// Copyable int64 cell with relaxed atomic access. A published
/// SequenceViewDef's `n` is rewritten by maintenance (which holds the
/// database write lock) while concurrent SELECTs read it lock-free
/// (rewriter candidate matching, rfv_system.views) — each individual
/// load/store must be atomic, but no ordering with other fields is
/// needed: n only changes together with the content table, and a reader
/// racing a refresh sees either the old or the new sequence length,
/// both of which were true of some committed state.
class RelaxedInt64 {
 public:
  RelaxedInt64(int64_t v = 0) : v_(v) {}  // NOLINT: implicit by design
  RelaxedInt64(const RelaxedInt64& other) : v_(other.load()) {}
  RelaxedInt64& operator=(const RelaxedInt64& other) {
    store(other.load());
    return *this;
  }
  RelaxedInt64& operator=(int64_t v) {
    store(v);
    return *this;
  }
  operator int64_t() const { return load(); }  // NOLINT: implicit by design
  int64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(int64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_;
};

/// Copyable atomic bool cell: a published SequenceViewDef's `stale`
/// flag, set by SQL DML under the database write lock before the base
/// table publishes its new snapshot and read lock-free by the rewriter,
/// so a reader that loads the flag clear read it before that snapshot
/// could be seen.
class AtomicFlag {
 public:
  AtomicFlag(bool v = false) : v_(v) {}  // NOLINT: implicit by design
  AtomicFlag(const AtomicFlag& other) : v_(other.load()) {}
  AtomicFlag& operator=(const AtomicFlag& other) {
    store(other.load());
    return *this;
  }
  bool load() const { return v_.load(); }
  void store(bool v) { v_.store(v); }

 private:
  std::atomic<bool> v_;
};

/// Metadata of a materialized reporting-function (sequence) view.
///
/// The view's *content* is an ordinary catalog table named `view_name`
/// with schema
///   [partition columns...,] pos INTEGER, val DOUBLE
/// holding the *complete* sequence (header positions -h+1..0 and trailer
/// n+1..n+l included, per partition when partitioned) — completeness is
/// the derivability prerequisite of paper §3.2/§6.2. The *metadata* here
/// is what the rewriter matches incoming queries against.
struct SequenceViewDef {
  std::string view_name;

  /// Source table and columns.
  std::string base_table;
  std::string value_column;   ///< aggregated measure column
  std::string order_column;   ///< dense 1..n position column (per partition)
  std::vector<std::string> partition_columns;  ///< empty = simple sequence

  SeqAggFn fn = SeqAggFn::kSum;
  WindowSpec window = WindowSpec::Cumulative();

  /// Number of raw positions n (largest partition for partitioned
  /// views; per-partition sizes live in the content table). Atomic
  /// cell: refreshed by maintenance while concurrent readers load it.
  RelaxedInt64 n = 0;

  /// Whether an ordered index on `pos` was created ("with primary key
  /// index" in the paper's experiments).
  bool indexed = true;

  /// True for views derived from *other views* by the §6 reductions
  /// (view/reduction.h). Derived views live over a synthetic position
  /// space (concatenated partitions / collapsed ordering blocks), so
  /// they are excluded from base-table query rewriting and cannot be
  /// refreshed from the base table.
  bool derived = false;

  /// Set when SQL INSERT, UPDATE or DELETE wrote the base table since
  /// the content was last computed from it: the content no longer
  /// answers queries over the base, so the rewriter declines the view.
  /// ViewManager::RefreshView clears it.
  AtomicFlag stale;

  std::string ToString() const;
};

}  // namespace rfv

#endif  // RFVIEW_VIEW_VIEW_DEF_H_
