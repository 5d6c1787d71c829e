#include "testing/shrinker.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rfv {
namespace fuzzing {

namespace {

constexpr int kMaxAttempts = 400;
/// Frame offsets above this shrink by halving: stepping down by one from
/// INT64_MAX would spend the whole attempt budget on one frame.
constexpr int64_t kHalvingOffset = 64;

/// Restores the dense-positions invariant (1..n per partition) after
/// rows were removed: remaining rows keep their relative order per
/// partition and are renumbered.
void Redensify(Scenario* s) {
  if (!s->dense_positions) return;
  std::stable_sort(s->rows.begin(), s->rows.end(),
                   [](const FuzzRow& a, const FuzzRow& b) {
                     if (a.grp != b.grp) return a.grp < b.grp;
                     return a.pos.Compare(b.pos) < 0;
                   });
  std::map<int64_t, int64_t> next_pos;
  for (FuzzRow& row : s->rows) {
    row.pos = Value::Int(++next_pos[s->has_grp ? row.grp : 0]);
  }
}

class Shrinker {
 public:
  Shrinker(const Scenario& failing, const OracleOptions& options)
      : options_(options) {
    result_.scenario = failing;
    result_.verdict = RunScenario(failing, options);
  }

  ShrinkResult Run() {
    if (result_.verdict.ok()) return std::move(result_);  // nothing to do
    oracle_ = result_.verdict.failures.front().oracle;

    TruncateAfterFailingRound();
    bool changed = true;
    while (changed && result_.attempts < kMaxAttempts) {
      changed = false;
      changed |= DropQueries();
      changed |= DropViews();
      changed |= DropDmlOps();
      changed |= DropRows();
      changed |= DropGrpColumn();
      changed |= ZeroValues();
      changed |= NarrowFrames();
    }
    return std::move(result_);
  }

 private:
  /// Accepts `candidate` when it still fails the same oracle.
  bool Attempt(Scenario candidate) {
    if (result_.attempts >= kMaxAttempts) return false;
    ++result_.attempts;
    ScenarioVerdict v = RunScenario(candidate, options_);
    const bool reproduces =
        std::any_of(v.failures.begin(), v.failures.end(),
                    [&](const OracleFailure& f) { return f.oracle == oracle_; });
    if (!reproduces) return false;
    result_.scenario = std::move(candidate);
    result_.verdict = std::move(v);
    ++result_.accepted;
    return true;
  }

  /// DML batches after the first failing round cannot matter.
  void TruncateAfterFailingRound() {
    const int round = result_.verdict.failures.front().round;
    if (static_cast<int>(result_.scenario.dml_batches.size()) <= round) {
      return;
    }
    Scenario c = result_.scenario;
    c.dml_batches.resize(static_cast<size_t>(round));
    Attempt(std::move(c));
  }

  bool DropQueries() {
    bool any = false;
    for (size_t i = 0; i < result_.scenario.queries.size();) {
      if (result_.scenario.queries.size() == 1) break;
      Scenario c = result_.scenario;
      c.queries.erase(c.queries.begin() + static_cast<ptrdiff_t>(i));
      if (Attempt(std::move(c))) {
        any = true;
      } else {
        ++i;
      }
    }
    return any;
  }

  bool DropViews() {
    bool any = false;
    for (size_t i = 0; i < result_.scenario.views.size();) {
      Scenario c = result_.scenario;
      c.views.erase(c.views.begin() + static_cast<ptrdiff_t>(i));
      if (Attempt(std::move(c))) {
        any = true;
      } else {
        ++i;
      }
    }
    return any;
  }

  bool DropDmlOps() {
    bool any = false;
    // Index the live scenario afresh on every access: Attempt() replaces
    // result_.scenario, so references across it would dangle.
    for (size_t b = 0; b < result_.scenario.dml_batches.size();) {
      for (size_t i = 0; i < result_.scenario.dml_batches[b].size();) {
        Scenario c = result_.scenario;
        auto& ops = c.dml_batches[b];
        ops.erase(ops.begin() + static_cast<ptrdiff_t>(i));
        if (Attempt(std::move(c))) {
          any = true;
        } else {
          ++i;
        }
      }
      if (result_.scenario.dml_batches[b].empty()) {
        Scenario c = result_.scenario;
        c.dml_batches.erase(c.dml_batches.begin() +
                            static_cast<ptrdiff_t>(b));
        if (!Attempt(std::move(c))) ++b;
      } else {
        ++b;
      }
    }
    return any;
  }

  /// ddmin-style: halves first, then single rows.
  bool DropRows() {
    bool any = false;
    for (size_t chunk = std::max<size_t>(result_.scenario.rows.size() / 2, 1);
         ; chunk /= 2) {
      size_t start = 0;
      while (start < result_.scenario.rows.size()) {
        Scenario c = result_.scenario;
        const size_t end = std::min(start + chunk, c.rows.size());
        c.rows.erase(c.rows.begin() + static_cast<ptrdiff_t>(start),
                     c.rows.begin() + static_cast<ptrdiff_t>(end));
        Redensify(&c);
        if (Attempt(std::move(c))) {
          any = true;  // same start now names the next chunk
        } else {
          start += chunk;
        }
      }
      if (chunk <= 1) break;
    }
    return any;
  }

  /// Drops the partition column when nothing references it anymore.
  bool DropGrpColumn() {
    const Scenario& s = result_.scenario;
    if (!s.has_grp || !s.views.empty()) return false;
    const bool referenced =
        std::any_of(s.queries.begin(), s.queries.end(),
                    [](const FuzzQuery& q) {
                      return q.partition_by_grp ||
                             q.order_by.find("grp") != std::string::npos;
                    });
    if (referenced) return false;
    Scenario c = s;
    c.has_grp = false;
    Redensify(&c);
    return Attempt(std::move(c));
  }

  bool ZeroValues() {
    bool any = false;
    for (size_t i = 0; i < result_.scenario.rows.size(); ++i) {
      const Value& val = result_.scenario.rows[i].val;
      if (val.is_null() || (val.type() == DataType::kInt64 && val.AsInt() == 0) ||
          (val.type() == DataType::kDouble && val.AsDouble() == 0.0)) {
        continue;
      }
      Scenario c = result_.scenario;
      c.rows[i].val = c.val_type == DataType::kInt64 ? Value::Int(0)
                                                     : Value::Double(0);
      any |= Attempt(std::move(c));
    }
    return any;
  }

  bool NarrowFrames() {
    bool any = false;
    const auto narrow = [&](auto getter) {
      for (size_t i = 0;; ++i) {
        FuzzFrame* frame = getter(&result_.scenario, i);
        if (frame == nullptr) break;
        // l + h > 1, written so offsets near INT64_MAX cannot overflow.
        while (!frame->cumulative && frame->l > 1 - frame->h &&
               result_.attempts < kMaxAttempts) {
          Scenario c = result_.scenario;
          FuzzFrame* f = getter(&c, i);
          // Oversized offsets halve; small ones step down by one.
          int64_t* offset = f->l >= f->h ? &f->l : &f->h;
          *offset = *offset > kHalvingOffset ? *offset / 2 : *offset - 1;
          if (!Attempt(std::move(c))) break;
          any = true;
          frame = getter(&result_.scenario, i);
        }
      }
    };
    narrow([](Scenario* s, size_t i) -> FuzzFrame* {
      return i < s->queries.size() ? &s->queries[i].frame : nullptr;
    });
    narrow([](Scenario* s, size_t i) -> FuzzFrame* {
      return i < s->views.size() ? &s->views[i].frame : nullptr;
    });
    return any;
  }

  const OracleOptions& options_;
  ShrinkResult result_;
  std::string oracle_;
};

}  // namespace

ShrinkResult ShrinkScenario(const Scenario& failing,
                            const OracleOptions& options) {
  return Shrinker(failing, options).Run();
}

std::string ReproSql(const Scenario& scenario,
                     const ScenarioVerdict& verdict) {
  std::string out = scenario.ToSqlScript();
  out += "--\n-- VERDICT\n";
  const std::string summary = verdict.Summary();
  size_t start = 0;
  while (start <= summary.size()) {
    const size_t end = summary.find('\n', start);
    out += "-- " + summary.substr(start, end == std::string::npos
                                             ? std::string::npos
                                             : end - start) +
           "\n";
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

}  // namespace fuzzing
}  // namespace rfv
