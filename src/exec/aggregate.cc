#include "exec/operators.h"

#include <limits>

#include "common/logging.h"
#include "exec/vector_eval.h"
#include "expr/eval.h"

namespace rfv {

namespace {

/// Streaming accumulator for one aggregate call. NULL inputs are ignored
/// (SQL semantics); COUNT(*) counts rows regardless.
struct Accumulator {
  const AggregateCall* call = nullptr;
  int64_t count = 0;
  /// 128-bit so the INTEGER SUM is exact; a total outside int64_t is
  /// reported (overflowed()) rather than wrapped.
  __int128 sum_int = 0;
  double sum_double = 0;
  Value extreme;  ///< running MIN/MAX
  bool has_value = false;

  void AddRowForCountStar() { ++count; }

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    has_value = true;
    switch (call->fn) {
      case AggFn::kSum:
        if (call->output_type == DataType::kInt64) {
          sum_int += v.AsInt();
        } else {
          sum_double += v.ToDouble();
        }
        break;
      case AggFn::kAvg:
        sum_double += v.ToDouble();
        break;
      case AggFn::kCount:
        break;
      case AggFn::kMin:
        if (extreme.is_null() || v.Compare(extreme) < 0) extreme = v;
        break;
      case AggFn::kMax:
        if (extreme.is_null() || v.Compare(extreme) > 0) extreme = v;
        break;
    }
  }

  /// Vector-lane variant of Add: same semantics (including the same
  /// failure modes via Value boxing on unexpected tags), but SUM/AVG/
  /// COUNT never materialize a Value for the common numeric tags.
  void AddFromVector(const Vector& v, size_t i) {
    if (v.is_null(i)) return;
    ++count;
    has_value = true;
    const DataType t = v.tag(i);
    const bool numeric = t == DataType::kInt64 || t == DataType::kDouble;
    switch (call->fn) {
      case AggFn::kSum:
        if (call->output_type == DataType::kInt64) {
          sum_int += t == DataType::kInt64 ? v.i64(i) : v.GetValue(i).AsInt();
        } else {
          sum_double += numeric ? v.ToDouble(i) : v.GetValue(i).ToDouble();
        }
        break;
      case AggFn::kAvg:
        sum_double += numeric ? v.ToDouble(i) : v.GetValue(i).ToDouble();
        break;
      case AggFn::kCount:
        break;
      case AggFn::kMin: {
        Value val = v.GetValue(i);
        if (extreme.is_null() || val.Compare(extreme) < 0) {
          extreme = std::move(val);
        }
        break;
      }
      case AggFn::kMax: {
        Value val = v.GetValue(i);
        if (extreme.is_null() || val.Compare(extreme) > 0) {
          extreme = std::move(val);
        }
        break;
      }
    }
  }

  /// Folded-input variant (SUM only): combines one band-join partial,
  /// a (sum, non-NULL count) pair. A zero count contributes nothing, so
  /// SUM stays NULL until some partial saw a non-NULL argument.
  void AddPartial(const Vector& sum, const Vector& n, size_t i) {
    const int64_t partial_count = n.i64(i);
    if (partial_count == 0) return;
    count += partial_count;
    has_value = true;
    if (call->output_type == DataType::kInt64) {
      sum_int += sum.i64(i);
    } else {
      sum_double += sum.f64(i);
    }
  }

  bool overflowed() const {
    return call->fn == AggFn::kSum &&
           call->output_type == DataType::kInt64 &&
           (sum_int > std::numeric_limits<int64_t>::max() ||
            sum_int < std::numeric_limits<int64_t>::min());
  }

  Value Finish() const {
    switch (call->fn) {
      case AggFn::kCount:
        return Value::Int(count);
      case AggFn::kSum:
        if (!has_value) return Value::Null();
        return call->output_type == DataType::kInt64
                   ? Value::Int(static_cast<int64_t>(sum_int))
                   : Value::Double(sum_double);
      case AggFn::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum_double / static_cast<double>(count));
      case AggFn::kMin:
      case AggFn::kMax:
        return extreme;
    }
    return Value::Null();
  }
};

}  // namespace

Status HashAggregateOp::OpenImpl() {
  results_.clear();
  pos_ = 0;
  RFV_RETURN_IF_ERROR(child_->Open());

  // Group state; insertion order is preserved for deterministic output.
  std::unordered_map<std::vector<Value>, size_t, RowColumnsHash> group_index;
  std::vector<std::vector<Value>> group_keys;
  std::vector<std::vector<Accumulator>> group_accs;

  const auto new_group = [&](const std::vector<Value>& key) -> size_t {
    group_keys.push_back(key);
    std::vector<Accumulator> accs(aggregates_.size());
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      accs[i].call = &aggregates_[i];
    }
    group_accs.push_back(std::move(accs));
    return group_keys.size() - 1;
  };

  const auto finish_groups = [&]() -> Status {
    results_.reserve(group_keys.size());
    for (size_t gi = 0; gi < group_keys.size(); ++gi) {
      std::vector<Value> out = std::move(group_keys[gi]);
      for (const Accumulator& acc : group_accs[gi]) {
        if (acc.overflowed()) {
          return Status::ExecutionError("integer overflow in SUM");
        }
        out.push_back(acc.Finish());
      }
      results_.push_back(Row(std::move(out)));
    }
    NoteBufferedRows(results_.size());
    return Status::OK();
  };

  // Global aggregation emits one row even for empty input.
  if (group_by_.empty()) {
    group_index[{}] = new_group({});
  }

  // Vectorized ingest: keys and aggregate arguments evaluate once per
  // vector in columnar loops, and rows are folded straight from the
  // lanes — no per-row Value boxing on the numeric paths. Rows are
  // visited in selection order (ascending), so group insertion order and
  // floating-point accumulation order match the row path exactly —
  // except under a SUM fold (SetFoldedInput) when one group's partials
  // come from several left rows: those partial sums are added to each
  // other, so DOUBLE sums may differ from the row path by reassociation
  // (DESIGN.md §16).
  // Gated on the plan-wide knob, not on child_->vectorized(): a row-only
  // child (merge band join) still serves NextVector through the
  // transpose fallback, and the columnar key/argument evaluation wins
  // even when the input arrives as transposed batches.
  if (vector_exec_enabled()) {
    std::vector<Vector> key_vecs(group_by_.size());
    std::vector<Vector> arg_vecs(aggregates_.size());
    // Single-int64-key fast path: group lookup on the raw int64 lane.
    // Migrates one-way to the generic hash-bucketed lookup the first
    // time a non-int64, non-NULL key appears (the shared bulk-hash
    // kernel then unifies Int and Double keys exactly as the row path's
    // RowColumnsHash does).
    bool int_fast = group_by_.size() == 1;
    std::unordered_map<int64_t, size_t> int_groups;
    constexpr size_t kNoGroup = static_cast<size_t>(-1);
    size_t null_group = kNoGroup;
    // Generic path: the key columns of each vector are bulk-hashed once
    // by the HashVectorColumns kernel the joins use (hash-identical to
    // RowColumnsHash), and groups are found by full-hash bucket plus a
    // typed cell-vs-stored-key compare — the incoming key is boxed only
    // when it starts a new group.
    std::unordered_map<uint64_t, std::vector<size_t>> generic_buckets;
    std::vector<uint64_t> key_hashes;
    std::vector<const Vector*> key_ptrs(group_by_.size());
    bool input_eof = false;
    while (!input_eof) {
      VectorProjection* vp = nullptr;
      RFV_RETURN_IF_ERROR(child_->NextVector(&vp, &input_eof));
      if (vp == nullptr || vp->NumSelected() == 0) continue;
      const SelectionVector& sel = vp->sel();
      for (size_t g = 0; g < group_by_.size(); ++g) {
        RFV_RETURN_IF_ERROR(
            VectorEvaluator::Eval(*group_by_[g], *vp, sel, &key_vecs[g]));
        key_ptrs[g] = &key_vecs[g];
      }
      for (size_t a = 0; a < aggregates_.size() && !folded_; ++a) {
        if (!aggregates_[a].is_count_star) {
          RFV_RETURN_IF_ERROR(VectorEvaluator::Eval(*aggregates_[a].arg, *vp,
                                                    sel, &arg_vecs[a]));
        }
      }
      // Bulk-hash the keys lazily: only when this vector actually needs
      // generic lookups (the int fast path may cover the whole input).
      bool hashes_ready = false;
      const auto ensure_hashes = [&]() {
        if (hashes_ready) return;
        HashVectorColumns(key_ptrs, sel, vp->num_rows(), &key_hashes);
        hashes_ready = true;
      };
      if (!group_by_.empty() && !int_fast) ensure_hashes();
      for (size_t k = 0; k < sel.size(); ++k) {
        const uint32_t i = sel[k];
        size_t gi = 0;
        if (!group_by_.empty()) {
          if (int_fast) {
            const DataType t = key_vecs[0].tag(i);
            if (t == DataType::kInt64) {
              const int64_t kv = key_vecs[0].i64(i);
              const auto it = int_groups.find(kv);
              if (it != int_groups.end()) {
                gi = it->second;
              } else {
                gi = new_group({Value::Int(kv)});
                int_groups.emplace(kv, gi);
              }
            } else if (t == DataType::kNull) {
              if (null_group == kNoGroup) {
                null_group = new_group({Value::Null()});
              }
              gi = null_group;
            } else {
              int_fast = false;
              for (size_t g2 = 0; g2 < group_keys.size(); ++g2) {
                generic_buckets[RowColumnsHash{}(group_keys[g2])].push_back(
                    g2);
              }
              ensure_hashes();
            }
          }
          if (!int_fast) {
            const uint64_t h = key_hashes[i];
            size_t found = kNoGroup;
            const auto it = generic_buckets.find(h);
            if (it != generic_buckets.end()) {
              for (const size_t cand : it->second) {
                bool eq = true;
                for (size_t g = 0; g < group_by_.size(); ++g) {
                  if (!VectorCellEqualsValue(key_vecs[g], i,
                                             group_keys[cand][g])) {
                    eq = false;
                    break;
                  }
                }
                if (eq) {
                  found = cand;
                  break;
                }
              }
            }
            if (found != kNoGroup) {
              gi = found;
            } else {
              std::vector<Value> key;
              key.reserve(group_by_.size());
              for (size_t g = 0; g < group_by_.size(); ++g) {
                key.push_back(key_vecs[g].GetValue(i));
              }
              gi = new_group(key);
              generic_buckets[h].push_back(gi);
            }
          }
        }
        std::vector<Accumulator>& accs = group_accs[gi];
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          if (folded_) {
            accs[a].AddPartial(vp->column(partial_base_ + 2 * a),
                               vp->column(partial_base_ + 2 * a + 1), i);
          } else if (aggregates_[a].is_count_star) {
            accs[a].AddRowForCountStar();
          } else {
            accs[a].AddFromVector(arg_vecs[a], i);
          }
        }
      }
    }
    return finish_groups();
  }

  // Batch pull keeps the aggregation streaming (only the accumulators
  // are buffered, never the input).
  RowBatch batch;
  bool input_eof = false;
  while (!input_eof) {
    RFV_RETURN_IF_ERROR(child_->NextBatch(&batch, &input_eof));
    for (size_t bi = 0; bi < batch.size(); ++bi) {
      const Row& row = batch.row(bi);
      std::vector<Value> key;
      key.reserve(group_by_.size());
      for (const ExprPtr& g : group_by_) {
        Value v;
        RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*g, row));
        key.push_back(std::move(v));
      }
      size_t gi;
      const auto it = group_index.find(key);
      if (it != group_index.end()) {
        gi = it->second;
      } else {
        gi = new_group(key);
        group_index.emplace(std::move(key), gi);
      }
      std::vector<Accumulator>& accs = group_accs[gi];
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (aggregates_[i].is_count_star) {
          accs[i].AddRowForCountStar();
        } else {
          Value v;
          RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*aggregates_[i].arg, row));
          accs[i].Add(v);
        }
      }
    }
  }

  return finish_groups();
}

Status HashAggregateOp::NextImpl(Row* row, bool* eof) {
  if (pos_ >= results_.size()) {
    *eof = true;
    return Status::OK();
  }
  *row = std::move(results_[pos_++]);
  *eof = false;
  return Status::OK();
}

}  // namespace rfv
