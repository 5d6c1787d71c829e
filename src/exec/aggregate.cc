#include "exec/operators.h"

#include <limits>
#include <unordered_map>

#include "common/logging.h"
#include "exec/vector_eval.h"

namespace rfv {

namespace {

/// Open-addressing int64 → group map (linear probing, power-of-two
/// capacity, at most half full): the int fast path's lookup, without a
/// node allocation per group.
class IntGroupMap {
 public:
  static constexpr size_t kNoGroup = static_cast<size_t>(-1);

  /// The group slot of `key`: its group, or kNoGroup for a new key, which
  /// the caller then sets (the key is recorded either way).
  size_t* Slot(int64_t key) {
    if (2 * (size_ + 1) > groups_.size()) Grow();
    size_t i = Hash(key);
    while (groups_[i] != kNoGroup && keys_[i] != key) i = (i + 1) & mask_;
    if (groups_[i] == kNoGroup) {
      keys_[i] = key;
      ++size_;
    }
    return &groups_[i];
  }

 private:
  size_t Hash(int64_t key) const {
    return static_cast<size_t>(
               (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> 32) &
           mask_;
  }

  void Grow() {
    std::vector<int64_t> keys = std::move(keys_);
    std::vector<size_t> groups = std::move(groups_);
    const size_t capacity = groups.empty() ? 1024 : 2 * groups.size();
    keys_.assign(capacity, 0);
    groups_.assign(capacity, kNoGroup);
    mask_ = capacity - 1;
    for (size_t j = 0; j < groups.size(); ++j) {
      if (groups[j] == kNoGroup) continue;
      size_t i = Hash(keys[j]);
      while (groups_[i] != kNoGroup) i = (i + 1) & mask_;
      keys_[i] = keys[j];
      groups_[i] = groups[j];
    }
  }

  std::vector<int64_t> keys_;
  std::vector<size_t> groups_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

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

  /// Adds lane i of `v`. SUM/AVG/COUNT never materialize a Value for
  /// the numeric tags; other tags go through Value boxing, with its
  /// failure modes.
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
  pos_ = 0;
  groups_.clear();
  num_groups_ = 0;
  RFV_RETURN_IF_ERROR(child_->Open());
  const size_t num_keys = group_by_.size();
  const size_t num_aggs = aggregates_.size();
  // Accumulators of group g: accs[g * num_aggs, (g + 1) * num_aggs).
  std::vector<Accumulator> accs;
  // Opens the next group in insertion order (the output order); its key
  // cells start NULL.
  const auto new_group = [&]() -> size_t {
    if (num_groups_ % kVectorSize == 0) {
      groups_.emplace_back();
      groups_.back().Reset(num_keys + num_aggs, kVectorSize);
    }
    for (const AggregateCall& call : aggregates_) {
      accs.emplace_back();
      accs.back().call = &call;
    }
    return num_groups_++;
  };
  const auto group_column = [&](size_t gi, size_t g) -> Vector& {
    return groups_[gi / kVectorSize].column(g);
  };

  // Global aggregation emits one row even for empty input.
  if (group_by_.empty()) new_group();

  // Keys and aggregate arguments evaluate once per vector in columnar
  // loops, and rows are folded straight from the lanes — no per-row
  // Value boxing on the numeric paths. Rows are visited in selection
  // order (ascending), so groups appear in first-arrival order and each
  // group accumulates in input order — except under a SUM fold
  // (SetFoldedInput) when one group's partials come from several left
  // rows: those partial sums are added to each other, so DOUBLE sums
  // may differ from an unfolded plan by reassociation (DESIGN.md §16).
  std::vector<Vector> key_vecs(num_keys);
  std::vector<Vector> arg_vecs(num_aggs);
  // Single-int64-key fast path: group lookup on the raw int64 lane.
  // Migrates one-way to the generic hash-bucketed lookup the first time
  // a non-int64, non-NULL key appears (the shared bulk-hash kernel then
  // hashes equal Int and Double keys alike, as Value::Hash does).
  bool int_fast = num_keys == 1;
  IntGroupMap int_groups;
  constexpr size_t kNoGroup = IntGroupMap::kNoGroup;
  size_t null_group = kNoGroup;
  // Generic path: the key columns of each vector are bulk-hashed once by
  // the HashVectorColumns kernel the joins use, and groups are found by
  // full-hash bucket plus a typed compare against the group's stored key
  // cells.
  std::unordered_map<uint64_t, std::vector<size_t>> generic_buckets;
  std::vector<uint64_t> key_hashes;
  std::vector<const Vector*> key_ptrs(num_keys);
  VectorProjection* vp = nullptr;
  bool input_eof = false;
  while (true) {
    RFV_RETURN_IF_ERROR(child_->NextVector(&vp, &input_eof));
    if (input_eof) break;
    const SelectionVector& sel = vp->sel();
    for (size_t g = 0; g < num_keys; ++g) {
      RFV_RETURN_IF_ERROR(
          VectorEvaluator::Eval(*group_by_[g], *vp, sel, &key_vecs[g]));
      key_ptrs[g] = &key_vecs[g];
    }
    for (size_t a = 0; a < num_aggs && !folded_; ++a) {
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
    if (num_keys > 0 && !int_fast) ensure_hashes();
    for (size_t k = 0; k < sel.size(); ++k) {
      const uint32_t i = sel[k];
      size_t gi = 0;
      if (num_keys > 0) {
        if (int_fast) {
          const DataType t = key_vecs[0].tag(i);
          if (t == DataType::kInt64) {
            const int64_t kv = key_vecs[0].i64(i);
            size_t* slot = int_groups.Slot(kv);
            if (*slot == kNoGroup) {
              *slot = new_group();
              group_column(*slot, 0).SetInt(*slot % kVectorSize, kv);
            }
            gi = *slot;
          } else if (t == DataType::kNull) {
            if (null_group == kNoGroup) null_group = new_group();
            gi = null_group;
          } else {
            int_fast = false;
            for (size_t g2 = 0; g2 < num_groups_; ++g2) {
              const uint64_t h = MixCellHash(
                  kKeyHashSeed, VectorCellHash(group_column(g2, 0),
                                               g2 % kVectorSize));
              generic_buckets[h].push_back(g2);
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
              for (size_t g = 0; g < num_keys && eq; ++g) {
                eq = VectorCellsEqual(key_vecs[g], i, group_column(cand, g),
                                      cand % kVectorSize);
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
            gi = new_group();
            for (size_t g = 0; g < num_keys; ++g) {
              group_column(gi, g).CopyFrom(gi % kVectorSize, key_vecs[g], i);
            }
            generic_buckets[h].push_back(gi);
          }
        }
      }
      if (num_aggs == 0) continue;  // SELECT DISTINCT: accs is empty
      Accumulator* group_accs = &accs[gi * num_aggs];
      for (size_t a = 0; a < num_aggs; ++a) {
        if (folded_) {
          group_accs[a].AddPartial(vp->column(partial_base_ + 2 * a),
                                   vp->column(partial_base_ + 2 * a + 1), i);
        } else if (aggregates_[a].is_count_star) {
          group_accs[a].AddRowForCountStar();
        } else {
          group_accs[a].AddFromVector(arg_vecs[a], i);
        }
      }
    }
  }

  for (size_t gi = 0; gi < num_groups_; ++gi) {
    for (size_t a = 0; a < num_aggs; ++a) {
      const Accumulator& acc = accs[gi * num_aggs + a];
      if (acc.overflowed()) {
        return Status::ExecutionError("integer overflow in SUM");
      }
      group_column(gi, num_keys + a).SetValue(gi % kVectorSize, acc.Finish());
    }
  }
  if (num_groups_ % kVectorSize != 0) {
    groups_.back().sel().Truncate(num_groups_ % kVectorSize);
  }
  NoteBufferedRows(num_groups_);
  return Status::OK();
}

Status HashAggregateOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  if (pos_ < num_groups_) {
    VectorProjection& chunk = groups_[pos_ / kVectorSize];
    pos_ += chunk.NumSelected();
    *out = &chunk;
  }
  *eof = pos_ >= num_groups_;
  return Status::OK();
}

}  // namespace rfv
