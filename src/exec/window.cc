#include "exec/operators.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "exec/window_frame.h"
#include "expr/eval.h"

namespace rfv {

Status WindowOp::OpenImpl() {
  rows_.clear();
  extra_columns_.clear();
  pos_ = 0;
  RFV_RETURN_IF_ERROR(child_->Open());
  RFV_RETURN_IF_ERROR(DrainChild(child_.get(), &rows_));
  NoteBufferedRows(rows_.size());
  extra_columns_.reserve(calls_.size());
  for (const WindowCall& call : calls_) {
    std::vector<Value> column;
    RFV_RETURN_IF_ERROR(ComputeCall(call, &column));
    extra_columns_.push_back(std::move(column));
  }
  return Status::OK();
}

Status WindowOp::ComputeCall(const WindowCall& call,
                             std::vector<Value>* out) const {
  const size_t n = rows_.size();
  out->assign(n, Value::Null());
  if (n == 0) return Status::OK();

  // Executor-side guard for RANGE frames: value distances are only
  // meaningful along a single ascending order key. The binder rejects
  // these for SQL queries; this covers directly built operator trees.
  if (call.kind == WindowFnKind::kAggregate && call.frame.range_mode &&
      (call.order_by.size() != 1 || !call.order_by[0].ascending)) {
    return Status::ExecutionError(
        "RANGE frames require exactly one ascending ORDER BY key");
  }

  CallContext ctx;
  ctx.call = &call;

  // Evaluate the argument and the partition/order keys once per row.
  if (call.kind == WindowFnKind::kAggregate && !call.is_count_star) {
    ctx.args.resize(n);
    for (size_t i = 0; i < n; ++i) {
      RFV_ASSIGN_OR_RETURN(ctx.args[i], Evaluator::Eval(*call.arg, rows_[i]));
    }
  }
  const size_t np = call.partition_by.size();
  const size_t no = call.order_by.size();
  ctx.keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ctx.keys[i].reserve(np + no);
    for (const ExprPtr& p : call.partition_by) {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*p, rows_[i]));
      ctx.keys[i].push_back(std::move(v));
    }
    for (const SortKey& o : call.order_by) {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*o.expr, rows_[i]));
      ctx.keys[i].push_back(std::move(v));
    }
  }

  // Sort row indices by (partition keys, order keys).
  const std::vector<std::vector<Value>>& keys = ctx.keys;
  ctx.order.resize(n);
  for (size_t i = 0; i < n; ++i) ctx.order[i] = i;
  std::stable_sort(ctx.order.begin(), ctx.order.end(),
                   [&](size_t a, size_t b) {
                     for (size_t k = 0; k < np + no; ++k) {
                       const int c = keys[a][k].Compare(keys[b][k]);
                       if (c != 0) {
                         const bool ascending =
                             k < np || call.order_by[k - np].ascending;
                         return ascending ? c < 0 : c > 0;
                       }
                     }
                     return false;
                   });

  const auto same_partition = [&](size_t a, size_t b) {
    for (size_t k = 0; k < np; ++k) {
      if (keys[a][k].Compare(keys[b][k]) != 0) return false;
    }
    return true;
  };

  // Sweep each partition, a half-open range of the sorted order, as
  // soon as its end is found.
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && same_partition(ctx.order[begin], ctx.order[end])) {
      ++end;
    }
    RFV_RETURN_IF_ERROR(ProcessPartition(ctx, begin, end, out));
    begin = end;
  }
  return Status::OK();
}

Status WindowOp::ProcessPartition(const CallContext& ctx, size_t part_start,
                                  size_t part_end,
                                  std::vector<Value>* out) const {
  const WindowCall& call = *ctx.call;
  const std::vector<std::vector<Value>>& keys = ctx.keys;
  const std::vector<size_t>& order = ctx.order;
  const size_t np = call.partition_by.size();
  const size_t no = call.order_by.size();

  if (call.kind != WindowFnKind::kAggregate) {
    // Ranking functions: positional within the sorted partition.
    // RANK assigns tied order keys the same (gapped) rank.
    int64_t rank = 1;
    for (size_t i = part_start; i < part_end; ++i) {
      const int64_t row_number = static_cast<int64_t>(i - part_start) + 1;
      if (call.kind == WindowFnKind::kRank) {
        bool tied = i > part_start;
        for (size_t k = np; tied && k < np + no; ++k) {
          tied = keys[order[i]][k].Compare(keys[order[i - 1]][k]) == 0;
        }
        if (!tied) rank = row_number;
        (*out)[order[i]] = Value::Int(rank);
      } else {
        (*out)[order[i]] = Value::Int(row_number);
      }
    }
    return Status::OK();
  }

  SlidingAggregate aggregate(call.fn, call.is_count_star, call.output_type);

  if (call.frame.range_mode) {
    // RANGE frames: the window covers rows whose (single, ascending,
    // numeric) order key lies within a value distance of the current
    // key. Both value bounds are non-decreasing, so the same
    // two-pointer sweep applies with key comparisons.
    const auto key_at = [&](size_t sorted_index) -> const Value& {
      return keys[order[sorted_index]][np];
    };
    if (!call.frame.lo_unbounded && !call.frame.hi_unbounded &&
        call.frame.lo > call.frame.hi) {
      // Inverted bounds: every frame is empty. Mirror the ROWS empty-
      // frame convention (COUNT = 0, others NULL) instead of falling
      // through to the sweep, whose pop-before-push order would
      // otherwise momentarily aggregate rows that are not in any frame.
      for (size_t i = part_start; i < part_end; ++i) {
        (*out)[order[i]] =
            call.fn == AggFn::kCount ? Value::Int(0) : Value::Null();
      }
      return Status::OK();
    }
    size_t next_push = part_start;
    size_t next_pop = part_start;
    for (size_t i = part_start; i < part_end; ++i) {
      if (key_at(i).is_null()) {
        return Status::ExecutionError(
            "RANGE frame over NULL ORDER BY keys is not supported");
      }
      if (!key_at(i).is_numeric()) {
        return Status::ExecutionError(
            std::string("RANGE frames require a numeric ORDER BY key, got ") +
            DataTypeName(key_at(i).type()));
      }
      const double key = key_at(i).ToDouble();
      const double lo_bound = key + static_cast<double>(call.frame.lo);
      const double hi_bound = key + static_cast<double>(call.frame.hi);
      while (next_push < part_end &&
             (call.frame.hi_unbounded ||
              (!key_at(next_push).is_null() &&
               key_at(next_push).is_numeric() &&
               key_at(next_push).ToDouble() <= hi_bound))) {
        const size_t row_index = order[next_push];
        aggregate.Push(call.is_count_star ? Value::Int(1) : ctx.args[row_index],
                       next_push);
        ++next_push;
      }
      if (!call.frame.lo_unbounded) {
        while (next_pop < part_end && next_pop < next_push &&
               key_at(next_pop).ToDouble() < lo_bound) {
          ++next_pop;
        }
        aggregate.PopBefore(next_pop);
      }
      if (aggregate.overflowed()) {
        return Status::ExecutionError(
            "integer overflow in windowed SUM (RANGE frame at key " +
            key_at(i).ToString() + ")");
      }
      (*out)[order[i]] = aggregate.Current();
    }
    return Status::OK();
  }

  // Two-pointer sweep: both frame endpoints are monotone in the row
  // index, so each partition row is pushed and popped exactly once
  // (the paper's pipelined O(1)-per-row scheme).
  size_t next_push = part_start;
  const int64_t s = static_cast<int64_t>(part_start);
  const int64_t e = static_cast<int64_t>(part_end);
  for (size_t i = part_start; i < part_end; ++i) {
    const int64_t ii = static_cast<int64_t>(i);
    // Offsets are clamped to the partition before they are added, so
    // offsets up to +-INT64_MAX cannot overflow; the frame is the same.
    const int64_t target_lo =
        call.frame.lo_unbounded
            ? s
            : ii + std::clamp(call.frame.lo, s - ii, e - ii);
    const int64_t target_hi =
        call.frame.hi_unbounded
            ? e - 1
            : ii + std::clamp(call.frame.hi, s - 1 - ii, e - 1 - ii);
    while (static_cast<int64_t>(next_push) <= target_hi) {
      const size_t row_index = order[next_push];
      aggregate.Push(call.is_count_star ? Value::Int(1) : ctx.args[row_index],
                     next_push);
      ++next_push;
    }
    aggregate.PopBefore(static_cast<size_t>(std::max<int64_t>(target_lo, 0)));
    if (target_hi < target_lo) {
      // Empty frame: COUNT = 0, others NULL.
      (*out)[order[i]] =
          call.fn == AggFn::kCount ? Value::Int(0) : Value::Null();
    } else {
      if (aggregate.overflowed()) {
        return Status::ExecutionError(
            "integer overflow in windowed SUM (row " +
            std::to_string(i - part_start + 1) + " of partition)");
      }
      (*out)[order[i]] = aggregate.Current();
    }
  }
  return Status::OK();
}

Status WindowOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  const size_t n = std::min(kVectorSize, rows_.size() - pos_);
  const size_t input_width = schema_.NumColumns() - extra_columns_.size();
  out_vp_.Reset(schema_.NumColumns(), n);
  for (size_t i = 0; i < n; ++i) {
    out_vp_.WriteRow(i, rows_[pos_ + i]);
    // Emitted rows free their cells at once, so the buffer shrinks while
    // a consumer above (a sort) fills its own.
    rows_[pos_ + i] = Row();
  }
  for (size_t j = 0; j < extra_columns_.size(); ++j) {
    Vector& column = out_vp_.column(input_width + j);
    for (size_t i = 0; i < n; ++i) {
      column.SetValue(i, extra_columns_[j][pos_ + i]);
    }
  }
  pos_ += n;
  *out = &out_vp_;
  *eof = pos_ == rows_.size();
  return Status::OK();
}

}  // namespace rfv
