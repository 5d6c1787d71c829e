#include "testing/reference_window.h"

#include <algorithm>
#include <cstdint>

namespace rfv {
namespace fuzzing {

namespace {

/// Naive frame aggregation: scans `sorted[from..to]` of the partition.
Value AggregateFrame(const std::vector<Row>& rows,
                     const std::vector<size_t>& sorted, size_t from,
                     size_t to, const RefWindowCall& call) {
  if (call.fn == FuzzFn::kCountStar) {
    return Value::Int(static_cast<int64_t>(to - from + 1));
  }
  int64_t non_null = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
  bool saw_double = false;
  Value extreme = Value::Null();
  for (size_t j = from; j <= to; ++j) {
    const Value& v = rows[sorted[j]][static_cast<size_t>(call.arg_col)];
    if (v.is_null()) continue;
    ++non_null;
    switch (call.fn) {
      case FuzzFn::kSum:
      case FuzzFn::kAvg:
        if (v.type() == DataType::kInt64) {
          int_sum += v.AsInt();
        } else {
          double_sum += v.AsDouble();
          saw_double = true;
        }
        break;
      case FuzzFn::kMin:
        if (extreme.is_null() || v.Compare(extreme) < 0) extreme = v;
        break;
      case FuzzFn::kMax:
        if (extreme.is_null() || v.Compare(extreme) > 0) extreme = v;
        break;
      default:
        break;
    }
  }
  switch (call.fn) {
    case FuzzFn::kCount:
      return Value::Int(non_null);
    case FuzzFn::kSum:
      if (non_null == 0) return Value::Null();
      return saw_double
                 ? Value::Double(double_sum + static_cast<double>(int_sum))
                 : Value::Int(int_sum);
    case FuzzFn::kAvg:
      if (non_null == 0) return Value::Null();
      return Value::Double(
          (double_sum + static_cast<double>(int_sum)) /
          static_cast<double>(non_null));
    case FuzzFn::kMin:
    case FuzzFn::kMax:
      return extreme;
    default:
      return Value::Null();
  }
}

}  // namespace

std::vector<Value> ReferenceWindow(const std::vector<Row>& rows,
                                   const RefWindowCall& call) {
  const size_t n = rows.size();
  std::vector<Value> out(n, Value::Null());
  if (n == 0) return out;

  const auto part_key = [&](size_t r) -> const Value& {
    return rows[r][static_cast<size_t>(call.partition_col)];
  };
  const auto order_key = [&](size_t r) -> const Value& {
    return rows[r][static_cast<size_t>(call.order_col)];
  };

  // Stable sort on (partition key ascending, order key per direction) —
  // the tie order every ROWS-frame implementation must agree on.
  std::vector<size_t> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = i;
  std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
    if (call.partition_col >= 0) {
      const int c = part_key(a).Compare(part_key(b));
      if (c != 0) return c < 0;
    }
    const int c = order_key(a).Compare(order_key(b));
    if (c != 0) return call.order_desc ? c > 0 : c < 0;
    return false;
  });

  const auto same_partition = [&](size_t a, size_t b) {
    if (call.partition_col < 0) return true;
    return part_key(a).Compare(part_key(b)) == 0;
  };

  size_t part_start = 0;
  while (part_start < n) {
    size_t part_end = part_start + 1;
    while (part_end < n &&
           same_partition(sorted[part_start], sorted[part_end])) {
      ++part_end;
    }

    for (size_t i = part_start; i < part_end; ++i) {
      const size_t row_index = sorted[i];
      if (call.fn == FuzzFn::kRowNumber) {
        out[row_index] = Value::Int(static_cast<int64_t>(i - part_start) + 1);
        continue;
      }
      if (call.fn == FuzzFn::kRank) {
        // RANK independent of the sort: 1 + rows in the partition whose
        // order key strictly precedes this row's.
        int64_t before = 0;
        for (size_t j = part_start; j < part_end; ++j) {
          const int c = order_key(sorted[j]).Compare(order_key(row_index));
          if (call.order_desc ? c > 0 : c < 0) ++before;
        }
        out[row_index] = Value::Int(before + 1);
        continue;
      }
      // Aggregate: positional ROWS frame [i - l, i + h] within the
      // partition. Offsets are signed and may reach +-INT64_MAX, so
      // each is clamped to the rows the partition has on either side
      // (plus one, for a frame wholly past an end) before it is used.
      int64_t from = static_cast<int64_t>(part_start);
      int64_t to = static_cast<int64_t>(i);
      if (!call.frame.cumulative) {
        const int64_t before = static_cast<int64_t>(i - part_start);
        const int64_t after = static_cast<int64_t>(part_end - 1 - i);
        from = static_cast<int64_t>(i) -
               std::clamp(call.frame.l, -(after + 1), before);
        to = static_cast<int64_t>(i) +
             std::clamp(call.frame.h, -(before + 1), after);
      }
      if (to < from) {
        // Empty frame (it excludes the current row and every row it
        // would cover lies outside the partition).
        out[row_index] = call.fn == FuzzFn::kCount ||
                                 call.fn == FuzzFn::kCountStar
                             ? Value::Int(0)
                             : Value::Null();
        continue;
      }
      out[row_index] = AggregateFrame(rows, sorted, static_cast<size_t>(from),
                                      static_cast<size_t>(to), call);
    }
    part_start = part_end;
  }
  return out;
}

}  // namespace fuzzing
}  // namespace rfv
