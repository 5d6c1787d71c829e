#include "sequence/window_spec.h"

#include <algorithm>

namespace rfv {

const char* SeqAggFnName(SeqAggFn fn) {
  switch (fn) {
    case SeqAggFn::kSum: return "SUM";
    case SeqAggFn::kMin: return "MIN";
    case SeqAggFn::kMax: return "MAX";
  }
  return "?";
}

Result<WindowSpec> WindowSpec::Sliding(int64_t l, int64_t h) {
  if (l < 0 || h < 0) {
    return Status::InvalidArgument(
        "sliding window bounds must be non-negative, got l=" +
        std::to_string(l) + ", h=" + std::to_string(h));
  }
  if (l == 0 && h == 0) {
    return Status::InvalidArgument(
        "sliding window must span more than the current row (l + h > 0)");
  }
  const WindowSpec spec = SlidingUnchecked(l, h);
  RFV_RETURN_IF_ERROR(spec.CheckExtent(0));
  return spec;
}

Status WindowSpec::CheckExtent(int64_t n) const {
  if (is_cumulative()) return Status::OK();
  int64_t extent = 0;
  if (__builtin_add_overflow(std::max<int64_t>(n, 1), l_, &extent) ||
      __builtin_add_overflow(extent, h_, &extent)) {
    return Status::InvalidArgument(
        "sliding window " + ToString() + " over " + std::to_string(n) +
        " rows spans more than 2^63 - 1 positions");
  }
  return Status::OK();
}

std::string WindowSpec::ToString() const {
  if (is_cumulative()) return "CUMULATIVE";
  std::string out = "(";
  out += std::to_string(l_);
  out += ',';
  out += std::to_string(h_);
  out += ')';
  return out;
}

}  // namespace rfv
