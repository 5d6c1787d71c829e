#ifndef RFVIEW_SEQUENCE_WINDOW_SPEC_H_
#define RFVIEW_SEQUENCE_WINDOW_SPEC_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace rfv {

/// Aggregation functions of the sequence algebra (paper §2.1). COUNT is
/// "trivial (either constant or the current position)" and AVG "may be
/// directly derived from SUM and COUNT", so the derivation algorithms
/// operate on SUM and the semi-algebraic MIN/MAX; AVG support is layered
/// on top (see rewrite/derivability.*).
enum class SeqAggFn { kSum, kMin, kMax };

const char* SeqAggFnName(SeqAggFn fn);

/// The window of a simple sequence (paper §2.1, Definition "Simple
/// Sequence"). Two shapes:
///  * cumulative: w_L(k) = 0, w_H(k) = k — value k aggregates x_1..x_k;
///  * sliding (l, h): w_L(k) = k-l, w_H(k) = k+h with l, h >= 0 and
///    l + h > 0 (the paper's footnote assumption).
class WindowSpec {
 public:
  enum class Kind { kCumulative, kSliding };

  /// Cumulative window (Year-To-Date style).
  static WindowSpec Cumulative() { return WindowSpec(Kind::kCumulative, 0, 0); }

  /// Sliding window; pre-validated factory. Errors: kInvalidArgument for
  /// l < 0, h < 0, l + h == 0, or a window size 1 + l + h beyond int64.
  static Result<WindowSpec> Sliding(int64_t l, int64_t h);

  /// Sliding window; precondition-checked (crashes on invalid input).
  /// Use in tests and literals where invalid specs are bugs.
  static WindowSpec SlidingUnchecked(int64_t l, int64_t h) {
    return WindowSpec(Kind::kSliding, l, h);
  }

  Kind kind() const { return kind_; }
  bool is_cumulative() const { return kind_ == Kind::kCumulative; }
  bool is_sliding() const { return kind_ == Kind::kSliding; }

  /// Preceding extent l (sliding only).
  int64_t l() const { return l_; }
  /// Following extent h (sliding only).
  int64_t h() const { return h_; }

  /// Window size w = 1 + l + h (sliding; paper W(k) = 1+l+h).
  int64_t size() const { return 1 + l_ + h_; }

  /// OK when the complete sequence of this window over n >= 0 raw
  /// values fits int64 arithmetic: its max(n, 1) + l + h positions
  /// (header h, body n, trailer l), and so the window size too.
  /// kInvalidArgument otherwise. Cumulative windows always fit.
  Status CheckExtent(int64_t n) const;

  bool operator==(const WindowSpec& other) const {
    if (kind_ != other.kind_) return false;
    if (kind_ == Kind::kCumulative) return true;
    return l_ == other.l_ && h_ == other.h_;
  }
  bool operator!=(const WindowSpec& other) const { return !(*this == other); }

  /// "(l,h)" or "CUMULATIVE".
  std::string ToString() const;

 private:
  WindowSpec(Kind kind, int64_t l, int64_t h) : kind_(kind), l_(l), h_(h) {}

  Kind kind_;
  int64_t l_;
  int64_t h_;
};

}  // namespace rfv

#endif  // RFVIEW_SEQUENCE_WINDOW_SPEC_H_
