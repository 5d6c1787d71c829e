#include "sequence/window_spec.h"

#include <gtest/gtest.h>

#include <limits>

#include "sequence/sequence.h"

namespace rfv {
namespace {

TEST(WindowSpecTest, CumulativeConstruction) {
  const WindowSpec w = WindowSpec::Cumulative();
  EXPECT_TRUE(w.is_cumulative());
  EXPECT_FALSE(w.is_sliding());
  EXPECT_EQ(w.ToString(), "CUMULATIVE");
}

TEST(WindowSpecTest, SlidingValidated) {
  const Result<WindowSpec> ok = WindowSpec::Sliding(2, 1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->l(), 2);
  EXPECT_EQ(ok->h(), 1);
  EXPECT_EQ(ok->size(), 4);  // w = 1 + l + h
  EXPECT_EQ(ok->ToString(), "(2,1)");
}

TEST(WindowSpecTest, NegativeBoundsRejected) {
  EXPECT_EQ(WindowSpec::Sliding(-1, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WindowSpec::Sliding(2, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WindowSpecTest, DegenerateWindowRejected) {
  // The paper's footnote: l + h > 0.
  EXPECT_EQ(WindowSpec::Sliding(0, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WindowSpecTest, ExtentBeyondInt64Rejected) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // The window size 1 + l + h must fit.
  EXPECT_TRUE(WindowSpec::Sliding(0, kMax - 1).ok());
  EXPECT_EQ(WindowSpec::Sliding(0, kMax).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WindowSpec::Sliding(1, kMax).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WindowSpec::Sliding(kMax, kMax).status().code(),
            StatusCode::kInvalidArgument);
  // So must the n + l + h positions of a complete sequence over n rows.
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, kMax - 10);
  EXPECT_TRUE(spec.CheckExtent(8).ok());
  EXPECT_EQ(spec.CheckExtent(9).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(WindowSpec::Cumulative().CheckExtent(kMax).ok());
}

TEST(WindowSpecTest, OneSidedWindowsAllowed) {
  EXPECT_TRUE(WindowSpec::Sliding(0, 3).ok());  // left-bounded (l = 0)
  EXPECT_TRUE(WindowSpec::Sliding(3, 0).ok());  // right-bounded (h = 0)
}

TEST(WindowSpecTest, Equality) {
  EXPECT_EQ(WindowSpec::Cumulative(), WindowSpec::Cumulative());
  EXPECT_EQ(WindowSpec::SlidingUnchecked(1, 2),
            WindowSpec::SlidingUnchecked(1, 2));
  EXPECT_NE(WindowSpec::SlidingUnchecked(1, 2),
            WindowSpec::SlidingUnchecked(2, 1));
  EXPECT_NE(WindowSpec::Cumulative(), WindowSpec::SlidingUnchecked(1, 2));
}

TEST(SequenceTest, StoredRangeAndAccess) {
  // (l=2, h=1), n=5: complete range is [-h+1, n+l] = [0, 7].
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 1);
  std::vector<SeqValue> values(8, 1.0);
  const Sequence seq(spec, SeqAggFn::kSum, 5, 0, std::move(values));
  EXPECT_EQ(seq.first_pos(), 0);
  EXPECT_EQ(seq.last_pos(), 7);
  EXPECT_TRUE(seq.IsComplete());
  EXPECT_EQ(seq.at(0), 1.0);
  EXPECT_EQ(seq.at(-1), 0.0);  // outside stored range
  EXPECT_EQ(seq.at(8), 0.0);
}

TEST(SequenceTest, IncompleteWhenHeaderMissing) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(2, 1);
  const Sequence seq(spec, SeqAggFn::kSum, 5, 1, std::vector<SeqValue>(7, 0));
  EXPECT_FALSE(seq.IsComplete());  // missing position 0 (header)
}

TEST(SequenceTest, CumulativeCompletenessNeedsBodyOnly) {
  const Sequence seq(WindowSpec::Cumulative(), SeqAggFn::kSum, 3, 1,
                     {1, 2, 3});
  EXPECT_TRUE(seq.IsComplete());
}

TEST(SequenceTest, BodyValues) {
  const WindowSpec spec = WindowSpec::SlidingUnchecked(1, 1);
  // range [0, 4] for n=3.
  const Sequence seq(spec, SeqAggFn::kSum, 3, 0, {9, 1, 2, 3, 9});
  const std::vector<SeqValue> body = seq.BodyValues();
  ASSERT_EQ(body.size(), 3u);
  EXPECT_EQ(body[0], 1);
  EXPECT_EQ(body[2], 3);
}

TEST(SequenceTest, SeqAggFnNames) {
  EXPECT_STREQ(SeqAggFnName(SeqAggFn::kSum), "SUM");
  EXPECT_STREQ(SeqAggFnName(SeqAggFn::kMin), "MIN");
  EXPECT_STREQ(SeqAggFnName(SeqAggFn::kMax), "MAX");
}

}  // namespace
}  // namespace rfv
