#include "exec/operators.h"

#include <algorithm>
#include <cmath>

#include "exec/vector_eval.h"
#include "expr/eval.h"

namespace rfv {

namespace {

/// Whether Value::Compare is a strict weak order on `lane`'s cells: it
/// is, unless a NaN is present (it compares greater than, and less
/// than, everything) or a double meets an int64 beyond 2^53 (mixed pairs
/// compare as doubles, so two ints that compare unequal exactly can both
/// equal one double). The in-order shortcut is exact only when it is.
void NoteOrderHazards(const Vector& lane, const SelectionVector& sel,
                      bool* has_nan, bool* has_double, bool* has_big_int) {
  constexpr int64_t kExact = int64_t{1} << 53;
  for (size_t k = 0; k < sel.size(); ++k) {
    const uint32_t i = sel[k];
    if (lane.tag(i) == DataType::kDouble) {
      *has_double = true;
      *has_nan = *has_nan || std::isnan(lane.f64(i));
    } else if (lane.tag(i) == DataType::kInt64) {
      const int64_t v = lane.i64(i);
      *has_big_int = *has_big_int || v > kExact || v < -kExact;
    }
  }
}

}  // namespace

int SortOp::CompareRows(size_t a, size_t b) const {
  const size_t ca = a / kVectorSize;
  const size_t cb = b / kVectorSize;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const int c = VectorCellCompare(KeyLane(ca, k), a % kVectorSize,
                                    KeyLane(cb, k), b % kVectorSize);
    if (c != 0) return keys_[k].ascending ? c : -c;
  }
  return 0;
}

Status SortOp::OpenImpl() {
  pos_ = 0;
  presorted_ = false;
  chunks_.clear();
  perm_.clear();
  num_rows_ = 0;
  RFV_RETURN_IF_ERROR(child_->Open());
  const size_t width = schema_.NumColumns();
  VectorProjection* vp = nullptr;
  bool eof = false;
  while (true) {
    RFV_RETURN_IF_ERROR(child_->NextVector(&vp, &eof));
    if (eof) break;
    for (size_t from = 0; from < vp->NumSelected();) {
      if (chunks_.empty() || chunks_.back().num_rows() == kVectorSize) {
        chunks_.emplace_back();
        chunks_.back().Reset(width, 0);
      }
      VectorProjection& chunk = chunks_.back();
      from += chunk.AppendRows(*vp, from, kVectorSize - chunk.num_rows());
    }
  }
  for (const VectorProjection& chunk : chunks_) num_rows_ += chunk.num_rows();
  NoteBufferedRows(num_rows_);

  // Key lanes, evaluated once per chunk. On an evaluation error, the
  // error raised is the first one in (row, key) order, so the rows are
  // re-evaluated one by one to find exactly that one.
  const size_t nk = keys_.size();
  key_lanes_.assign(nk * chunks_.size(), Vector());
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const VectorProjection& chunk = chunks_[c];
    for (size_t k = 0; k < nk; ++k) {
      const Status st = VectorEvaluator::Eval(*keys_[k].expr, chunk,
                                              chunk.sel(),
                                              &key_lanes_[c * nk + k]);
      if (st.ok()) continue;
      Row row;
      for (const VectorProjection& ch : chunks_) {
        for (size_t i = 0; i < ch.num_rows(); ++i) {
          ch.MaterializeRow(i, &row);
          for (const SortKey& key : keys_) {
            RFV_RETURN_IF_ERROR(Evaluator::Eval(*key.expr, row).status());
          }
        }
      }
      return st;
    }
  }

  // Pass-through: with a strict weak order, a sequence in which no row
  // is less than its predecessor is sorted, and stable_sort's result is
  // the unique stable sorted order — the identity (DESIGN.md §13).
  bool order_is_weak = true;
  for (size_t k = 0; k < nk && order_is_weak; ++k) {
    bool has_nan = false;
    bool has_double = false;
    bool has_big_int = false;
    for (size_t c = 0; c < chunks_.size(); ++c) {
      NoteOrderHazards(KeyLane(c, k), chunks_[c].sel(), &has_nan,
                       &has_double, &has_big_int);
    }
    order_is_weak = !has_nan && !(has_double && has_big_int);
  }
  if (order_is_weak) {
    presorted_ = true;
    for (size_t r = 1; r < num_rows_ && presorted_; ++r) {
      presorted_ = CompareRows(r, r - 1) >= 0;
    }
  }
  if (presorted_) return Status::OK();
  // A stable sort of row indices, so rows with equal keys keep their
  // input order (an ORDER BY over a scan keeps scan order among ties)
  // even when the order is not weak.
  perm_.resize(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) perm_[r] = r;
  std::stable_sort(perm_.begin(), perm_.end(), [this](size_t a, size_t b) {
    return CompareRows(a, b) < 0;
  });
  return Status::OK();
}

Status SortOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  if (pos_ < num_rows_) {
    if (presorted_) {
      VectorProjection& chunk = chunks_[pos_ / kVectorSize];
      pos_ += chunk.num_rows();
      *out = &chunk;
    } else {
      const size_t n = std::min(kVectorSize, num_rows_ - pos_);
      out_vp_.Reset(schema_.NumColumns(), n);
      for (size_t c = 0; c < out_vp_.num_columns(); ++c) {
        Vector& dst = out_vp_.column(c);
        for (size_t k = 0; k < n; ++k) {
          const size_t r = perm_[pos_ + k];
          dst.CopyFrom(k, chunks_[r / kVectorSize].column(c), r % kVectorSize);
        }
      }
      pos_ += n;
      *out = &out_vp_;
    }
  }
  *eof = pos_ >= num_rows_;
  return Status::OK();
}

std::string SortOp::MetricsDetail() const {
  return presorted_ ? "presorted=1" : "presorted=0";
}

}  // namespace rfv
