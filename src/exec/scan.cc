#include "exec/operators.h"

#include <algorithm>

namespace rfv {

Status TableScanOp::OpenImpl() {
  pos_ = 0;
  // Pin a reader epoch *before* taking the snapshot pointer: the pin
  // keeps the EpochManager from reclaiming anything retired from here
  // on, and the shared_ptr keeps this particular snapshot alive even if
  // the slot table was full. Re-Open (pipeline restarts) re-pins, so a
  // restarted scan observes DML committed since the first Open — same
  // statement-granular semantics as a fresh scan.
  epoch_guard_ = EpochGuard();
  snap_ = table_->PinSnapshot();
  if (range_.has_value()) {
    const OrderedIndexPtr index = snap_->IndexOnColumn(range_->column);
    if (index == nullptr) {
      return Status::Internal("index disappeared for range scan");
    }
    row_ids_ = index->RowIdsInRange(
        range_->lo.has_value() ? &*range_->lo : nullptr,
        range_->hi.has_value() ? &*range_->hi : nullptr);
  }
  return Status::OK();
}

Status TableScanOp::NextImpl(Row* row, bool* eof) {
  if (pos_ >= NumScanRows()) {
    *eof = true;
    return Status::OK();
  }
  *row = snap_->row(RowIdAt(pos_++));
  *eof = false;
  return Status::OK();
}

Status TableScanOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  const size_t n = NumScanRows();
  const size_t count = std::min<size_t>(kVectorSize, n - pos_);
  const size_t num_cols = schema_.NumColumns();
  vp_.Reset(num_cols, count);
  for (size_t i = 0; i < count; ++i) {
    const Row& row = snap_->row(RowIdAt(pos_ + i));
    for (size_t c = 0; c < num_cols; ++c) vp_.column(c).SetValue(i, row[c]);
  }
  pos_ += count;
  *out = &vp_;
  *eof = pos_ >= n;
  return Status::OK();
}

std::string TableScanOp::MetricsDetail() const {
  if (!range_.has_value()) return std::string();
  return "index=" + range_->index_name + " range=" + range_->ToString();
}

}  // namespace rfv
