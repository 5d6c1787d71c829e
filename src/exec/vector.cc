#include "exec/vector.h"

#include <algorithm>

namespace rfv {

Value Vector::GetValue(size_t i) const {
  switch (tag(i)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64:
      return Value::Int(i64_[i]);
    case DataType::kDouble:
      return Value::Double(f64_[i]);
    case DataType::kBool:
      return Value::Bool(i64_[i] != 0);
    case DataType::kString:
      return Value::String(str_[i]);
  }
  return Value::Null();
}

void Vector::SetValue(size_t i, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      SetNull(i);
      break;
    case DataType::kInt64:
      SetInt(i, v.AsInt());
      break;
    case DataType::kDouble:
      SetDouble(i, v.AsDouble());
      break;
    case DataType::kBool:
      SetBool(i, v.AsBool());
      break;
    case DataType::kString:
      SetString(i, v.AsString());
      break;
  }
}

size_t VectorProjection::AppendRows(const VectorProjection& src,
                                    size_t from, size_t max_rows) {
  RFV_CHECK_MSG(src.num_columns() == columns_.size(),
                "appending width " << src.num_columns() << " to width "
                                   << columns_.size());
  const size_t n = std::min(max_rows, src.NumSelected() - from);
  const size_t base = num_rows_;
  const std::vector<uint32_t>& sel = src.sel().indices();
  for (size_t c = 0; c < columns_.size(); ++c) {
    Vector& dst = columns_[c];
    const Vector& col = src.column(c);
    dst.Resize(base + n);
    for (size_t k = 0; k < n; ++k) dst.CopyFrom(base + k, col, sel[from + k]);
  }
  num_rows_ = base + n;
  // Extend the selection by the new rows only, so appending vector by
  // vector stays linear. A selection of `base` ascending indices below
  // `base` is already the identity.
  std::vector<uint32_t>& idx = sel_.indices();
  if (idx.size() != base) sel_.InitFull(base);
  for (size_t i = base; i < num_rows_; ++i) {
    idx.push_back(static_cast<uint32_t>(i));
  }
  return n;
}

void VectorProjection::MaterializeRow(size_t pos, Row* out) const {
  // Overwrites a row of the right width in place: row pullers reuse one
  // Row per input, so this allocates only for a fresh one.
  if (out->size() != columns_.size()) {
    *out = Row(std::vector<Value>(columns_.size()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*out)[c] = columns_[c].GetValue(pos);
  }
}

void VectorProjection::AppendSelectedTo(std::vector<Row>* out) const {
  out->reserve(out->size() + sel_.size());
  for (size_t k = 0; k < sel_.size(); ++k) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    const uint32_t pos = sel_[k];
    for (const Vector& col : columns_) values.push_back(col.GetValue(pos));
    out->emplace_back(std::move(values));
  }
}

void HashVectorColumns(const std::vector<const Vector*>& keys,
                       const SelectionVector& sel, size_t num_rows,
                       std::vector<uint64_t>* out) {
  if (out->size() < num_rows) out->resize(num_rows);
  for (size_t k = 0; k < sel.size(); ++k) (*out)[sel[k]] = kRowHashSeed;
  // Column-at-a-time: the tag branch inside VectorCellHash predicts
  // perfectly on homogeneous columns, and each pass streams one lane.
  for (const Vector* col : keys) {
    for (size_t k = 0; k < sel.size(); ++k) {
      const uint32_t p = sel[k];
      uint64_t& h = (*out)[p];
      h = MixCellHash(h, VectorCellHash(*col, p));
    }
  }
}

}  // namespace rfv
