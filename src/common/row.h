#ifndef RFVIEW_COMMON_ROW_H_
#define RFVIEW_COMMON_ROW_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/value.h"

namespace rfv {

/// A tuple of Values. Rows are plain data: the executor moves and copies
/// them freely; schema information lives separately in `Schema`.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}
  Row(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const Value& operator[](size_t i) const { return values_[i]; }
  Value& operator[](size_t i) { return values_[i]; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Concatenates two rows (used by join operators).
  static Row Concat(const Row& left, const Row& right);

  const std::vector<Value>& values() const { return values_; }

  bool operator==(const Row& other) const { return values_ == other.values_; }

  /// Renders as "(v1, v2, ...)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace rfv

#endif  // RFVIEW_COMMON_ROW_H_
