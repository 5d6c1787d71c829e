#ifndef RFVIEW_STORAGE_INDEX_H_
#define RFVIEW_STORAGE_INDEX_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/value.h"

namespace rfv {

/// An immutable ordered image of one index: the (key, row id) pairs of
/// one column over one set of rows, sorted by key (ties in row-id
/// order), with binary-search point and range lookup — the classic
/// "static B-tree" layout. It is what gives the planner the "with
/// primary key index" execution paths of the paper's Table 1/2
/// experiments: an index nested-loop join probes it in O(log n +
/// matches) instead of scanning the whole table, and a range scan reads
/// only the rows a sargable predicate allows.
///
/// Versioning contract: an image is never modified after construction.
/// Each TableSnapshot carries one lazily built image per index (see
/// IndexSlot), built from the snapshot's own rows, so a reader that
/// pinned a snapshot probes an image whose row ids address exactly that
/// snapshot, whatever DML does meanwhile. Snapshots taken while no
/// indexed key changed and no row id moved share one image.
class OrderedIndex {
 public:
  /// One index entry: a key and the row id holding it.
  struct Entry {
    Value key;
    size_t row_id;
  };

  /// Sorts `entries` by key; entries with equal keys keep their order,
  /// so entries given in row-id order stay in row-id order per key.
  OrderedIndex(std::string name, size_t column, std::vector<Entry> entries);

  /// The image of `column` over rows [0, num_rows), read through
  /// `row_at(i)` (returning the row with id i).
  template <typename RowAt>
  static std::shared_ptr<const OrderedIndex> Build(std::string name,
                                                   size_t column,
                                                   size_t num_rows,
                                                   const RowAt& row_at) {
    std::vector<Entry> entries;
    entries.reserve(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      entries.push_back(Entry{row_at(i)[column], i});
    }
    return std::make_shared<const OrderedIndex>(std::move(name), column,
                                                std::move(entries));
  }

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }
  size_t NumEntries() const { return entries_.size(); }

  /// The entries whose key lies in [*lo, *hi], in key order, without
  /// copying them out; a null bound leaves that side open (NULL keys
  /// sort below every other value, so an open low side includes them).
  std::span<const Entry> Range(const Value* lo, const Value* hi) const;

  /// Range(&lo, &hi): the per-band probe of the index nested-loop join,
  /// which filters stride bands on the keys.
  std::span<const Entry> EntriesInRange(const Value& lo,
                                        const Value& hi) const {
    return Range(&lo, &hi);
  }

  /// Row ids of Range(lo, hi), in ascending row-id order.
  std::vector<size_t> RowIdsInRange(const Value* lo, const Value* hi) const;

  /// Row ids whose key equals `key`, in ascending row-id order.
  std::vector<size_t> Lookup(const Value& key) const {
    return RowIdsInRange(&key, &key);
  }

 private:
  std::string name_;
  size_t column_;
  std::vector<Entry> entries_;
};

using OrderedIndexPtr = std::shared_ptr<const OrderedIndex>;

}  // namespace rfv

#endif  // RFVIEW_STORAGE_INDEX_H_
