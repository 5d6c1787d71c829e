#ifndef RFVIEW_STORAGE_INDEX_H_
#define RFVIEW_STORAGE_INDEX_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/value.h"

namespace rfv {

class Table;

/// An ordered secondary index over one column of a table.
///
/// The index is a sorted array of (key, row id) entries with binary-search
/// point and range lookup — the classic "static B-tree" layout. It is what
/// gives the planner the "with primary key index" execution paths of the
/// paper's Table 1/2 experiments: an index nested-loop join probes this
/// structure in O(log n + matches) instead of scanning the whole table.
///
/// Maintenance contract: `Insert` keeps the index consistent for appended
/// rows; any in-place update or delete on the owning table marks the index
/// dirty and the next lookup rebuilds it (tables in this engine are
/// read-mostly; DML batches amortize the rebuild).
class OrderedIndex {
 public:
  /// One index entry: a key and the row id holding it.
  struct Entry {
    Value key;
    size_t row_id;
  };

  /// `column` is the index key's position in the table schema.
  OrderedIndex(std::string name, size_t column)
      : name_(std::move(name)), column_(column) {}

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }

  /// Adds an entry for a newly appended row.
  void Insert(const Value& key, size_t row_id);

  /// Marks the index stale; next lookup triggers RebuildFrom.
  void MarkDirty() { dirty_ = true; }
  bool dirty() const { return dirty_; }

  /// Rebuilds all entries by scanning `table`.
  void RebuildFrom(const Table& table);

  /// Row ids whose key equals `key` (requires !dirty()).
  std::vector<size_t> Lookup(const Value& key) const;

  /// Row ids whose key lies in [lo, hi] (either bound may be omitted by
  /// passing NULL Values with `has_lo`/`has_hi` false). Requires !dirty().
  std::vector<size_t> LookupRange(const Value& lo, bool has_lo,
                                  const Value& hi, bool has_hi) const;

  /// The entries whose key lies in [lo, hi], in key order, without
  /// copying them out: the per-band probe of the index nested-loop
  /// join, which filters stride bands on the keys. Requires !dirty().
  std::span<const Entry> EntriesInRange(const Value& lo,
                                        const Value& hi) const;

  size_t NumEntries() const { return entries_.size(); }

  /// Restores sortedness after unsorted inserts. Called by the owning
  /// table before handing the index to the executor.
  void EnsureSorted();

 private:
  /// The one range search behind every lookup: entries in [*lo, *hi],
  /// a null bound leaving that side open.
  std::span<const Entry> Range(const Value* lo, const Value* hi) const;

  std::string name_;
  size_t column_;
  bool dirty_ = false;
  bool sorted_ = true;
  std::vector<Entry> entries_;
};

}  // namespace rfv

#endif  // RFVIEW_STORAGE_INDEX_H_
