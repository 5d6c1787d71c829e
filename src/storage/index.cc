#include "storage/index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "storage/table.h"

namespace rfv {

namespace {

bool EntryLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }

// Probes happen per outer row in index nested-loop joins; cache the
// counter pointer so the hot path is one relaxed atomic add.
void CountProbe() {
  static Counter* probes = MetricsRegistry::Global().GetCounter(
      "rfv_index_probes_total", {},
      "Point and range lookups against ordered indexes");
  probes->Increment();
}

}  // namespace

void OrderedIndex::Insert(const Value& key, size_t row_id) {
  if (!entries_.empty() && EntryLess(key, entries_.back().key)) {
    sorted_ = false;
  }
  entries_.push_back(Entry{key, row_id});
}

void OrderedIndex::RebuildFrom(const Table& table) {
  entries_.clear();
  entries_.reserve(table.NumRows());
  for (size_t i = 0; i < table.NumRows(); ++i) {
    entries_.push_back(Entry{table.row(i)[column_], i});
  }
  sorted_ = false;
  dirty_ = false;
  EnsureSorted();
}

void OrderedIndex::EnsureSorted() {
  if (sorted_) return;
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return EntryLess(a.key, b.key);
                   });
  sorted_ = true;
}

std::vector<size_t> OrderedIndex::Lookup(const Value& key) const {
  std::vector<size_t> out;
  for (const Entry& entry : EntriesInRange(key, key)) {
    out.push_back(entry.row_id);
  }
  return out;
}

std::span<const OrderedIndex::Entry> OrderedIndex::EntriesInRange(
    const Value& lo, const Value& hi) const {
  return Range(&lo, &hi);
}

std::vector<size_t> OrderedIndex::LookupRange(const Value& lo, bool has_lo,
                                              const Value& hi,
                                              bool has_hi) const {
  std::vector<size_t> out;
  for (const Entry& entry :
       Range(has_lo ? &lo : nullptr, has_hi ? &hi : nullptr)) {
    out.push_back(entry.row_id);
  }
  return out;
}

std::span<const OrderedIndex::Entry> OrderedIndex::Range(
    const Value* lo, const Value* hi) const {
  RFV_CHECK(!dirty_);
  RFV_CHECK(sorted_);
  CountProbe();
  const auto begin =
      lo == nullptr
          ? entries_.begin()
          : std::lower_bound(entries_.begin(), entries_.end(), *lo,
                             [](const Entry& e, const Value& v) {
                               return EntryLess(e.key, v);
                             });
  if (hi == nullptr) return {begin, entries_.end()};
  // Join probes ask for short ranges, often one key: gallop from begin
  // to bracket the range's end, then binary-search the last stride.
  auto inside = begin;  // entries before it are <= hi
  auto probe = begin;
  for (size_t step = 1;
       probe != entries_.end() && !EntryLess(*hi, probe->key); step *= 2) {
    inside = probe + 1;
    probe = static_cast<size_t>(entries_.end() - inside) > step
                ? inside + step
                : entries_.end();
  }
  const auto end = std::upper_bound(
      inside, probe, *hi,
      [](const Value& v, const Entry& e) { return EntryLess(v, e.key); });
  return {begin, end};
}

}  // namespace rfv
