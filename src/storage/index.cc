#include "storage/index.h"

#include <algorithm>

#include "common/metrics_registry.h"

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

OrderedIndex::OrderedIndex(std::string name, size_t column,
                           std::vector<Entry> entries)
    : name_(std::move(name)), column_(column), entries_(std::move(entries)) {
  const auto less = [](const Entry& a, const Entry& b) {
    return EntryLess(a.key, b.key);
  };
  // Key columns are often loaded in key order (ids, positions): one
  // linear pass then replaces the sort.
  if (!std::is_sorted(entries_.begin(), entries_.end(), less)) {
    std::stable_sort(entries_.begin(), entries_.end(), less);
  }
}

std::vector<size_t> OrderedIndex::RowIdsInRange(const Value* lo,
                                                const Value* hi) const {
  const std::span<const Entry> range = Range(lo, hi);
  std::vector<size_t> out;
  out.reserve(range.size());
  for (const Entry& entry : range) out.push_back(entry.row_id);
  if (!std::is_sorted(out.begin(), out.end())) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::span<const OrderedIndex::Entry> OrderedIndex::Range(
    const Value* lo, const Value* hi) const {
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
