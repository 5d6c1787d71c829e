#include "storage/table.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/epoch.h"
#include "common/metrics_registry.h"

namespace rfv {

Status Table::ValidateAndCoerce(Row* row) const {
  if (row->size() != schema_.NumColumns()) {
    return Status::TypeError(
        "row arity " + std::to_string(row->size()) + " does not match table " +
        name_ + " with " + std::to_string(schema_.NumColumns()) + " columns");
  }
  for (size_t i = 0; i < row->size(); ++i) {
    Value& v = row->at(i);
    if (v.is_null()) continue;
    const DataType want = schema_.column(i).type;
    const DataType have = v.type();
    if (have == want) continue;
    if (want == DataType::kDouble && have == DataType::kInt64) {
      v = Value::Double(static_cast<double>(v.AsInt()));
      continue;
    }
    if (want == DataType::kInt64 && have == DataType::kDouble) {
      // Accept doubles that are exact integers (parser produces int
      // literals, but expressions may compute doubles).
      const double d = v.AsDouble();
      const int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        v = Value::Int(as_int);
        continue;
      }
    }
    return Status::TypeError("column " + schema_.column(i).name +
                             " expects " + DataTypeName(want) + ", got " +
                             DataTypeName(have));
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  RFV_RETURN_IF_ERROR(ValidateAndCoerce(&row));
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  const size_t row_id = rows_.size();
  MarkChunksDirtyLocked(row_id, row_id);
  rows_.push_back(std::move(row));
  live_rows_.store(rows_.size(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    stats_.InsertRow(schema_, rows_.back());
  }
  index_slots_stale_ = true;
  return Status::OK();
}

Status Table::InsertBatch(std::vector<Row> rows) {
  for (Row& row : rows) {
    RFV_RETURN_IF_ERROR(ValidateAndCoerce(&row));
  }
  if (rows.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkChunksDirtyLocked(rows_.size(), rows_.size() + rows.size() - 1);
  const size_t first = rows_.size();
  rows_.reserve(rows_.size() + rows.size());
  for (Row& row : rows) rows_.push_back(std::move(row));
  live_rows_.store(rows_.size(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    for (size_t r = first; r < rows_.size(); ++r) {
      stats_.InsertRow(schema_, rows_[r]);
    }
  }
  index_slots_stale_ = true;
  return Status::OK();
}

Status Table::UpdateRow(size_t row_id, Row row) {
  if (row_id >= rows_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  RFV_RETURN_IF_ERROR(ValidateAndCoerce(&row));
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkChunksDirtyLocked(row_id, row_id);
  // An UPDATE that leaves every indexed key alone (SET val = ...) keeps
  // the index version, so the next snapshot reuses its images.
  for (const IndexDef& index : indexes_) {
    const Value& before = rows_[row_id][index.column];
    const Value& after = row[index.column];
    if (before.type() != after.type() || before.Compare(after) != 0) {
      index_slots_stale_ = true;
    }
  }
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    stats_.ReplaceRow(schema_, rows_[row_id], row);
  }
  rows_[row_id] = std::move(row);
  return Status::OK();
}

Status Table::UpdateCell(size_t row_id, size_t column, Value value) {
  if (row_id >= rows_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  if (column >= schema_.NumColumns()) {
    return Status::InvalidArgument("column out of range");
  }
  Row updated = rows_[row_id];
  updated[column] = std::move(value);
  RFV_RETURN_IF_ERROR(ValidateAndCoerce(&updated));
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkChunksDirtyLocked(row_id, row_id);
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    stats_.ReplaceRow(schema_, rows_[row_id], updated);
  }
  rows_[row_id] = std::move(updated);
  // Only a change of a key column starts a new index version — the
  // paper's incremental view maintenance updates `val` cells through
  // `pos` indexes, whose images must stay warm.
  if (IsIndexedLocked(column)) index_slots_stale_ = true;
  return Status::OK();
}

Status Table::DeleteRow(size_t row_id) {
  if (row_id >= rows_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // Every later row moves down one position.
  MarkChunksDirtyLocked(row_id, rows_.size() - 1);
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    stats_.RemoveRow(schema_, rows_[row_id]);
  }
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(row_id));
  live_rows_.store(rows_.size(), std::memory_order_release);
  index_slots_stale_ = true;
  return Status::OK();
}

void Table::Truncate() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  rows_.clear();
  live_rows_.store(0, std::memory_order_release);
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    stats_.Clear();
  }
  index_slots_stale_ = true;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column_name) {
  Result<size_t> column = schema_.FindColumn("", column_name);
  if (!column.ok()) return column.status();
  std::lock_guard<std::mutex> lock(snap_mu_);
  for (const IndexDef& index : indexes_) {
    if (index.name == index_name) {
      return Status::AlreadyExists("index " + index_name + " already exists");
    }
  }
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    indexes_.push_back(IndexDef{index_name, column.value()});
  }
  index_slots_stale_ = true;
  // Publish a snapshot that carries the new index on the next pin; no
  // chunk is dirty, so it shares every chunk with the current one.
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

OrderedIndexPtr Table::GetIndexOnColumn(size_t column) {
  IndexSlotPtr slot;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    for (const IndexSlotPtr& s : CurrentIndexSlotsLocked()) {
      if (s->column() == column) {
        slot = s;
        break;
      }
    }
  }
  if (slot == nullptr) return nullptr;
  // The caller is the writer, the only thread that mutates rows_; the
  // slot belongs to the live store's index version, so rows_ holds its
  // keys and row ids. A snapshot of the same version may share the
  // image.
  return slot->Get(rows_.size(),
                   [this](size_t i) -> const Row& { return rows_[i]; });
}

std::string Table::IndexNameOnColumn(size_t column) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  for (const IndexDef& index : indexes_) {
    if (index.column == column) return index.name;
  }
  return std::string();
}

bool Table::IsIndexedLocked(size_t column) const {
  for (const IndexDef& index : indexes_) {
    if (index.column == column) return true;
  }
  return false;
}

const std::vector<IndexSlotPtr>& Table::CurrentIndexSlotsLocked() const {
  if (index_slots_stale_) {
    std::vector<IndexSlotPtr> slots;
    slots.reserve(indexes_.size());
    for (const IndexDef& index : indexes_) {
      slots.push_back(std::make_shared<IndexSlot>(index.name, index.column));
    }
    index_slots_ = std::move(slots);
    index_slots_stale_ = false;
  }
  return index_slots_;
}

TableStats Table::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return stats_;
}

void Table::Analyze() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  // Recompute outside meta_mu_ so StatsSnapshot() waits only for the
  // swap, not for the O(rows · columns) pass.
  TableStats fresh = stats_;
  fresh.Analyze(schema_, rows_);
  std::lock_guard<std::mutex> meta_lock(meta_mu_);
  stats_ = std::move(fresh);
}

TableSnapshotPtr Table::PinSnapshot() const {
  // Registered on the first pin, so the counter reads 0 until a refresh.
  static Counter* reader_refreshes = MetricsRegistry::Global().GetCounter(
      "rfv_snapshot_reader_refresh_total", {},
      "Snapshot pins that refreshed the snapshot under the table's writer "
      "lock after an unbracketed write");
  // The depth is loaded before the snapshot: the outermost EndWrite
  // publishes before it decrements, so a depth of 0 here means every
  // bracket closed before the pin has published what the next load
  // returns. An open bracket means the published snapshot is the last
  // committed image; otherwise it is current when no mutation followed it.
  const bool bracket_open = writer_depth_.load(std::memory_order_acquire) > 0;
  TableSnapshotPtr snap = std::atomic_load(&snapshot_);
  if (bracket_open ||
      snap->epoch() == mutation_epoch_.load(std::memory_order_acquire)) {
    return snap;
  }
  bool refreshed = false;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (writer_depth_.load(std::memory_order_acquire) == 0) {
      refreshed = RefreshSnapshotLocked();
    }
    snap = std::atomic_load(&snapshot_);
  }
  if (refreshed) {
    reader_refreshes->Increment();
    EpochManager::Global().Reclaim();
  }
  return snap;
}

void Table::BeginWrite() {
  bool refreshed = false;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (writer_depth_.load(std::memory_order_relaxed) == 0) {
      // Capture the committed image before the statement mutates
      // anything, so concurrent PinSnapshot() calls during the bracket
      // see it.
      refreshed = RefreshSnapshotLocked();
    }
    writer_depth_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (refreshed) EpochManager::Global().Reclaim();
}

void Table::EndWrite() {
  bool refreshed = false;
  if (writer_depth_.load(std::memory_order_relaxed) == 1) {
    // Publish the statement's effects as one atomic snapshot flip while
    // the bracket still counts as open: concurrent pins keep returning
    // the published pointer instead of queueing on snap_mu_.
    std::lock_guard<std::mutex> lock(snap_mu_);
    refreshed = RefreshSnapshotLocked();
  }
  writer_depth_.fetch_sub(1, std::memory_order_release);
  if (refreshed) EpochManager::Global().Reclaim();
}

void Table::MarkChunksDirtyLocked(size_t first, size_t last) {
  constexpr size_t kChunkRows = TableSnapshot::kChunkRows;
  const size_t last_chunk = last / kChunkRows;
  if (dirty_chunks_.size() <= last_chunk) {
    dirty_chunks_.resize(last_chunk + 1, false);
  }
  for (size_t c = first / kChunkRows; c <= last_chunk; ++c) {
    dirty_chunks_[c] = true;
  }
}

bool Table::RefreshSnapshotLocked() const {
  static Histogram* publish_seconds = MetricsRegistry::Global().GetHistogram(
      "rfv_snapshot_publish_seconds", {},
      "Time to build and publish one table snapshot (chunk copy-on-write)");
  const uint64_t epoch = mutation_epoch_.load(std::memory_order_acquire);
  // Only stores under snap_mu_, which the caller holds, replace it.
  const TableSnapshotPtr prev = std::atomic_load(&snapshot_);
  if (prev->epoch() == epoch) return false;
  const auto start = std::chrono::steady_clock::now();

  // A chunk no mutation marked is row-for-row identical to the
  // published snapshot's chunk of the same number, provided it still
  // holds as many rows (the tail chunk grows and shrinks); share it and
  // copy only the marked ones.
  constexpr size_t kChunkRows = TableSnapshot::kChunkRows;
  std::vector<std::shared_ptr<const RowChunk>> chunks;
  chunks.reserve((rows_.size() + kChunkRows - 1) / kChunkRows);
  for (size_t c = 0, pos = 0; pos < rows_.size(); ++c, pos += kChunkRows) {
    const size_t end = std::min(pos + kChunkRows, rows_.size());
    const bool dirty = c < dirty_chunks_.size() && dirty_chunks_[c];
    if (!dirty && c < prev->num_chunks() &&
        prev->chunk(c)->rows.size() == end - pos) {
      chunks.push_back(prev->chunk(c));
      continue;
    }
    auto chunk = std::make_shared<RowChunk>();
    chunk->rows.assign(rows_.begin() + static_cast<ptrdiff_t>(pos),
                       rows_.begin() + static_cast<ptrdiff_t>(end));
    chunks.push_back(std::move(chunk));
  }

  std::atomic_store(&snapshot_,
                    std::make_shared<const TableSnapshot>(
                        std::move(chunks), rows_.size(), epoch,
                        CurrentIndexSlotsLocked()));
  dirty_chunks_.clear();
  publish_seconds->Observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  EpochManager::Global().Retire(std::static_pointer_cast<const void>(prev));
  return true;
}

}  // namespace rfv
