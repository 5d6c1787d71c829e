#include "storage/table.h"

#include <algorithm>
#include <utility>

#include "common/epoch.h"

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
  stats_.InsertRow(schema_, rows_.back());
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
  rows_.reserve(rows_.size() + rows.size());
  for (Row& row : rows) {
    rows_.push_back(std::move(row));
    stats_.InsertRow(schema_, rows_.back());
  }
  live_rows_.store(rows_.size(), std::memory_order_release);
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
  stats_.ReplaceRow(schema_, rows_[row_id], row);
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
  stats_.ReplaceRow(schema_, rows_[row_id], updated);
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
  stats_.RemoveRow(schema_, rows_[row_id]);
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
  stats_.Clear();
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
  indexes_.push_back(IndexDef{index_name, column.value()});
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
  std::lock_guard<std::mutex> lock(snap_mu_);
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
  std::lock_guard<std::mutex> lock(snap_mu_);
  return stats_;
}

void Table::Analyze() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  stats_.Analyze(schema_, rows_);
}

TableSnapshotPtr Table::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (writer_depth_ == 0) RefreshSnapshotLocked();
  if (snapshot_ == nullptr) {
    // A write bracket opened before any reader ever pinned; the
    // committed pre-statement image is empty only if the table never
    // held committed rows, which BeginWrite guarantees by refreshing.
    snapshot_ = std::make_shared<const TableSnapshot>();
  }
  return snapshot_;
}

void Table::BeginWrite() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (writer_depth_ == 0) {
    // Capture the committed image before the statement mutates anything,
    // so concurrent PinSnapshot() calls during the bracket see it.
    RefreshSnapshotLocked();
  }
  ++writer_depth_;
}

void Table::EndWrite() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (--writer_depth_ == 0) {
    // Publish the statement's effects as one atomic snapshot flip.
    RefreshSnapshotLocked();
  }
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

void Table::RefreshSnapshotLocked() const {
  const uint64_t epoch = mutation_epoch_.load(std::memory_order_acquire);
  if (snapshot_ != nullptr && snapshot_->epoch() == epoch) return;

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
    if (!dirty && snapshot_ != nullptr && c < snapshot_->num_chunks() &&
        snapshot_->chunk(c)->rows.size() == end - pos) {
      chunks.push_back(snapshot_->chunk(c));
      continue;
    }
    auto chunk = std::make_shared<RowChunk>();
    chunk->rows.assign(rows_.begin() + static_cast<ptrdiff_t>(pos),
                       rows_.begin() + static_cast<ptrdiff_t>(end));
    chunks.push_back(std::move(chunk));
  }

  TableSnapshotPtr retired = std::move(snapshot_);
  snapshot_ = std::make_shared<const TableSnapshot>(
      std::move(chunks), rows_.size(), epoch, CurrentIndexSlotsLocked());
  dirty_chunks_.clear();
  if (retired != nullptr) {
    EpochManager& manager = EpochManager::Global();
    manager.Retire(std::static_pointer_cast<const void>(std::move(retired)));
    manager.Reclaim();
  }
}

}  // namespace rfv
