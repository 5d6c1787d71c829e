#ifndef RFVIEW_STORAGE_TABLE_SNAPSHOT_H_
#define RFVIEW_STORAGE_TABLE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/row.h"
#include "storage/index.h"

namespace rfv {

/// One fixed-capacity chunk of a table snapshot. Immutable once
/// published: copy-on-write happens at chunk granularity, so a DML that
/// touches row r copies only r's chunk (append copies the tail chunk)
/// and every other chunk is shared between the old and new snapshot.
struct RowChunk {
  std::vector<Row> rows;
};

/// One index of a table as seen by the snapshots of one *index
/// version*: the stretch of snapshots over which no indexed key changed
/// and no row id moved. The image is built on the first probe (not at
/// publication, so loading a table pays nothing for it) and then shared
/// by every snapshot of the version, and by the writer's probes of the
/// live store while it still matches them.
class IndexSlot {
 public:
  IndexSlot(std::string name, size_t column)
      : name_(std::move(name)), column_(column) {}

  IndexSlot(const IndexSlot&) = delete;
  IndexSlot& operator=(const IndexSlot&) = delete;

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }

  /// The image; on the first call built from `num_rows` rows read
  /// through `row_at`, which must hold this version's keys and row ids.
  template <typename RowAt>
  OrderedIndexPtr Get(size_t num_rows, const RowAt& row_at) {
    std::lock_guard<std::mutex> lock(mu_);
    if (image_ == nullptr) {
      image_ = OrderedIndex::Build(name_, column_, num_rows, row_at);
    }
    return image_;
  }

 private:
  const std::string name_;
  const size_t column_;
  std::mutex mu_;
  OrderedIndexPtr image_;
};

using IndexSlotPtr = std::shared_ptr<IndexSlot>;

/// An immutable, epoch-stamped snapshot of a table's row store: a list
/// of shared chunk pointers plus the covered row count. Readers address
/// rows by the same dense positional row ids as the live store; the
/// snapshot simply freezes the positions as of one mutation epoch.
///
/// Snapshots are published by `Table` behind `std::shared_ptr` and
/// retired into the `EpochManager` when superseded, so an open scan
/// (which pins both the pointer and a reader epoch) reads a stable
/// image no matter what DML does to the live table meanwhile.
class TableSnapshot {
 public:
  /// Rows per chunk. A power of two so row-id → (chunk, offset)
  /// addressing is shift/mask; matches kVectorSize (exec/vector.h) so
  /// one scan vector never straddles more than two chunks.
  static constexpr size_t kChunkRows = 1024;

  TableSnapshot() = default;
  TableSnapshot(std::vector<std::shared_ptr<const RowChunk>> chunks,
                size_t num_rows, uint64_t epoch,
                std::vector<IndexSlotPtr> indexes)
      : chunks_(std::move(chunks)),
        num_rows_(num_rows),
        epoch_(epoch),
        indexes_(std::move(indexes)) {}

  TableSnapshot(const TableSnapshot&) = delete;
  TableSnapshot& operator=(const TableSnapshot&) = delete;

  size_t num_rows() const { return num_rows_; }

  /// The table mutation epoch this snapshot captured.
  uint64_t epoch() const { return epoch_; }

  const Row& row(size_t row_id) const {
    return chunks_[row_id / kChunkRows]->rows[row_id % kChunkRows];
  }

  size_t num_chunks() const { return chunks_.size(); }
  const std::shared_ptr<const RowChunk>& chunk(size_t i) const {
    return chunks_[i];
  }

  /// The ordered image of the first index on `column` as of this
  /// snapshot (row ids address this snapshot's rows), built on first
  /// use; nullptr when no index covers the column.
  OrderedIndexPtr IndexOnColumn(size_t column) const {
    for (const IndexSlotPtr& slot : indexes_) {
      if (slot->column() != column) continue;
      return slot->Get(num_rows_,
                       [this](size_t i) -> const Row& { return row(i); });
    }
    return nullptr;
  }

 private:
  std::vector<std::shared_ptr<const RowChunk>> chunks_;
  size_t num_rows_ = 0;
  uint64_t epoch_ = 0;
  std::vector<IndexSlotPtr> indexes_;
};

using TableSnapshotPtr = std::shared_ptr<const TableSnapshot>;

}  // namespace rfv

#endif  // RFVIEW_STORAGE_TABLE_SNAPSHOT_H_
