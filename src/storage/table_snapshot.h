#ifndef RFVIEW_STORAGE_TABLE_SNAPSHOT_H_
#define RFVIEW_STORAGE_TABLE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/row.h"

namespace rfv {

/// One fixed-capacity chunk of a table snapshot. Immutable once
/// published: copy-on-write happens at chunk granularity, so a DML that
/// touches row r copies only r's chunk (append copies the tail chunk)
/// and every other chunk is shared between the old and new snapshot.
struct RowChunk {
  std::vector<Row> rows;
};

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
                size_t num_rows, uint64_t epoch)
      : chunks_(std::move(chunks)), num_rows_(num_rows), epoch_(epoch) {}

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

 private:
  std::vector<std::shared_ptr<const RowChunk>> chunks_;
  size_t num_rows_ = 0;
  uint64_t epoch_ = 0;
};

using TableSnapshotPtr = std::shared_ptr<const TableSnapshot>;

}  // namespace rfv

#endif  // RFVIEW_STORAGE_TABLE_SNAPSHOT_H_
