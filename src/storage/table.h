#ifndef RFVIEW_STORAGE_TABLE_H_
#define RFVIEW_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "stats/table_stats.h"
#include "storage/index.h"
#include "storage/table_snapshot.h"

namespace rfv {

/// An in-memory table: a named schema plus a row store and a set of
/// ordered secondary indexes.
///
/// Row ids are dense positions in the store; DELETE compacts immediately,
/// so row ids are only stable between DML statements (the executor never
/// holds row ids across statements).
///
/// Concurrency model (single writer, many readers): all mutations are
/// serialized by the caller (Database holds one write mutex per engine);
/// readers never touch `rows_` directly but pin an immutable
/// `TableSnapshot` via PinSnapshot(). Snapshots are rebuilt with
/// chunk-level copy-on-write and published at *statement* granularity:
/// a writer brackets each DML statement with BeginWrite()/EndWrite()
/// (see WriteGuard), and PinSnapshot() during the bracket returns the
/// last committed image, so a multi-row statement is never observed
/// half-applied. The published snapshot is an atomically loaded
/// pointer: a reader takes no lock when a bracket is open or the
/// snapshot is current, so it never waits for the writer to build the
/// next one. Only a pin after an unbracketed write refreshes, under
/// the writer-side lock. Superseded snapshots are retired into the
/// global EpochManager and reclaimed, outside that lock, once no reader
/// epoch can see them.
///
/// Indexes are versioned with the snapshots: each snapshot carries one
/// IndexSlot per index, whose image is built from that snapshot's rows
/// on its first probe. A mutation that changes an indexed key or moves
/// row ids (every insert and delete, an update of a key column) starts
/// a new index version; other updates keep the slots, so the next
/// snapshot reuses the image unchanged.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        snapshot_(std::make_shared<const TableSnapshot>()) {}

  // Tables own their indexes; moving would invalidate executor references.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return live_rows_.load(std::memory_order_acquire); }
  /// Writer-side: a row of the live store. Readers use PinSnapshot().
  const Row& row(size_t row_id) const { return rows_[row_id]; }

  /// Appends a row. Errors: kTypeError on arity or (strict) type
  /// mismatch; NULLs are accepted in any column, integers widen to
  /// double columns.
  Status Insert(Row row);

  /// Bulk append of many rows (one index version change for all of
  /// them). Used by workload generators and view materialization.
  Status InsertBatch(std::vector<Row> rows);

  /// Replaces the row at `row_id` (same validation as Insert).
  Status UpdateRow(size_t row_id, Row row);

  /// Sets one cell of one row.
  Status UpdateCell(size_t row_id, size_t column, Value value);

  /// Removes the row at `row_id`, compacting the store.
  Status DeleteRow(size_t row_id);

  /// Removes all rows.
  void Truncate();

  /// Creates an ordered index named `index_name` over `column_name`.
  /// Errors: kNotFound for unknown column, kAlreadyExists for duplicate
  /// index names.
  Status CreateIndex(const std::string& index_name,
                     const std::string& column_name);

  /// Writer-side probe: the image of the index on `column` over the
  /// *live* row store, so its row ids address row()/UpdateCell even in
  /// the middle of an open write bracket; nullptr when no index exists
  /// on that column. Only the thread that mutates the table may call
  /// it (the engine's write mutex holder); readers probe the image of
  /// their pinned snapshot (TableSnapshot::IndexOnColumn) instead.
  OrderedIndexPtr GetIndexOnColumn(size_t column);

  /// Name of the first index on `column`, empty when there is none.
  /// Safe to call concurrently with DML.
  std::string IndexNameOnColumn(size_t column) const;

  /// True when some index exists on `column`. Safe to call concurrently
  /// with DML.
  bool HasIndexOnColumn(size_t column) const {
    return !IndexNameOnColumn(column).empty();
  }

  /// Statistics maintained incrementally by every DML path above (row
  /// count stays exact; see TableStats for the widen-only discipline).
  /// Writer-side accessor — concurrent readers use StatsSnapshot().
  const TableStats& stats() const { return stats_; }

  /// Coherent copy of the statistics, taken under `meta_mu_` (never
  /// the snapshot lock). The planner/rewriter/system-view read paths
  /// use this so a concurrent DML statement can never expose
  /// half-updated stats.
  TableStats StatsSnapshot() const;

  /// Full statistics recomputation — the `ANALYZE` statement. Also run
  /// by the view layer after materialize/refresh so view content tables
  /// always carry exact distinct counts and tight ranges.
  void Analyze();

  /// Counter bumped by every mutation of the row store (Insert,
  /// InsertBatch, UpdateRow, UpdateCell, DeleteRow, Truncate) and by
  /// CreateIndex (so the next pin publishes a snapshot carrying the new
  /// index) — but not by Analyze. Snapshots are
  /// stamped with it, so it doubles as the staleness marker that
  /// triggers a copy-on-write refresh on the next pin.
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }

  /// Pins the current committed snapshot. Lock-free when a write
  /// bracket is open (the *last committed* snapshot is returned,
  /// whatever the live store looks like mid-statement) or when the
  /// published snapshot is current; only after an unbracketed write
  /// does it refresh the snapshot (chunked copy-on-write) under
  /// `snap_mu_`. Never returns nullptr.
  TableSnapshotPtr PinSnapshot() const;

  /// Opens a statement-granular write bracket: captures the committed
  /// image for concurrent readers, then lets the caller mutate freely.
  /// Brackets nest (maintenance cascades re-enter on the same table);
  /// only the outermost EndWrite publishes a fresh snapshot, while the
  /// bracket still counts as open, so readers keep taking the last
  /// committed image without waiting, and retires the old one into the
  /// EpochManager.
  void BeginWrite();
  void EndWrite();

  /// RAII BeginWrite/EndWrite bracket for one DML statement.
  class WriteGuard {
   public:
    explicit WriteGuard(Table* table) : table_(table) {
      if (table_ != nullptr) table_->BeginWrite();
    }
    ~WriteGuard() {
      if (table_ != nullptr) table_->EndWrite();
    }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    Table* table_;
  };

 private:
  /// Validates a row against the schema and coerces int→double where the
  /// column is kDouble.
  Status ValidateAndCoerce(Row* row) const;

  /// One index definition: its name and key column.
  struct IndexDef {
    std::string name;
    size_t column;
  };

  /// Rebuilds and publishes `snapshot_` from `rows_` when stale, sharing
  /// every chunk no mutation touched with the previous snapshot and
  /// retiring the superseded one. Returns true when it published. Caller
  /// holds snap_mu_, and calls EpochManager::Reclaim() after releasing
  /// it when this returns true.
  bool RefreshSnapshotLocked() const;

  /// Records that the chunks holding rows [first, last] may differ from
  /// the published snapshot. Caller holds snap_mu_.
  void MarkChunksDirtyLocked(size_t first, size_t last);

  /// True when `column` is the key of some index. Caller holds snap_mu_
  /// or is the writer.
  bool IsIndexedLocked(size_t column) const;

  /// The index slots of the live store's current index version, made
  /// fresh (empty images) when a key change or row move retired the
  /// previous ones. Caller holds snap_mu_.
  const std::vector<IndexSlotPtr>& CurrentIndexSlotsLocked() const;

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  /// Guards the reader-visible metadata, `indexes_` and `stats_`; held
  /// only to copy or update it, never while a snapshot is built.
  mutable std::mutex meta_mu_;
  /// Written under snap_mu_ and meta_mu_; readers take meta_mu_.
  std::vector<IndexDef> indexes_;
  /// Written under meta_mu_; readers copy it under meta_mu_.
  TableStats stats_;
  std::atomic<uint64_t> mutation_epoch_{0};

  /// Lock-free mirror of rows_.size() for racy progress reads (exact
  /// row counts on the read path come from the pinned snapshot).
  std::atomic<size_t> live_rows_{0};

  /// Writer-side lock: serializes mutations of `rows_` with the chunk
  /// copy of a snapshot refresh, and guards the refresh state below
  /// (the engine-level write mutex already serializes mutations with
  /// each other). Readers take it only to refresh after an unbracketed
  /// write; a pin that finds a bracket open or the snapshot current
  /// reads the published pointer without it, and no EpochManager
  /// reclamation runs while it is held.
  mutable std::mutex snap_mu_;
  /// Last committed snapshot, never null. Read with std::atomic_load;
  /// replaced with std::atomic_store under snap_mu_.
  mutable TableSnapshotPtr snapshot_;
  /// Chunks that may differ from snapshot_ (indexed by chunk number;
  /// empty when the snapshot covers rows_ exactly).
  mutable std::vector<bool> dirty_chunks_;
  /// Index slots of the current index version, shared with every
  /// snapshot published since the version began.
  mutable std::vector<IndexSlotPtr> index_slots_;
  /// Set when a mutation changed an indexed key or moved row ids:
  /// index_slots_ belong to a superseded version.
  mutable bool index_slots_stale_ = true;
  /// Nesting depth of open write brackets. Changed by the writer only;
  /// the outermost EndWrite publishes before decrementing it, so a
  /// reader that loads it (acquire) before the snapshot never misses a
  /// bracket closed before the pin.
  std::atomic<int> writer_depth_{0};
};

}  // namespace rfv

#endif  // RFVIEW_STORAGE_TABLE_H_
