#ifndef RFVIEW_VIEW_VIEW_MANAGER_H_
#define RFVIEW_VIEW_VIEW_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "view/view_def.h"

namespace rfv {

/// Maintenance activity of one registered view, surfaced through the
/// `rfv_system.views` introspection view.
struct ViewMaintenanceCounters {
  /// Complete rematerializations from base data (initial materialize,
  /// REFRESH, and the insert/delete propagation paths).
  int64_t full_refreshes = 0;
  /// Localized update propagations (paper §2.3 locality rule).
  int64_t incremental_updates = 0;
  /// Content rows written across all maintenance of this view.
  int64_t rows_written = 0;
};

/// Registry and materializer for sequence views. Content tables live in
/// the catalog (so SQL can query them directly); this class owns the
/// sequence metadata and the materialization / refresh logic.
class ViewManager {
 public:
  explicit ViewManager(Catalog* catalog) : catalog_(catalog) {}

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// Materializes a complete sequence view per `def` (def.n is filled
  /// in). Requirements on the base table: `order_column` holds dense
  /// positions 1..n (per partition for partitioned views) — the paper's
  /// sequences are positional; gaps are a kInvalidArgument error.
  /// Errors: kNotFound (base table/columns), kAlreadyExists (view name).
  Result<const SequenceViewDef*> CreateSequenceView(SequenceViewDef def);

  /// Registers metadata for a view whose content table already exists
  /// in the catalog — used by the §6 reductions (view/reduction.h) that
  /// derive content from other views rather than from base data.
  /// Errors: kNotFound (content table missing), kAlreadyExists.
  Result<const SequenceViewDef*> AdoptView(SequenceViewDef def);

  /// Recomputes the view content from the base table (full refresh)
  /// and clears its stale flag.
  /// Errors: kNotSupported for derived views (their content is not a
  /// function of the base table's current positional layout).
  Status RefreshView(const std::string& view_name);

  /// Marks every view over `base_table` stale (SequenceViewDef::stale):
  /// the SQL DML paths call it under the database write lock before the
  /// table publishes the rows they wrote.
  void MarkBaseWritten(const std::string& base_table);

  /// Drops the view and its content table.
  Status DropView(const std::string& view_name);

  const SequenceViewDef* FindView(const std::string& view_name) const;

  /// Views defined over (base_table, value_column, order_column) with
  /// the given aggregate and an identical partitioning scheme — the
  /// rewriter's candidate set. Views derived by the §6 reductions are
  /// excluded (their position space is synthetic).
  std::vector<const SequenceViewDef*> FindCandidates(
      const std::string& base_table, const std::string& value_column,
      const std::string& order_column, SeqAggFn fn,
      const std::vector<std::string>& partition_columns = {}) const;

  const std::vector<std::unique_ptr<SequenceViewDef>>& views() const {
    return views_;
  }

  /// Maintenance counters of `view_name` (all-zero when the view has
  /// seen no maintenance or is unknown).
  ViewMaintenanceCounters MaintenanceCounters(
      const std::string& view_name) const;

  /// Counter hooks, called by the refresh paths above and by the DML
  /// propagation in view/maintenance.cc.
  void NoteFullRefresh(const std::string& view_name, int64_t rows_written);
  void NoteIncrementalUpdate(const std::string& view_name,
                             int64_t rows_written);

  Catalog* catalog() const { return catalog_; }

 private:
  /// Computes and writes the content rows for `def`.
  Status Materialize(const SequenceViewDef& def, Table* content,
                     int64_t* n_out);

  Catalog* catalog_;
  std::vector<std::unique_ptr<SequenceViewDef>> views_;
  /// Lowered view name → maintenance counters. Guarded by
  /// maintenance_mu_: the counters are bumped by maintenance running
  /// under the engine write lock but read by concurrent SELECTs over
  /// rfv_system.views.
  mutable std::mutex maintenance_mu_;
  std::map<std::string, ViewMaintenanceCounters> maintenance_;
};

}  // namespace rfv

#endif  // RFVIEW_VIEW_VIEW_MANAGER_H_
