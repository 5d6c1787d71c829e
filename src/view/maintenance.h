#ifndef RFVIEW_VIEW_MAINTENANCE_H_
#define RFVIEW_VIEW_MAINTENANCE_H_

#include <string>

#include "common/status.h"
#include "view/view_manager.h"

namespace rfv {

/// Incremental maintenance of materialized sequence views (paper §2.3)
/// at the storage level: DML against the base table is propagated to
/// every dependent (non-partitioned) view's content table.
///
/// UPDATE uses the paper's locality rule — for a sliding SUM view only
/// the w = l+h+1 rows whose window contains the changed position are
/// touched (located via the view's pos index); for a cumulative SUM view
/// the rows at positions >= k. MIN/MAX views recompute the affected
/// window rows from base data. INSERT and DELETE shift every higher
/// position of the base table (positional sequences), so the content
/// table is refreshed wholesale — the in-memory maintenance API
/// (sequence/maintain.h) demonstrates the paper's local insert/delete
/// rules without the storage shift cost.
///
/// Each call brackets its writes in a Table::WriteGuard per table (the
/// base table, then each content table it writes), so a concurrent
/// reader sees each table's change as one snapshot flip: never a view
/// window half-maintained, never a half-shifted base. Callers may hold
/// their own guards around the call; brackets nest.

/// Sets the value at `position` of `base_table` and maintains all
/// dependent views. Returns the number of view rows written.
/// Errors: kNotFound (table/position), kInvalidArgument.
Result<size_t> PropagateBaseUpdate(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double new_value);

/// Inserts a new value at `position` (old positions >= `position` shift
/// up by one) and refreshes dependent views. Base tables must consist of
/// exactly the order and value columns used by the dependent views
/// (other columns would need values for the inserted row).
Result<size_t> PropagateBaseInsert(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double value);

/// Deletes the row at `position` (higher positions shift down) and
/// refreshes dependent views.
Result<size_t> PropagateBaseDelete(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position);

}  // namespace rfv

#endif  // RFVIEW_VIEW_MAINTENANCE_H_
