#ifndef RFVIEW_DB_SYSTEM_VIEWS_H_
#define RFVIEW_DB_SYSTEM_VIEWS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "db/query_log.h"
#include "storage/virtual_table.h"
#include "view/view_manager.h"

namespace rfv {

/// The `rfv_system` virtual schema: engine introspection served as
/// ordinary tables, so the normal scan → filter → window pipeline can
/// query the engine's own state:
///
///   rfv_system.queries      recent statements (the QueryLog ring)
///   rfv_system.operators    per-operator metrics of those statements
///   rfv_system.metrics      the metrics registry, typed (not scraped)
///   rfv_system.views        view catalog + maintenance counters
///   rfv_system.table_stats  per-column optimizer statistics
///   rfv_system.trace_spans  spans of the retired-trace ring
///
/// `Database` registers one instance with its catalog
/// (`Catalog::RegisterVirtualSchema`); the catalog materializes a fresh
/// snapshot per lookup, so a query sees consistent rows and the ring
/// mutations its own execution causes never abort its scans.
class SystemViewProvider : public VirtualTableProvider {
 public:
  static constexpr const char* kSchemaName = "rfv_system";

  SystemViewProvider(const Catalog* catalog, const ViewManager* views,
                     const QueryLog* query_log)
      : catalog_(catalog), views_(views), query_log_(query_log) {}

  std::vector<std::string> VirtualTableNames() const override;
  Result<Schema> VirtualTableSchema(const std::string& table) const override;
  Result<std::vector<Row>> MaterializeVirtualTable(
      const std::string& table) const override;

 private:
  std::vector<Row> QueriesRows() const;
  std::vector<Row> OperatorsRows() const;
  std::vector<Row> MetricsRows() const;
  std::vector<Row> ViewsRows() const;
  std::vector<Row> TableStatsRows() const;
  std::vector<Row> TraceSpansRows() const;

  const Catalog* catalog_;
  const ViewManager* views_;
  const QueryLog* query_log_;
};

}  // namespace rfv

#endif  // RFVIEW_DB_SYSTEM_VIEWS_H_
