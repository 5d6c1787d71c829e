#ifndef RFVIEW_STORAGE_VIRTUAL_TABLE_H_
#define RFVIEW_STORAGE_VIRTUAL_TABLE_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"

namespace rfv {

/// Source of virtual (computed) tables served under a reserved schema
/// name, e.g. the `rfv_system` introspection catalog (db/system_views.h).
///
/// A provider is registered with the catalog once
/// (`Catalog::RegisterVirtualSchema`); afterwards a schema-qualified
/// name such as `rfv_system.queries` resolves through the ordinary
/// `Catalog::GetTable` path. The catalog materializes the provider's
/// rows into a cached content table at resolution time — which the
/// binder hits once per table reference, i.e. at scan-open from the
/// executor's perspective — so the scan pipeline (filters, windows,
/// joins) runs over a stable snapshot and `mutation_epoch` never fires
/// mid-query.
///
/// Virtual tables are read-only: DML, DROP and index DDL against them
/// are rejected by the database layer.
class VirtualTableProvider {
 public:
  virtual ~VirtualTableProvider() = default;

  /// Unqualified names of the tables this provider serves (sorted).
  virtual std::vector<std::string> VirtualTableNames() const = 0;

  /// Schema of one virtual table. Errors: kNotFound for unknown names.
  virtual Result<Schema> VirtualTableSchema(const std::string& table) const = 0;

  /// Computes the current rows of one virtual table. Called by the
  /// catalog on every resolution of the qualified name; rows must match
  /// VirtualTableSchema's column types (NULLs allowed anywhere).
  virtual Result<std::vector<Row>> MaterializeVirtualTable(
      const std::string& table) const = 0;
};

}  // namespace rfv

#endif  // RFVIEW_STORAGE_VIRTUAL_TABLE_H_
