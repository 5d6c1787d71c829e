#include "view/view_manager.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"
#include "sequence/compute.h"

namespace rfv {

namespace {

/// Extracts (partition key, position, value) triples from the base
/// table, grouped by partition key in ascending order, each partition's
/// values indexed by position. Validates dense 1..n positions.
struct PartitionData {
  std::vector<Value> key;
  std::vector<SeqValue> values;  ///< values[i] = value at position i+1
};

Result<std::vector<PartitionData>> ExtractPartitions(
    const Table& base, size_t order_col, size_t value_col,
    const std::vector<size_t>& partition_cols) {
  std::map<std::vector<Value>, std::map<int64_t, SeqValue>> grouped;
  for (size_t r = 0; r < base.NumRows(); ++r) {
    const Row& row = base.row(r);
    const Value& pos = row[order_col];
    const Value& val = row[value_col];
    if (pos.is_null() || pos.type() != DataType::kInt64) {
      return Status::InvalidArgument(
          "sequence view order column must hold non-NULL integers");
    }
    std::vector<Value> key;
    key.reserve(partition_cols.size());
    for (size_t c : partition_cols) key.push_back(row[c]);
    auto& part = grouped[key];
    if (!part.emplace(pos.AsInt(), val.is_null() ? 0 : val.ToDouble())
             .second) {
      return Status::InvalidArgument(
          "duplicate position " + std::to_string(pos.AsInt()) +
          " in sequence view base data");
    }
  }
  std::vector<PartitionData> out;
  out.reserve(grouped.size());
  for (auto& [key, positions] : grouped) {
    PartitionData part;
    part.key = key;
    part.values.reserve(positions.size());
    int64_t expected = 1;
    for (const auto& [pos, val] : positions) {
      if (pos != expected) {
        return Status::InvalidArgument(
            "sequence view positions must be dense 1..n; missing position " +
            std::to_string(expected));
      }
      part.values.push_back(val);
      ++expected;
    }
    out.push_back(std::move(part));
  }
  return out;
}

}  // namespace

Status ViewManager::Materialize(const SequenceViewDef& def, Table* content,
                                int64_t* n_out) {
  Table* base = nullptr;
  {
    Result<Table*> r = catalog_->GetTable(def.base_table);
    if (!r.ok()) return r.status();
    base = *r;
  }
  size_t order_col = 0;
  size_t value_col = 0;
  {
    Result<size_t> r = base->schema().FindColumn("", def.order_column);
    if (!r.ok()) return r.status();
    order_col = *r;
    r = base->schema().FindColumn("", def.value_column);
    if (!r.ok()) return r.status();
    value_col = *r;
  }
  std::vector<size_t> partition_cols;
  for (const std::string& name : def.partition_columns) {
    Result<size_t> r = base->schema().FindColumn("", name);
    if (!r.ok()) return r.status();
    partition_cols.push_back(*r);
  }

  std::vector<PartitionData> partitions;
  RFV_ASSIGN_OR_RETURN(
      partitions, ExtractPartitions(*base, order_col, value_col,
                                    partition_cols));

  // The header and trailer extend the body by h and l positions; an
  // extent past int64 is refused before anything is written.
  size_t longest = 0;
  for (const PartitionData& part : partitions) {
    longest = std::max(longest, part.values.size());
  }
  RFV_RETURN_IF_ERROR(def.window.CheckExtent(static_cast<int64_t>(longest)));

  // Bracket the truncate-and-refill as one committed statement:
  // concurrent readers keep scanning the previous content snapshot and
  // never observe the empty or half-filled intermediate states.
  Table::WriteGuard guard(content);
  content->Truncate();
  int64_t max_n = 0;
  std::vector<Row> rows;
  for (const PartitionData& part : partitions) {
    const Sequence seq = BuildCompleteSequence(part.values, def.window, def.fn);
    max_n = std::max(max_n, seq.n());
    for (int64_t k = seq.first_pos(); k <= seq.last_pos(); ++k) {
      Row row;
      for (const Value& kv : part.key) row.Append(kv);
      row.Append(Value::Int(k));
      row.Append(Value::Double(seq.at(k)));
      rows.push_back(std::move(row));
    }
  }
  RFV_RETURN_IF_ERROR(content->InsertBatch(std::move(rows)));
  // A freshly materialized content table is the cost model's main input;
  // make its statistics exact (distinct partition keys, tight pos/val
  // ranges) instead of waiting for an explicit ANALYZE.
  content->Analyze();
  *n_out = max_n;
  return Status::OK();
}

Result<const SequenceViewDef*> ViewManager::CreateSequenceView(
    SequenceViewDef def) {
  def.view_name = ToLower(def.view_name);
  if (FindView(def.view_name) != nullptr || catalog_->HasTable(def.view_name)) {
    return Status::AlreadyExists("view " + def.view_name + " already exists");
  }
  // Build the content schema: partition columns keep their base types.
  Table* base = nullptr;
  {
    Result<Table*> r = catalog_->GetTable(def.base_table);
    if (!r.ok()) return r.status();
    base = *r;
  }
  Schema schema;
  for (const std::string& name : def.partition_columns) {
    Result<size_t> c = base->schema().FindColumn("", name);
    if (!c.ok()) return c.status();
    schema.AddColumn(ColumnDef(name, base->schema().column(*c).type));
  }
  schema.AddColumn(ColumnDef("pos", DataType::kInt64));
  schema.AddColumn(ColumnDef("val", DataType::kDouble));

  Table* content = nullptr;
  {
    Result<Table*> r = catalog_->CreateTable(def.view_name, std::move(schema));
    if (!r.ok()) return r.status();
    content = *r;
  }
  int64_t n = 0;
  Status status = Materialize(def, content, &n);
  def.n = n;
  if (!status.ok()) {
    (void)catalog_->DropTable(def.view_name);
    return status;
  }
  if (def.indexed) {
    RFV_RETURN_IF_ERROR(content->CreateIndex(def.view_name + "_pk", "pos"));
  }
  NoteFullRefresh(def.view_name, static_cast<int64_t>(content->NumRows()));
  views_.push_back(std::make_unique<SequenceViewDef>(std::move(def)));
  return views_.back().get();
}

Result<const SequenceViewDef*> ViewManager::AdoptView(SequenceViewDef def) {
  def.view_name = ToLower(def.view_name);
  if (FindView(def.view_name) != nullptr) {
    return Status::AlreadyExists("view " + def.view_name +
                                 " already exists");
  }
  if (!catalog_->HasTable(def.view_name)) {
    return Status::NotFound("content table " + def.view_name +
                            " does not exist");
  }
  views_.push_back(std::make_unique<SequenceViewDef>(std::move(def)));
  return views_.back().get();
}

Status ViewManager::RefreshView(const std::string& view_name) {
  SequenceViewDef* def = nullptr;
  for (auto& v : views_) {
    if (v->view_name == ToLower(view_name)) {
      def = v.get();
      break;
    }
  }
  if (def == nullptr) {
    return Status::NotFound("view " + view_name + " is not registered");
  }
  if (def->derived) {
    return Status::NotSupported(
        "derived views (paper §6 reductions) cannot be refreshed from the "
        "base table; re-derive from the source view instead");
  }
  Result<Table*> content = catalog_->GetTable(def->view_name);
  if (!content.ok()) return content.status();
  // Fill a local, then publish through the atomic cell: concurrent
  // SELECTs read def->n lock-free while this refresh runs.
  int64_t n = 0;
  RFV_RETURN_IF_ERROR(Materialize(*def, *content, &n));
  def->n = n;
  NoteFullRefresh(def->view_name, static_cast<int64_t>((*content)->NumRows()));
  return Status::OK();
}

Status ViewManager::DropView(const std::string& view_name) {
  const std::string key = ToLower(view_name);
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if ((*it)->view_name == key) {
      views_.erase(it);
      {
        std::lock_guard<std::mutex> lock(maintenance_mu_);
        maintenance_.erase(key);
      }
      return catalog_->DropTable(key);
    }
  }
  return Status::NotFound("view " + view_name + " is not registered");
}

ViewMaintenanceCounters ViewManager::MaintenanceCounters(
    const std::string& view_name) const {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  const auto it = maintenance_.find(ToLower(view_name));
  return it == maintenance_.end() ? ViewMaintenanceCounters{} : it->second;
}

void ViewManager::NoteFullRefresh(const std::string& view_name,
                                  int64_t rows_written) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  ViewMaintenanceCounters& c = maintenance_[ToLower(view_name)];
  ++c.full_refreshes;
  c.rows_written += rows_written;
}

void ViewManager::NoteIncrementalUpdate(const std::string& view_name,
                                        int64_t rows_written) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  ViewMaintenanceCounters& c = maintenance_[ToLower(view_name)];
  ++c.incremental_updates;
  c.rows_written += rows_written;
}

const SequenceViewDef* ViewManager::FindView(
    const std::string& view_name) const {
  const std::string key = ToLower(view_name);
  for (const auto& v : views_) {
    if (v->view_name == key) return v.get();
  }
  return nullptr;
}

std::vector<const SequenceViewDef*> ViewManager::FindCandidates(
    const std::string& base_table, const std::string& value_column,
    const std::string& order_column, SeqAggFn fn,
    const std::vector<std::string>& partition_columns) const {
  const auto same_partitioning = [&](const SequenceViewDef& v) {
    if (v.partition_columns.size() != partition_columns.size()) return false;
    for (size_t i = 0; i < partition_columns.size(); ++i) {
      if (!EqualsIgnoreCase(v.partition_columns[i], partition_columns[i])) {
        return false;
      }
    }
    return true;
  };
  std::vector<const SequenceViewDef*> out;
  for (const auto& v : views_) {
    if (EqualsIgnoreCase(v->base_table, base_table) &&
        EqualsIgnoreCase(v->value_column, value_column) &&
        EqualsIgnoreCase(v->order_column, order_column) && v->fn == fn &&
        same_partitioning(*v) && !v->derived) {
      out.push_back(v.get());
    }
  }
  return out;
}

}  // namespace rfv
