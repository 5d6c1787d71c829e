#include "view/maintenance.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/metrics_registry.h"
#include "common/str_util.h"
#include "common/trace.h"

namespace rfv {

namespace {

/// The counter of view-table rows written while propagating one base
/// change of kind `op`; each call site caches the pointer.
Counter* MaintenanceRowsCounter(const char* op) {
  return MetricsRegistry::Global().GetCounter(
      "rfv_view_maintenance_rows_total", {{"op", op}},
      "Materialized-view rows written by incremental maintenance");
}

struct BaseBinding {
  Table* base = nullptr;
  size_t order_col = 0;
  size_t value_col = 0;
};

Result<BaseBinding> BindBase(Catalog* catalog, const SequenceViewDef& def) {
  BaseBinding binding;
  Result<Table*> base = catalog->GetTable(def.base_table);
  if (!base.ok()) return base.status();
  binding.base = *base;
  Result<size_t> c = binding.base->schema().FindColumn("", def.order_column);
  if (!c.ok()) return c.status();
  binding.order_col = *c;
  c = binding.base->schema().FindColumn("", def.value_column);
  if (!c.ok()) return c.status();
  binding.value_col = *c;
  return binding;
}

/// Finds the base row id holding `position` (via the position index
/// when one exists; UpdateCell on the value column keeps its image).
Result<size_t> FindBaseRow(const BaseBinding& binding, int64_t position) {
  const OrderedIndexPtr index =
      binding.base->GetIndexOnColumn(binding.order_col);
  if (index != nullptr) {
    const std::vector<size_t> hits = index->Lookup(Value::Int(position));
    if (!hits.empty()) return hits.front();
    return Status::NotFound("no base row at position " +
                            std::to_string(position));
  }
  for (size_t r = 0; r < binding.base->NumRows(); ++r) {
    const Value& v = binding.base->row(r)[binding.order_col];
    if (!v.is_null() && v.type() == DataType::kInt64 &&
        v.AsInt() == position) {
      return r;
    }
  }
  return Status::NotFound("no base row at position " +
                          std::to_string(position));
}

/// The base values at positions [lo, hi], one per position, 0 where no
/// row holds it (paper padding). Read once, through the position index
/// when one exists, else in one pass; a position held twice reads its
/// first row.
std::vector<double> BaseValuesInSpan(const BaseBinding& binding, int64_t lo,
                                     int64_t hi) {
  if (hi < lo) return {};
  const size_t width = static_cast<size_t>(hi - lo) + 1;
  std::vector<double> values(width, 0);
  std::vector<bool> seen(width, false);
  const auto take = [&](size_t r) {
    const Row& row = binding.base->row(r);
    const Value& p = row[binding.order_col];
    if (p.is_null() || p.type() != DataType::kInt64 || p.AsInt() < lo ||
        p.AsInt() > hi) {
      return;
    }
    const size_t slot = static_cast<size_t>(p.AsInt() - lo);
    if (seen[slot]) return;
    seen[slot] = true;
    const Value& v = row[binding.value_col];
    values[slot] = v.is_null() ? 0 : v.ToDouble();
  };
  const OrderedIndexPtr index =
      binding.base->GetIndexOnColumn(binding.order_col);
  if (index != nullptr) {
    // Ties come in row-id order, so the first hit is the first row.
    const Value from = Value::Int(lo);
    const Value to = Value::Int(hi);
    for (size_t r : index->RowIdsInRange(&from, &to)) take(r);
  } else {
    for (size_t r = 0; r < binding.base->NumRows(); ++r) take(r);
  }
  return values;
}

/// Dependent non-partitioned views of `base_table`.
std::vector<const SequenceViewDef*> DependentViews(
    const ViewManager& views, const std::string& base_table) {
  std::vector<const SequenceViewDef*> out;
  for (const auto& v : views.views()) {
    if (EqualsIgnoreCase(v->base_table, base_table) &&
        v->partition_columns.empty()) {
      out.push_back(v.get());
    }
  }
  return out;
}

/// Writes `val` into the view row at `pos` (via the pos index when
/// available). Returns rows written (0 when the position is outside the
/// view's stored range).
Result<size_t> WriteViewValue(Table* content, int64_t pos, double val) {
  // For simple views pos is the second-to-last column and val the last
  // (partitioned views are refreshed wholesale, not routed here).
  const size_t pos_col = content->schema().NumColumns() - 2;
  const size_t val_col = content->schema().NumColumns() - 1;
  const OrderedIndexPtr pos_index = content->GetIndexOnColumn(pos_col);
  size_t written = 0;
  if (pos_index != nullptr) {
    for (size_t r : pos_index->Lookup(Value::Int(pos))) {
      RFV_RETURN_IF_ERROR(content->UpdateCell(r, val_col, Value::Double(val)));
      ++written;
    }
  } else {
    for (size_t r = 0; r < content->NumRows(); ++r) {
      const Value& p = content->row(r)[pos_col];
      if (!p.is_null() && p.AsInt() == pos) {
        RFV_RETURN_IF_ERROR(
            content->UpdateCell(r, val_col, Value::Double(val)));
        ++written;
      }
    }
  }
  return written;
}

/// Adds `delta` to the view rows with pos in [lo, hi], located through
/// the pos index (row ids collected first, then updated).
Result<size_t> AddDeltaRange(Table* content, int64_t lo, int64_t hi,
                             double delta) {
  const size_t pos_col = content->schema().NumColumns() - 2;
  const size_t val_col = content->schema().NumColumns() - 1;
  std::vector<size_t> row_ids;
  const OrderedIndexPtr pos_index = content->GetIndexOnColumn(pos_col);
  if (pos_index != nullptr) {
    const Value from = Value::Int(lo);
    const Value to = Value::Int(hi);
    row_ids = pos_index->RowIdsInRange(&from, &to);
  } else {
    for (size_t r = 0; r < content->NumRows(); ++r) {
      const Value& p = content->row(r)[pos_col];
      if (!p.is_null() && p.AsInt() >= lo && p.AsInt() <= hi) {
        row_ids.push_back(r);
      }
    }
  }
  for (size_t r : row_ids) {
    const Value& old = content->row(r)[val_col];
    const double base = old.is_null() ? 0 : old.ToDouble();
    RFV_RETURN_IF_ERROR(
        content->UpdateCell(r, val_col, Value::Double(base + delta)));
  }
  return row_ids.size();
}

}  // namespace

Result<size_t> PropagateBaseUpdate(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double new_value) {
  TraceSpan span("view.maintain.update");
  if (span.active()) span.AddArg("base", base_table);
  const std::vector<const SequenceViewDef*> dependents =
      DependentViews(*views, base_table);
  size_t touched = 0;
  double old_value = 0;
  bool base_updated = false;

  for (const SequenceViewDef* def : dependents) {
    BaseBinding binding;
    RFV_ASSIGN_OR_RETURN(binding, BindBase(views->catalog(), *def));
    if (!base_updated) {
      size_t row_id = 0;
      RFV_ASSIGN_OR_RETURN(row_id, FindBaseRow(binding, position));
      const Value& old = binding.base->row(row_id)[binding.value_col];
      old_value = old.is_null() ? 0 : old.ToDouble();
      Table::WriteGuard base_guard(binding.base);
      RFV_RETURN_IF_ERROR(binding.base->UpdateCell(
          row_id, binding.value_col, Value::Double(new_value)));
      base_updated = true;
    }
    Result<Table*> content = views->catalog()->GetTable(def->view_name);
    if (!content.ok()) return content.status();
    // Readers see this view's rows change in one snapshot flip, at the
    // end of the iteration, never a window half-maintained.
    Table::WriteGuard content_guard(*content);

    size_t view_touched = 0;
    if (def->fn == SeqAggFn::kSum) {
      const double delta = new_value - old_value;
      if (def->window.is_cumulative()) {
        RFV_ASSIGN_OR_RETURN(
            view_touched, AddDeltaRange(*content, position, def->n, delta));
      } else {
        RFV_ASSIGN_OR_RETURN(
            view_touched,
            AddDeltaRange(*content, position - def->window.h(),
                          position + def->window.l(), delta));
      }
    } else {
      // MIN/MAX: recompute the affected windows from base data with a
      // monotonic deque over the span they cover.
      if (def->window.is_cumulative()) {
        // RefreshView records this as a full refresh, not incremental.
        RFV_RETURN_IF_ERROR(views->RefreshView(def->view_name));
        touched += static_cast<size_t>((*content)->NumRows());
        continue;
      }
      const int64_t l = def->window.l();
      const int64_t h = def->window.h();
      const int64_t n = def->n.load();
      const int64_t from = position - h;
      const int64_t to = position + l;
      const bool is_min = def->fn == SeqAggFn::kMin;
      // MIN/MAX windows clip to [1, n] (see sequence/compute.cc); the
      // affected windows cover base positions [span_lo, span_hi].
      const int64_t span_lo = std::max<int64_t>(from - l, 1);
      const std::vector<double> span =
          BaseValuesInSpan(binding, span_lo, std::min(to + h, n));
      std::deque<std::pair<int64_t, double>> mono;
      int64_t next = span_lo;
      for (int64_t k = from; k <= to; ++k) {
        const int64_t hi = std::min(k + h, n);
        for (; next <= hi; ++next) {
          const double v = span[static_cast<size_t>(next - span_lo)];
          while (!mono.empty() && (is_min ? mono.back().second >= v
                                          : mono.back().second <= v)) {
            mono.pop_back();
          }
          mono.emplace_back(next, v);
        }
        while (!mono.empty() && mono.front().first < k - l) mono.pop_front();
        size_t w = 0;
        RFV_ASSIGN_OR_RETURN(
            w, WriteViewValue(*content, k,
                              mono.empty() ? 0 : mono.front().second));
        view_touched += w;
      }
    }
    views->NoteIncrementalUpdate(def->view_name,
                                 static_cast<int64_t>(view_touched));
    touched += view_touched;
  }
  if (!base_updated) {
    return Status::NotFound(
        "no dependent sequence views for table " + base_table +
        " (update the base table directly via SQL)");
  }
  static Counter* rows_written = MaintenanceRowsCounter("update");
  rows_written->Increment(static_cast<int64_t>(touched));
  if (span.active()) span.AddArg("rows", std::to_string(touched));
  return touched;
}

Result<size_t> PropagateBaseInsert(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double value) {
  TraceSpan span("view.maintain.insert");
  if (span.active()) span.AddArg("base", base_table);
  const std::vector<const SequenceViewDef*> dependents =
      DependentViews(*views, base_table);
  if (dependents.empty()) {
    return Status::NotFound("no dependent sequence views for " + base_table);
  }
  BaseBinding binding;
  RFV_ASSIGN_OR_RETURN(binding, BindBase(views->catalog(), *dependents[0]));
  if (binding.base->schema().NumColumns() != 2) {
    return Status::NotSupported(
        "positional insert requires a two-column (pos, val) base table");
  }
  {
    // Readers see the shift and the insert as one base change.
    Table::WriteGuard base_guard(binding.base);
    // Shift positions >= position up by one, then insert.
    for (size_t r = 0; r < binding.base->NumRows(); ++r) {
      const Value& p = binding.base->row(r)[binding.order_col];
      if (!p.is_null() && p.AsInt() >= position) {
        RFV_RETURN_IF_ERROR(binding.base->UpdateCell(
            r, binding.order_col, Value::Int(p.AsInt() + 1)));
      }
    }
    Row row;
    row.Append(Value::Null());
    row.Append(Value::Null());
    row[binding.order_col] = Value::Int(position);
    row[binding.value_col] = Value::Double(value);
    RFV_RETURN_IF_ERROR(binding.base->Insert(std::move(row)));
  }

  size_t touched = 0;
  for (const SequenceViewDef* def : dependents) {
    RFV_RETURN_IF_ERROR(views->RefreshView(def->view_name));
    Result<Table*> content = views->catalog()->GetTable(def->view_name);
    if (!content.ok()) return content.status();
    touched += static_cast<size_t>((*content)->NumRows());
  }
  static Counter* rows_written = MaintenanceRowsCounter("insert");
  rows_written->Increment(static_cast<int64_t>(touched));
  if (span.active()) span.AddArg("rows", std::to_string(touched));
  return touched;
}

Result<size_t> PropagateBaseDelete(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position) {
  TraceSpan span("view.maintain.delete");
  if (span.active()) span.AddArg("base", base_table);
  const std::vector<const SequenceViewDef*> dependents =
      DependentViews(*views, base_table);
  if (dependents.empty()) {
    return Status::NotFound("no dependent sequence views for " + base_table);
  }
  BaseBinding binding;
  RFV_ASSIGN_OR_RETURN(binding, BindBase(views->catalog(), *dependents[0]));
  size_t row_id = 0;
  RFV_ASSIGN_OR_RETURN(row_id, FindBaseRow(binding, position));
  {
    // Readers see the delete and the shift as one base change.
    Table::WriteGuard base_guard(binding.base);
    RFV_RETURN_IF_ERROR(binding.base->DeleteRow(row_id));
    for (size_t r = 0; r < binding.base->NumRows(); ++r) {
      const Value& p = binding.base->row(r)[binding.order_col];
      if (!p.is_null() && p.AsInt() > position) {
        RFV_RETURN_IF_ERROR(binding.base->UpdateCell(
            r, binding.order_col, Value::Int(p.AsInt() - 1)));
      }
    }
  }
  size_t touched = 0;
  for (const SequenceViewDef* def : dependents) {
    RFV_RETURN_IF_ERROR(views->RefreshView(def->view_name));
    Result<Table*> content = views->catalog()->GetTable(def->view_name);
    if (!content.ok()) return content.status();
    touched += static_cast<size_t>((*content)->NumRows());
  }
  static Counter* rows_written = MaintenanceRowsCounter("delete");
  rows_written->Increment(static_cast<int64_t>(touched));
  if (span.active()) span.AddArg("rows", std::to_string(touched));
  return touched;
}

}  // namespace rfv
