#include "view/reduction.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"
#include "sequence/compute.h"
#include "sequence/derive_cumulative.h"
#include "sequence/minoa.h"
#include "sequence/reporting.h"

namespace rfv {

namespace {

/// Loads the content of a partitioned view into a PartitionedSequence
/// keyed by the integer partition columns.
Result<PartitionedSequence> LoadPartitionedSequence(
    const ViewManager& views, const SequenceViewDef& def) {
  Result<Table*> content = views.catalog()->GetTable(def.view_name);
  if (!content.ok()) return content.status();
  // The rewriter reads view content beside concurrent maintenance: read
  // a pinned snapshot, not the live store.
  const TableSnapshotPtr snap = (*content)->PinSnapshot();
  const size_t key_width = def.partition_columns.size();
  const size_t pos_col = key_width;
  const size_t val_col = key_width + 1;

  // Group stored sequence values by partition key.
  std::map<std::vector<int64_t>, std::map<int64_t, SeqValue>> grouped;
  for (size_t r = 0; r < snap->num_rows(); ++r) {
    const Row& row = snap->row(r);
    std::vector<int64_t> key;
    key.reserve(key_width);
    for (size_t c = 0; c < key_width; ++c) {
      if (row[c].is_null() || row[c].type() != DataType::kInt64) {
        return Status::NotDerivable(
            "partitioning reduction requires integer partition keys");
      }
      key.push_back(row[c].AsInt());
    }
    grouped[std::move(key)][row[pos_col].AsInt()] =
        row[val_col].is_null() ? 0 : row[val_col].ToDouble();
  }

  PartitionedSequence sequence(def.window, def.fn);
  for (const auto& [key, positions] : grouped) {
    // Rebuild the stored Sequence, then reconstruct its raw data — the
    // derivation the §6.2 lemma licenses for complete reporting
    // functions.
    const int64_t first = positions.begin()->first;
    const int64_t last = positions.rbegin()->first;
    std::vector<SeqValue> values(static_cast<size_t>(last - first + 1), 0);
    for (const auto& [pos, val] : positions) {
      values[static_cast<size_t>(pos - first)] = val;
    }
    int64_t n = 0;
    if (def.window.is_cumulative()) {
      n = last;
    } else {
      n = last - def.window.l();
    }
    Sequence stored(def.window, def.fn, n, first, std::move(values));
    if (!stored.IsComplete()) {
      return Status::NotDerivable(
          "partitioning reduction requires a complete reporting function "
          "(header/trailer per partition)");
    }
    std::vector<SeqValue> raw;
    if (def.window.is_cumulative()) {
      RFV_ASSIGN_OR_RETURN(raw, RawFromCumulative(stored));
    } else {
      RFV_ASSIGN_OR_RETURN(raw, RawFromSlidingLinear(stored));
    }
    RFV_RETURN_IF_ERROR(sequence.AddPartition(key, std::move(raw)));
  }
  return sequence;
}

/// Writes a PartitionedSequence into a fresh content table and registers
/// the derived view metadata.
Result<const SequenceViewDef*> StoreDerived(
    ViewManager* views, SequenceViewDef def,
    const PartitionedSequence& sequence) {
  Schema schema;
  for (const std::string& name : def.partition_columns) {
    schema.AddColumn(ColumnDef(name, DataType::kInt64));
  }
  schema.AddColumn(ColumnDef("pos", DataType::kInt64));
  schema.AddColumn(ColumnDef("val", DataType::kDouble));
  Table* content = nullptr;
  {
    Result<Table*> r =
        views->catalog()->CreateTable(def.view_name, std::move(schema));
    if (!r.ok()) return r.status();
    content = *r;
  }
  std::vector<Row> rows;
  int64_t max_n = 0;
  for (size_t p = 0; p < sequence.num_partitions(); ++p) {
    const PartitionedSequence::Partition& part = sequence.partition(p);
    max_n = std::max(max_n, part.sequence.n());
    for (int64_t k = part.sequence.first_pos(); k <= part.sequence.last_pos();
         ++k) {
      Row row;
      for (int64_t kv : part.key) row.Append(Value::Int(kv));
      row.Append(Value::Int(k));
      row.Append(Value::Double(part.sequence.at(k)));
      rows.push_back(std::move(row));
    }
  }
  Status status = content->InsertBatch(std::move(rows));
  if (!status.ok()) {
    (void)views->catalog()->DropTable(def.view_name);
    return status;
  }
  if (def.indexed) {
    const size_t pos_col = def.partition_columns.size();
    RFV_RETURN_IF_ERROR(content->CreateIndex(
        def.view_name + "_pk", content->schema().column(pos_col).name));
  }
  def.n = max_n;
  def.derived = true;
  return views->AdoptView(std::move(def));
}

}  // namespace

Result<const SequenceViewDef*> ReduceViewPartitioning(
    ViewManager* views, const std::string& source_view,
    const std::string& target_view, size_t drop) {
  const SequenceViewDef* source = views->FindView(source_view);
  if (source == nullptr) {
    return Status::NotFound("view " + source_view + " is not registered");
  }
  if (source->partition_columns.empty()) {
    return Status::NotDerivable(
        "partitioning reduction requires a partitioned view");
  }
  if (drop < 1 || drop > source->partition_columns.size()) {
    return Status::InvalidArgument("invalid partition-column drop count");
  }
  if (views->FindView(target_view) != nullptr ||
      views->catalog()->HasTable(target_view)) {
    return Status::AlreadyExists("view " + target_view + " already exists");
  }

  PartitionedSequence loaded(source->window, source->fn);
  RFV_ASSIGN_OR_RETURN(loaded, LoadPartitionedSequence(*views, *source));
  PartitionedSequence reduced(source->window, source->fn);
  RFV_ASSIGN_OR_RETURN(reduced, loaded.ReducePartitioning(drop));

  SequenceViewDef def = *source;
  def.view_name = ToLower(target_view);
  def.partition_columns.resize(source->partition_columns.size() - drop);
  return StoreDerived(views, std::move(def), reduced);
}

Result<const SequenceViewDef*> ReduceViewOrdering(
    ViewManager* views, const std::string& source_view,
    const std::string& target_view, int64_t block) {
  const SequenceViewDef* source = views->FindView(source_view);
  if (source == nullptr) {
    return Status::NotFound("view " + source_view + " is not registered");
  }
  if (!source->window.is_cumulative() || source->fn != SeqAggFn::kSum) {
    return Status::NotDerivable(
        "ordering reduction is implemented for cumulative SUM views");
  }
  if (!source->partition_columns.empty()) {
    return Status::NotDerivable(
        "reduce partitioning before reducing the ordering");
  }
  if (block < 2) {
    return Status::InvalidArgument("block size must be at least 2");
  }
  if (views->FindView(target_view) != nullptr ||
      views->catalog()->HasTable(target_view)) {
    return Status::AlreadyExists("view " + target_view + " already exists");
  }
  if (source->n % block != 0) {
    return Status::NotDerivable(
        "the position space is not divisible into blocks of " +
        std::to_string(block));
  }

  Result<Table*> content = views->catalog()->GetTable(source->view_name);
  if (!content.ok()) return content.status();
  const TableSnapshotPtr snap = (*content)->PinSnapshot();
  const size_t pos_col = 0;
  const size_t val_col = 1;
  std::vector<SeqValue> fine(static_cast<size_t>(source->n), 0);
  for (size_t r = 0; r < snap->num_rows(); ++r) {
    const Row& row = snap->row(r);
    const int64_t pos = row[pos_col].AsInt();
    if (pos >= 1 && pos <= source->n) {
      fine[static_cast<size_t>(pos - 1)] =
          row[val_col].is_null() ? 0 : row[val_col].ToDouble();
    }
  }
  // The §6.1 lemma: coarse cumulative value = fine cumulative at the
  // block's last fine position (PositionSpace models the dense ordering).
  const PositionSpace space({source->n / block, block});
  std::vector<SeqValue> coarse;
  RFV_ASSIGN_OR_RETURN(coarse, OrderingReductionCumulative(space, fine, 1));

  SequenceViewDef def = *source;
  def.view_name = ToLower(target_view);

  PartitionedSequence holder(WindowSpec::Cumulative(), SeqAggFn::kSum);
  // Convert coarse cumulative back to raw block totals for storage via
  // the shared StoreDerived path.
  std::vector<SeqValue> totals = coarse;
  for (size_t b = totals.size(); b-- > 1;) totals[b] -= totals[b - 1];
  RFV_RETURN_IF_ERROR(holder.AddPartition({}, std::move(totals)));
  def.partition_columns.clear();
  return StoreDerived(views, std::move(def), holder);
}

}  // namespace rfv
