#ifndef RFVIEW_EXEC_VECTOR_H_
#define RFVIEW_EXEC_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/row.h"
#include "common/value.h"
#include "exec/batch.h"

namespace rfv {

/// One column of a VectorProjection: a fixed-length array of scalar
/// cells in structure-of-arrays layout. Each element carries its own
/// DataType tag (kNull marks NULL, folding the null bitmap into the tag
/// lane) because the engine's INSERT path stores values without coercing
/// them to the declared column type — an INTEGER literal inserted into a
/// DOUBLE column stays an int64 cell, and materialized rows must
/// reproduce those exact tags for the row/batch/vector execution modes
/// to be byte-identical.
///
/// Numeric and boolean payloads live in dedicated lanes (`i64_`, `f64_`;
/// booleans reuse the int64 lane as 0/1), so typed inner loops read a
/// flat array with one predictable tag branch per element instead of
/// walking a std::variant. The string lane is sized lazily — purely
/// numeric vectors never touch it.
class Vector {
 public:
  /// Resizes to `n` elements, all NULL. Lane storage is retained across
  /// Reset calls, so steady-state reuse performs no allocations.
  void Reset(size_t n) {
    size_ = n;
    tag_.assign(n, static_cast<uint8_t>(DataType::kNull));
    if (i64_.size() < n) i64_.resize(n);
    if (f64_.size() < n) f64_.resize(n);
  }

  /// Resizes to `n` elements keeping the first min(size(), n) cells;
  /// new cells are NULL. The append path of VectorProjection::AppendRows.
  void Resize(size_t n) {
    tag_.resize(n, static_cast<uint8_t>(DataType::kNull));
    if (i64_.size() < n) i64_.resize(n);
    if (f64_.size() < n) f64_.resize(n);
    size_ = n;
  }

  size_t size() const { return size_; }

  DataType tag(size_t i) const { return static_cast<DataType>(tag_[i]); }
  bool is_null(size_t i) const { return tag_[i] == 0; }

  /// Lane accessors. Preconditions: the element carries the matching tag.
  int64_t i64(size_t i) const { return i64_[i]; }
  double f64(size_t i) const { return f64_[i]; }
  bool b(size_t i) const { return i64_[i] != 0; }
  const std::string& str(size_t i) const { return str_[i]; }

  /// Numeric coercion mirroring Value::ToDouble. Precondition: the
  /// element is kInt64 or kDouble.
  double ToDouble(size_t i) const {
    return tag_[i] == static_cast<uint8_t>(DataType::kInt64)
               ? static_cast<double>(i64_[i])
               : f64_[i];
  }

  void SetNull(size_t i) { tag_[i] = static_cast<uint8_t>(DataType::kNull); }
  void SetInt(size_t i, int64_t v) {
    tag_[i] = static_cast<uint8_t>(DataType::kInt64);
    i64_[i] = v;
  }
  void SetDouble(size_t i, double v) {
    tag_[i] = static_cast<uint8_t>(DataType::kDouble);
    f64_[i] = v;
  }
  void SetBool(size_t i, bool v) {
    tag_[i] = static_cast<uint8_t>(DataType::kBool);
    i64_[i] = v ? 1 : 0;
  }
  void SetString(size_t i, std::string v) {
    tag_[i] = static_cast<uint8_t>(DataType::kString);
    if (str_.size() < size_) str_.resize(size_);
    str_[i] = std::move(v);
  }

  /// Boxes element `i` as a Value (tag-exact).
  Value GetValue(size_t i) const;

  /// Unboxes a Value into element `i` (tag-exact).
  void SetValue(size_t i, const Value& v);

  /// Copies element `j` of `from` into element `i` of this vector.
  void CopyFrom(size_t i, const Vector& from, size_t j) {
    switch (from.tag(j)) {
      case DataType::kNull: SetNull(i); break;
      case DataType::kInt64: SetInt(i, from.i64_[j]); break;
      case DataType::kDouble: SetDouble(i, from.f64_[j]); break;
      case DataType::kBool: SetBool(i, from.i64_[j] != 0); break;
      case DataType::kString: SetString(i, from.str_[j]); break;
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint8_t> tag_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

/// The set of row positions of a VectorProjection that are still alive:
/// an ascending list of indices into the projection's vectors. Filters
/// narrow the selection in place instead of copying surviving rows;
/// downstream operators iterate only the selected positions. Always kept
/// sorted ascending, so vectorized consumers visit rows in the same
/// order the row-at-a-time path does (this is what keeps group
/// insertion order and floating-point accumulation order identical
/// across execution modes).
class SelectionVector {
 public:
  /// Identity selection over `n` rows (0, 1, ..., n-1).
  void InitFull(size_t n) {
    idx_.resize(n);
    for (size_t i = 0; i < n; ++i) idx_[i] = static_cast<uint32_t>(i);
  }

  size_t size() const { return idx_.size(); }
  bool empty() const { return idx_.empty(); }
  uint32_t operator[](size_t k) const { return idx_[k]; }

  /// Keeps only the first `k` selected positions (LimitOp).
  void Truncate(size_t k) {
    if (k < idx_.size()) idx_.resize(k);
  }

  void Clear() { idx_.clear(); }

  /// Direct access for in-place compaction by the vector evaluator.
  std::vector<uint32_t>& indices() { return idx_; }
  const std::vector<uint32_t>& indices() const { return idx_; }

 private:
  std::vector<uint32_t> idx_;
};

/// A batch of rows in columnar form: one Vector per output column, all
/// of the same length (`num_rows`), plus a SelectionVector naming the
/// positions that are logically present. This is the unit of exchange of
/// the vectorized pull style (PhysicalOperator::NextVector). Producers
/// own their projection and hand out a pointer; consumers may narrow the
/// selection in place (filter, limit) without touching the column data.
class VectorProjection {
 public:
  /// Resets to `num_columns` vectors of `num_rows` NULL cells with a
  /// full selection. Column storage is reused across calls.
  void Reset(size_t num_columns, size_t num_rows) {
    columns_.resize(num_columns);
    for (Vector& c : columns_) c.Reset(num_rows);
    sel_.InitFull(num_rows);
    num_rows_ = num_rows;
  }

  size_t num_columns() const { return columns_.size(); }
  /// Physical extent of the column vectors (pre-selection).
  size_t num_rows() const { return num_rows_; }
  /// Logically present rows (post-selection).
  size_t NumSelected() const { return sel_.size(); }

  Vector& column(size_t c) { return columns_[c]; }
  const Vector& column(size_t c) const { return columns_[c]; }

  SelectionVector& sel() { return sel_; }
  const SelectionVector& sel() const { return sel_; }

  /// Appends selected rows sel()[from], sel()[from + 1], ... of `src`
  /// (same width) as new physical rows, at most `max_rows` of them, with
  /// tag-exact lane copies; the selection becomes full. Returns the
  /// number appended. The columnar buffer of the materializing
  /// operators (sort chunks, the band join's right side).
  size_t AppendRows(const VectorProjection& src, size_t from,
                    size_t max_rows);

  /// Transposes a RowBatch into columns (full selection) — the adapter
  /// that lets any row/batch operator feed a vectorized consumer.
  void FromBatch(size_t num_columns, const RowBatch& batch);

  /// Materializes row position `pos` (not a selection slot) as a Row.
  void MaterializeRow(size_t pos, Row* out) const;

  /// Appends every selected row, in selection order, to *out — the
  /// row-materialization adapter at blocking-operator and root
  /// boundaries.
  void AppendSelectedTo(std::vector<Row>* out) const;

 private:
  std::vector<Vector> columns_;
  SelectionVector sel_;
  size_t num_rows_ = 0;
};

/// RowColumnsHash's seed and per-column mixing step, shared by every
/// columnar hash of a key tuple.
constexpr uint64_t kRowHashSeed = 0xcbf29ce484222325ull;
inline uint64_t MixCellHash(uint64_t h, uint64_t cell) {
  return h ^ (cell + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// Hash of one vector cell, identical to Value::Hash() of the boxed
/// cell: NULL hashes to the golden-ratio constant, numerics hash by
/// their double representation (Int(2) and Double(2.0) collide, matching
/// Value::Compare), -0.0 normalizes to 0. Keeping this bit-exact with
/// Value::Hash is what lets the vectorized hash join and aggregate share
/// bucketization with the row path's RowColumnsHash tables.
inline uint64_t VectorCellHash(const Vector& v, size_t i) {
  switch (v.tag(i)) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ull;
    case DataType::kBool:
      return std::hash<bool>{}(v.b(i));
    case DataType::kInt64:
    case DataType::kDouble: {
      const double d = v.ToDouble(i);
      if (d == 0.0) return 0;  // normalize -0.0
      return std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string>{}(v.str(i));
  }
  return 0;
}

/// Cell-to-cell equality mirroring Value::Compare(...) == 0: NULLs
/// compare equal to each other only, int64/int64 compares exactly, mixed
/// numerics compare as double. Used by the vectorized hash join's chain
/// chase so probe/build matching is identical to the row path's
/// Value-keyed map lookups.
inline bool VectorCellsEqual(const Vector& a, size_t i, const Vector& b,
                             size_t j) {
  const DataType ta = a.tag(i);
  const DataType tb = b.tag(j);
  const bool na = ta == DataType::kInt64 || ta == DataType::kDouble;
  const bool nb = tb == DataType::kInt64 || tb == DataType::kDouble;
  if (na && nb) {
    if (ta == DataType::kInt64 && tb == DataType::kInt64) {
      return a.i64(i) == b.i64(j);
    }
    return a.ToDouble(i) == b.ToDouble(j);
  }
  if (ta != tb) return false;
  switch (ta) {
    case DataType::kNull: return true;
    case DataType::kBool: return a.b(i) == b.b(j);
    case DataType::kString: return a.str(i) == b.str(j);
    default: return false;  // unreachable: numerics handled above
  }
}

/// Three-way cell comparison, identical to Value::Compare of the boxed
/// cells: type rank first (NULL < bool < numeric < string), int64
/// against int64 exactly, mixed or double numerics as doubles (so a NaN
/// compares greater than, and less than, everything), strings
/// bytewise. The columnar sort's comparator.
inline int VectorCellCompare(const Vector& a, size_t i, const Vector& b,
                             size_t j) {
  const auto rank = [](DataType t) {
    switch (t) {
      case DataType::kNull: return 0;
      case DataType::kBool: return 1;
      case DataType::kInt64:
      case DataType::kDouble: return 2;
      case DataType::kString: return 3;
    }
    return 4;
  };
  const DataType ta = a.tag(i);
  const DataType tb = b.tag(j);
  const int ra = rank(ta);
  const int rb = rank(tb);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1:
      return a.b(i) == b.b(j) ? 0 : (a.b(i) < b.b(j) ? -1 : 1);
    case 2: {
      if (ta == DataType::kInt64 && tb == DataType::kInt64) {
        const int64_t x = a.i64(i);
        const int64_t y = b.i64(j);
        return x == y ? 0 : (x < y ? -1 : 1);
      }
      const double x = a.ToDouble(i);
      const double y = b.ToDouble(j);
      if (x == y) return 0;
      return x < y ? -1 : 1;
    }
    default: {
      const int c = a.str(i).compare(b.str(j));
      return c == 0 ? 0 : (c < 0 ? -1 : 1);
    }
  }
}

/// Bulk hash kernel, shared by the vectorized hash join (build and
/// probe) and the vectorized aggregate ingest: for every selected
/// position p, combines the cells of `keys` into (*out)[p] with exactly
/// the RowColumnsHash mixing over Value-consistent cell hashes, one
/// column at a time. *out is indexed by row position (resized to
/// `num_rows`); unselected slots are left unspecified.
void HashVectorColumns(const std::vector<const Vector*>& keys,
                       const SelectionVector& sel, size_t num_rows,
                       std::vector<uint64_t>* out);

}  // namespace rfv

#endif  // RFVIEW_EXEC_VECTOR_H_
