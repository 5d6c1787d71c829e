// The three workloads of the warehouse benchmark. Each loads its tables
// through SQL from the seed, builds its correctness references after
// loading, and generates a deterministic statement stream per client.
// Table sizes, view windows and query shapes are recorded in
// whbench/NOTES.md; keep the two in step.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "db/session.h"
#include "harness.h"
#include "sequence/compute.h"

namespace whbench {
namespace {

using rfv::Database;
using rfv::Result;
using rfv::ResultSet;
using rfv::Session;
using rfv::WindowSpec;

bool Exec(Database* db, const std::string& sql, ResultSet* out = nullptr) {
  Result<ResultSet> rs = db->Execute(sql);
  if (!rs.ok()) {
    std::fprintf(stderr, "whbench: %s\n  in: %.160s\n",
                 rs.status().ToString().c_str(), sql.c_str());
    return false;
  }
  if (out != nullptr) *out = std::move(rs).value();
  return true;
}

/// Appends `tuples` to `table` in INSERT statements of 1000 rows each.
bool InsertTuples(Database* db, const std::string& table,
                  const std::vector<std::string>& tuples) {
  constexpr size_t kChunk = 1000;
  for (size_t lo = 0; lo < tuples.size(); lo += kChunk) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    const size_t hi = std::min(lo + kChunk, tuples.size());
    for (size_t i = lo; i < hi; ++i) {
      if (i > lo) sql += ',';
      sql += tuples[i];
    }
    if (!Exec(db, sql)) return false;
  }
  return true;
}

/// Integer-valued measures in [-50, 50]: every window SUM stays exact in
/// doubles, so results compare with ==.
std::vector<double> Measures(Rng* rng, size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = static_cast<double>(rng->Uniform(-50, 50));
  return out;
}

std::string Int(int64_t v) { return std::to_string(v); }
std::string Int(double v) { return std::to_string(static_cast<int64_t>(v)); }

/// `SELECT pos, <agg>(val) OVER (ORDER BY pos ROWS BETWEEN l PRECEDING AND
/// h FOLLOWING) FROM <table> ORDER BY pos`.
std::string SlidingSql(const std::string& agg, int64_t l, int64_t h,
                       const std::string& table) {
  return "SELECT pos, " + agg + "(val) OVER (ORDER BY pos ROWS BETWEEN " +
         Int(l) + " PRECEDING AND " + Int(h) + " FOLLOWING) FROM " + table +
         " ORDER BY pos";
}

/// Numeric cell as double; false for NULL and non-numeric cells.
bool Numeric(const rfv::Value& v, double* out) {
  if (v.type() != rfv::DataType::kInt64 && v.type() != rfv::DataType::kDouble) {
    return false;
  }
  *out = v.ToDouble();
  return true;
}

/// True when `rs` holds rows with column 0 = 1..expected.size() in order
/// and column 1 equal to `expected`.
bool MatchesSequence(const ResultSet& rs, const std::vector<double>& expected) {
  if (rs.NumRows() != expected.size() || rs.schema().NumColumns() < 2) {
    return false;
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    double pos = 0;
    double val = 0;
    if (!Numeric(rs.at(r, 0), &pos) || !Numeric(rs.at(r, 1), &val)) {
      return false;
    }
    if (pos != static_cast<double>(r + 1) || val != expected[r]) return false;
  }
  return true;
}

/// Order-sensitive numeric digest of a result. Compared with a tolerance
/// relative to the magnitude of the summed terms, so a summation-order
/// change within rounding is not counted as a wrong result.
struct Digest {
  size_t rows = 0;
  size_t nulls = 0;
  double sum = 0;
  double weighted = 0;
  double magnitude = 0;
};

bool DigestOf(const ResultSet& rs, Digest* d) {
  *d = Digest();
  d->rows = rs.NumRows();
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    const double weight = static_cast<double>(r % 101 + 1);
    for (size_t c = 0; c < rs.schema().NumColumns(); ++c) {
      const rfv::Value& cell = rs.at(r, c);
      if (cell.is_null()) {
        ++d->nulls;
        continue;
      }
      double v = 0;
      if (!Numeric(cell, &v)) return false;
      const double term = weight * static_cast<double>(c + 1) * v;
      d->sum += v;
      d->weighted += term;
      d->magnitude += std::fabs(term);
    }
  }
  return true;
}

bool SameDigest(const Digest& a, const Digest& b) {
  const double tol = 1e-9 * (1 + std::max(a.magnitude, b.magnitude));
  return a.rows == b.rows && a.nulls == b.nulls &&
         std::fabs(a.sum - b.sum) <= tol &&
         std::fabs(a.weighted - b.weighted) <= tol;
}

bool CountIs(Database* db, const std::string& table, int64_t expected) {
  ResultSet rs;
  if (!Exec(db, "SELECT COUNT(*) FROM " + table, &rs)) return false;
  return rs.NumRows() == 1 && rs.at(0, 0).type() == rfv::DataType::kInt64 &&
         rs.at(0, 0).AsInt() == expected;
}

/// Column `col` of `sql`'s result, in row order; false on error or a
/// non-numeric cell.
bool ReadColumn(Database* db, const std::string& sql, size_t col,
                std::vector<double>* out) {
  ResultSet rs;
  if (!Exec(db, sql, &rs)) return false;
  out->assign(rs.NumRows(), 0);
  for (size_t r = 0; r < rs.NumRows(); ++r) {
    if (!Numeric(rs.at(r, col), &(*out)[r])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// compute_native: the paper's Table 1 side. One client, no views; every
// query recomputes its window from a 100k-row base table, so exec
// (scan, window, sort) carries nearly all the time.
// ---------------------------------------------------------------------------

class ComputeNative : public Workload {
 public:
  static constexpr int64_t kSeqRows = 100000;
  static constexpr int64_t kPartitions = 64;
  static constexpr int64_t kPartitionRows = 2000;

  explicit ComputeNative(uint64_t seed) {
    Rng rng(seed);
    seq_ = Measures(&rng, kSeqRows);
    pseq_ = Measures(&rng, kPartitions * kPartitionRows);
    const auto sliding = [](int64_t l, int64_t h) {
      Shape s;
      s.sql = SlidingSql("SUM", l, h, "seq");
      s.check = Shape::kSliding;
      s.l = l;
      s.h = h;
      return s;
    };
    const auto digest = [](std::string sql) {
      Shape s;
      s.sql = std::move(sql);
      s.check = Shape::kDigest;
      return s;
    };
    shapes_.push_back(sliding(1, 1));  // Table 1
    shapes_.push_back(sliding(50, 50));
    shapes_.push_back(digest(SlidingSql("AVG", 20, 10, "seq")));
    Shape cumulative;
    cumulative.sql =
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN UNBOUNDED "
        "PRECEDING AND CURRENT ROW) FROM seq ORDER BY pos";
    cumulative.check = Shape::kCumulative;
    shapes_.push_back(cumulative);
    shapes_.push_back(digest(
        "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 10 PRECEDING "
        "AND 10 FOLLOWING), MAX(val) OVER (ORDER BY pos ROWS BETWEEN 10 "
        "PRECEDING AND 10 FOLLOWING) FROM seq ORDER BY pos"));
    shapes_.push_back(
        digest("SELECT pos, RANK() OVER (ORDER BY val) FROM seq ORDER BY pos"));
    shapes_.push_back(digest(
        "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS "
        "BETWEEN 2 PRECEDING AND 2 FOLLOWING) FROM pseq ORDER BY grp, pos"));
  }

  const char* name() const override { return "compute_native"; }
  int clients() const override { return 1; }
  int64_t cycle_ops() const override {
    return static_cast<int64_t>(shapes_.size());
  }
  int64_t warmup_ops() const override { return 2 * cycle_ops(); }

  bool Load(Database* db) const override {
    std::vector<std::string> tuples;
    tuples.reserve(static_cast<size_t>(kSeqRows));
    for (int64_t i = 0; i < kSeqRows; ++i) {
      tuples.push_back("(" + Int(i + 1) + "," + Int(seq_[i]) + ")");
    }
    if (!Exec(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)") ||
        !InsertTuples(db, "seq", tuples)) {
      return false;
    }
    tuples.clear();
    for (int64_t g = 0; g < kPartitions; ++g) {
      for (int64_t p = 0; p < kPartitionRows; ++p) {
        tuples.push_back("(" + Int(g + 1) + "," + Int(p + 1) + "," +
                         Int(pseq_[g * kPartitionRows + p]) + ")");
      }
    }
    return Exec(db, "CREATE TABLE pseq (grp INTEGER, pos INTEGER, val DOUBLE)") &&
           InsertTuples(db, "pseq", tuples) && Exec(db, "ANALYZE");
  }

  bool Prepare(Database* db) override {
    // Unpartitioned SUM frames: the in-memory sequence algebra. The rest:
    // a digest of the row-at-a-time engine (vector and batch paths off).
    Session reference(db);
    reference.options().exec.use_vectorized_execution = false;
    reference.options().exec.use_batch_execution = false;
    for (Shape& s : shapes_) {
      switch (s.check) {
        case Shape::kSliding:
          s.expected = rfv::ComputeSlidingPipelined(
              seq_, WindowSpec::SlidingUnchecked(s.l, s.h));
          break;
        case Shape::kCumulative:
          s.expected = rfv::ComputeCumulative(seq_);
          break;
        case Shape::kDigest: {
          Result<ResultSet> rs = reference.Execute(s.sql);
          if (!rs.ok() || !DigestOf(*rs, &s.digest)) {
            std::fprintf(stderr, "whbench: reference run failed: %s\n",
                         s.sql.c_str());
            return false;
          }
          break;
        }
      }
    }
    return true;
  }

  Op NextOp(int client, int64_t i) override {
    (void)client;
    Op op;
    op.shape = static_cast<int>(i % static_cast<int64_t>(shapes_.size()));
    op.sql = shapes_[static_cast<size_t>(op.shape)].sql;
    return op;
  }

  bool Check(const Op& op, const ResultSet& rs) override {
    const Shape& s = shapes_[static_cast<size_t>(op.shape)];
    if (s.check != Shape::kDigest) return MatchesSequence(rs, s.expected);
    Digest d;
    return DigestOf(rs, &d) && SameDigest(d, s.digest);
  }

  bool CheckQuiesced(Database* db) override {
    return CountIs(db, "seq", kSeqRows) &&
           CountIs(db, "pseq", kPartitions * kPartitionRows);
  }

  std::vector<std::string> ReadShapes() const override {
    std::vector<std::string> out;
    for (const Shape& s : shapes_) out.push_back(s.sql);
    return out;
  }

 private:
  struct Shape {
    std::string sql;
    enum Check { kSliding, kCumulative, kDigest } check = kDigest;
    int64_t l = 0;
    int64_t h = 0;
    std::vector<double> expected;
    Digest digest;
  };

  std::vector<double> seq_;
  std::vector<double> pseq_;
  std::vector<Shape> shapes_;
};

// ---------------------------------------------------------------------------
// derive_views: the paper's Table 2 and the A7/A8 sweep. One client over a
// 2000-row sequence with three materialized views; the rewriter, the
// re-parse of the pattern SQL and the join/union/aggregate operators
// carry the time. Default options: the cost model picks every path.
// ---------------------------------------------------------------------------

class DeriveViews : public Workload {
 public:
  static constexpr int64_t kSeqRows = 2000;

  explicit DeriveViews(uint64_t seed) {
    Rng rng(seed);
    seq_ = Measures(&rng, kSeqRows);
    // Table 2's query, the three A8 widenings, an exact view hit, and the
    // Table 1 frame the cost model declines to derive.
    const int64_t frames[][2] = {{3, 1},   {44, 44}, {44, 0},
                                 {121, 41}, {40, 40}, {1, 1}};
    for (const auto& f : frames) {
      Shape s;
      s.sql = SlidingSql("SUM", f[0], f[1], "seq");
      s.expected = rfv::ComputeSlidingPipelined(
          seq_, WindowSpec::SlidingUnchecked(f[0], f[1]));
      shapes_.push_back(std::move(s));
    }
  }

  const char* name() const override { return "derive_views"; }
  int clients() const override { return 1; }
  int64_t cycle_ops() const override {
    return static_cast<int64_t>(shapes_.size());
  }
  int64_t warmup_ops() const override { return 2 * cycle_ops(); }

  bool Load(Database* db) const override {
    std::vector<std::string> tuples;
    for (int64_t i = 0; i < kSeqRows; ++i) {
      tuples.push_back("(" + Int(i + 1) + "," + Int(seq_[i]) + ")");
    }
    if (!Exec(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)") ||
        !InsertTuples(db, "seq", tuples) || !Exec(db, "ANALYZE seq")) {
      return false;
    }
    const int64_t views[][2] = {{2, 1}, {40, 40}, {40, 0}};
    for (const auto& v : views) {
      const std::string view = "v_" + Int(v[0]) + "_" + Int(v[1]);
      if (!Exec(db, "CREATE MATERIALIZED VIEW " + view +
                        " AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                        "BETWEEN " + Int(v[0]) + " PRECEDING AND " +
                        Int(v[1]) + " FOLLOWING) FROM seq")) {
        return false;
      }
    }
    return true;
  }

  bool Prepare(Database* db) override {
    // Native recompute with the rewrite disabled must agree with the
    // sequence algebra before it can stand as the reference.
    Session native(db);
    native.options().enable_view_rewrite = false;
    for (const Shape& s : shapes_) {
      Result<ResultSet> rs = native.Execute(s.sql);
      if (!rs.ok() || !MatchesSequence(*rs, s.expected)) {
        std::fprintf(stderr, "whbench: native reference disagrees: %s\n",
                     s.sql.c_str());
        return false;
      }
    }
    return true;
  }

  Op NextOp(int client, int64_t i) override {
    (void)client;
    Op op;
    op.shape = static_cast<int>(i % static_cast<int64_t>(shapes_.size()));
    op.sql = shapes_[static_cast<size_t>(op.shape)].sql;
    return op;
  }

  bool Check(const Op& op, const ResultSet& rs) override {
    return MatchesSequence(rs, shapes_[static_cast<size_t>(op.shape)].expected);
  }

  bool CheckQuiesced(Database* db) override {
    return CountIs(db, "seq", kSeqRows);
  }

  std::vector<std::string> ReadShapes() const override {
    std::vector<std::string> out;
    for (const Shape& s : shapes_) out.push_back(s.sql);
    return out;
  }

 private:
  struct Shape {
    std::string sql;
    std::vector<double> expected;
  };

  std::vector<double> seq_;
  std::vector<Shape> shapes_;
};

// ---------------------------------------------------------------------------
// serve_mixed: the serving side. Two reader sessions run short
// statements while one writer session sends every write: SQL UPDATE,
// INSERT and DELETE on tables without views, alternating with
// PropagateBaseUpdate on the base table of view v. Each INSERT into
// events is paired with a DELETE of its oldest row, so table sizes do not
// grow with throughput. Fixed per-statement costs, the write mutex,
// snapshot copies and view maintenance carry the time.
// ---------------------------------------------------------------------------

class ServeMixed : public Workload {
 public:
  /// Two readers and the writer leave one of the reference machine's four
  /// vCPUs to the rest of the system; with all four busy, throughput varied
  /// three times as much from run to run.
  static constexpr int kReaders = 2;
  static constexpr int64_t kFactsRows = 4000;
  static constexpr int64_t kEventsRows = 1000;
  static constexpr int64_t kSeqRows = 1000;
  static constexpr int64_t kViewL = 2;  // v = the paper's x̃ = (2, 1)
  static constexpr int64_t kViewH = 1;
  static constexpr int64_t kRangeRows = 100;
  /// Read shapes per reader cycle, and writes per writer cycle.
  static constexpr int kShapes = 5;
  /// Read shape 3: a window the cost model derives from v by MinOA.
  static constexpr int64_t kDerivedL = kViewL + 3;
  static constexpr int64_t kDerivedH = kViewH + 1;

  explicit ServeMixed(uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    facts_ = Measures(&rng, kFactsRows);
    events_ = Measures(&rng, kEventsRows);
    seq_ = Measures(&rng, kSeqRows);
  }

  const char* name() const override { return "serve_mixed"; }
  int clients() const override { return kReaders + 1; }
  int64_t cycle_ops() const override { return kShapes; }
  int64_t warmup_ops() const override { return 6 * kShapes; }

  bool Load(Database* db) const override {
    std::vector<std::string> tuples;
    for (int64_t i = 0; i < kFactsRows; ++i) {
      tuples.push_back("(" + Int(i + 1) + "," + Int(i % 16) + "," +
                       Int(facts_[i]) + ")");
    }
    if (!Exec(db,
              "CREATE TABLE facts (id INTEGER PRIMARY KEY, grp INTEGER, "
              "val DOUBLE)") ||
        !InsertTuples(db, "facts", tuples)) {
      return false;
    }
    tuples.clear();
    for (int64_t i = 0; i < kEventsRows; ++i) {
      tuples.push_back("(" + Int(i + 1) + "," + Int(events_[i]) + ")");
    }
    if (!Exec(db, "CREATE TABLE events (id INTEGER PRIMARY KEY, val DOUBLE)") ||
        !InsertTuples(db, "events", tuples)) {
      return false;
    }
    tuples.clear();
    for (int64_t i = 0; i < kSeqRows; ++i) {
      tuples.push_back("(" + Int(i + 1) + "," + Int(seq_[i]) + ")");
    }
    return Exec(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)") &&
           InsertTuples(db, "seq", tuples) && Exec(db, "ANALYZE") &&
           Exec(db,
                "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
                "(ORDER BY pos ROWS BETWEEN " + Int(kViewL) +
                    " PRECEDING AND " + Int(kViewH) + " FOLLOWING) FROM seq");
  }

  bool Prepare(Database* db) override {
    (void)db;
    return true;
  }

  Op NextOp(int client, int64_t i) override {
    Rng rng = OpRng(seed_, client, i);
    Op op;
    if (client < kReaders) {
      op.shape = static_cast<int>((i + client) % kShapes);
      op.sql = ReadSql(op.shape, &rng);
      if (op.shape == 1) {
        op.seen[0] = inserts_committed_.load(std::memory_order_acquire);
        op.seen[1] = deletes_committed_.load(std::memory_order_acquire);
      }
      return op;
    }
    // UPDATE, maintain, INSERT, maintain, DELETE.
    op.shape = static_cast<int>(i % kShapes);
    switch (op.shape) {
      case 0: {
        const int64_t a = rng.Uniform(1, kFactsRows - 9);
        const int64_t d = rng.Uniform(1, 5) * (rng.Next() % 2 == 0 ? 1 : -1);
        op.kind = Op::Kind::kDml;
        op.position = a;
        op.value = static_cast<double>(d);
        op.sql = "UPDATE facts SET val = val + " + Int(d) +
                 " WHERE id BETWEEN " + Int(a) + " AND " + Int(a + 9);
        break;
      }
      case 2: {
        op.kind = Op::Kind::kDml;
        const int64_t id = kEventsRows + 1 +
                           inserts_sent_.fetch_add(1, std::memory_order_acq_rel);
        op.sql = "INSERT INTO events VALUES (" + Int(id) + "," +
                 Int(rng.Uniform(-50, 50)) + ")";
        break;
      }
      case 4: {
        op.kind = Op::Kind::kDml;
        const int64_t id =
            1 + deletes_sent_.fetch_add(1, std::memory_order_acq_rel);
        op.sql = "DELETE FROM events WHERE id = " + Int(id);
        break;
      }
      default:  // 1, 3
        op.kind = Op::Kind::kMaintain;
        op.base_table = "seq";
        op.view_table = "v";
        op.position = rng.Uniform(1, kSeqRows);
        op.value = static_cast<double>(rng.Uniform(-50, 50));
        break;
    }
    return op;
  }

  bool Check(const Op& op, const ResultSet& rs) override {
    if (op.kind == Op::Kind::kMaintain) {
      // A SUM (l, h) view rewrites the l + h + 1 windows covering the
      // position, all inside the complete sequence.
      return rs.affected() == kViewL + kViewH + 1;
    }
    if (op.kind == Op::Kind::kDml) {
      return rs.affected() == (op.shape == 0 ? 10 : 1);
    }
    switch (op.shape) {
      case 0:
      case 2:
        return rs.NumRows() == static_cast<size_t>(kRangeRows);
      case 1: {
        // The snapshot holds some prefix of the writer's statements: at
        // least what was committed before, at most what was sent after.
        if (rs.NumRows() != 1 || rs.at(0, 0).type() != rfv::DataType::kInt64) {
          return false;
        }
        const int64_t count = rs.at(0, 0).AsInt();
        const int64_t inserts = inserts_sent_.load(std::memory_order_acquire);
        const int64_t deletes = deletes_sent_.load(std::memory_order_acquire);
        return count >= kEventsRows + op.seen[0] - deletes &&
               count <= kEventsRows + inserts - op.seen[1];
      }
      case 3:
        return IsDensePositions(rs, kSeqRows);
      default:
        return IsDensePositions(rs, kFactsRows);
    }
  }

  void AfterWrite(const Op& op) override {
    if (op.kind == Op::Kind::kMaintain) {
      seq_[static_cast<size_t>(op.position - 1)] = op.value;
    } else if (op.shape == 0) {
      for (int64_t id = op.position; id < op.position + 10; ++id) {
        facts_[static_cast<size_t>(id - 1)] += op.value;
      }
    } else if (op.shape == 2) {
      inserts_committed_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      deletes_committed_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  bool CheckQuiesced(Database* db) override {
    // Base tables must hold exactly what the writer wrote, the view must
    // equal a fresh recompute of its base table, and the window derived
    // from the view must equal the sequence algebra's answer.
    const rfv::Sequence fresh = rfv::BuildCompleteSequence(
        seq_, WindowSpec::SlidingUnchecked(kViewL, kViewH), rfv::SeqAggFn::kSum);
    std::vector<double> facts;
    std::vector<double> seq;
    std::vector<double> view_pos;
    std::vector<double> view_val;
    ResultSet derived;
    if (!Exec(db, ReadSql(3, nullptr), &derived) ||
        !MatchesSequence(derived,
                         rfv::ComputeSlidingPipelined(
                             seq_, WindowSpec::SlidingUnchecked(kDerivedL,
                                                                kDerivedH)))) {
      return false;
    }
    if (!CountIs(db, "events",
                 kEventsRows + inserts_committed_.load() -
                     deletes_committed_.load()) ||
        !ReadColumn(db, "SELECT id, val FROM facts ORDER BY id", 1, &facts) ||
        !ReadColumn(db, "SELECT pos, val FROM seq ORDER BY pos", 1, &seq) ||
        !ReadColumn(db, "SELECT pos, val FROM v ORDER BY pos", 0, &view_pos) ||
        !ReadColumn(db, "SELECT pos, val FROM v ORDER BY pos", 1, &view_val)) {
      return false;
    }
    if (facts != facts_ || seq != seq_) return false;
    const size_t stored =
        static_cast<size_t>(fresh.last_pos() - fresh.first_pos() + 1);
    if (view_pos.size() != stored) return false;
    for (size_t r = 0; r < stored; ++r) {
      if (view_pos[r] != static_cast<double>(fresh.first_pos()) +
                             static_cast<double>(r) ||
          view_val[r] != fresh.at(static_cast<int64_t>(view_pos[r]))) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::string> ReadShapes() const override {
    std::vector<std::string> out;
    Rng rng(seed_);
    for (int shape = 0; shape < kShapes; ++shape) {
      out.push_back(ReadSql(shape, &rng));
    }
    return out;
  }

 private:
  /// Reader statements: a range filter, COUNT(*) over the append-only
  /// table, a view scan, a rewritten window query (MinOA from v) and a
  /// Table 1 window over facts. Only the range shapes 0 and 2 draw from
  /// `rng`.
  static std::string ReadSql(int shape, Rng* rng) {
    switch (shape) {
      case 0: {
        const int64_t a = rng->Uniform(1, kFactsRows - kRangeRows + 1);
        return "SELECT id, val FROM facts WHERE id BETWEEN " + Int(a) +
               " AND " + Int(a + kRangeRows - 1);
      }
      case 1:
        return "SELECT COUNT(*) FROM events";
      case 2: {
        const int64_t a = rng->Uniform(1, kSeqRows - kRangeRows + 1);
        return "SELECT pos, val FROM v WHERE pos BETWEEN " + Int(a) + " AND " +
               Int(a + kRangeRows - 1);
      }
      case 3:
        return SlidingSql("SUM", kDerivedL, kDerivedH, "seq");
      default:
        return "SELECT id, SUM(val) OVER (ORDER BY id ROWS BETWEEN 1 "
               "PRECEDING AND 1 FOLLOWING) FROM facts ORDER BY id";
    }
  }

  /// Rows 1..n in order in column 0, integer-valued sums in column 1.
  static bool IsDensePositions(const ResultSet& rs, int64_t n) {
    if (rs.NumRows() != static_cast<size_t>(n)) return false;
    for (size_t r = 0; r < rs.NumRows(); ++r) {
      double pos = 0;
      double val = 0;
      if (!Numeric(rs.at(r, 0), &pos) || !Numeric(rs.at(r, 1), &val) ||
          pos != static_cast<double>(r + 1) || val != std::floor(val)) {
        return false;
      }
    }
    return true;
  }

  const uint64_t seed_;
  std::vector<double> events_;
  // The writer's model of the tables it changes: written by the writer
  // client only, read at quiesce.
  std::vector<double> facts_;
  std::vector<double> seq_;
  std::atomic<int64_t> inserts_sent_{0};
  std::atomic<int64_t> inserts_committed_{0};
  std::atomic<int64_t> deletes_sent_{0};
  std::atomic<int64_t> deletes_committed_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "compute_native") return std::make_unique<ComputeNative>(seed);
  if (name == "derive_views") return std::make_unique<DeriveViews>(seed);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(seed);
  return nullptr;
}

}  // namespace whbench
