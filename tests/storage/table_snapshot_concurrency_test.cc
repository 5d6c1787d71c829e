// The snapshot pin protocol under concurrency: readers load the
// published snapshot pointer without the table's writer lock whenever a
// write bracket is open or the snapshot is current, and refresh under
// the lock only after an unbracketed write. These tests pin what that
// must keep: a pin during an open bracket sees the pre-bracket image, an
// unbracketed write ordered before a pin is visible to it, and under a
// bracketed writer every pinned snapshot and every statistics copy is a
// committed state. Run by the TSan CI leg.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "storage/table.h"

namespace rfv {
namespace {

Schema IdValSchema() {
  return Schema({ColumnDef("id", DataType::kInt64),
                 ColumnDef("val", DataType::kInt64)});
}

Row IdVal(int64_t id, int64_t val) {
  return Row({Value::Int(id), Value::Int(val)});
}

int64_t SumOfVal(const TableSnapshot& snap) {
  int64_t sum = 0;
  for (size_t r = 0; r < snap.num_rows(); ++r) sum += snap.row(r)[1].AsInt();
  return sum;
}

int64_t ReaderRefreshes() {
  return MetricsRegistry::Global()
      .GetCounter("rfv_snapshot_reader_refresh_total")
      ->value();
}

TEST(TableSnapshotConcurrencyTest, PinDuringOpenBracketSeesPreBracketImage) {
  Table t("t", IdValSchema());
  for (int64_t i = 0; i < 3; ++i) ASSERT_TRUE(t.Insert(IdVal(i, 10)).ok());

  t.BeginWrite();
  ASSERT_TRUE(t.Insert(IdVal(3, 10)).ok());
  ASSERT_TRUE(t.UpdateCell(0, 1, Value::Int(99)).ok());
  ASSERT_TRUE(t.DeleteRow(1).ok());
  TableSnapshotPtr during;
  std::thread reader([&] { during = t.PinSnapshot(); });
  reader.join();
  t.EndWrite();

  ASSERT_NE(during, nullptr);
  EXPECT_EQ(during->num_rows(), 3u);
  EXPECT_EQ(SumOfVal(*during), 30);
  EXPECT_EQ(during->row(0)[1], Value::Int(10));

  const TableSnapshotPtr after = t.PinSnapshot();
  EXPECT_EQ(after->num_rows(), 3u);
  EXPECT_EQ(SumOfVal(*after), 99 + 10 + 10);
  EXPECT_EQ(after->epoch(), t.mutation_epoch());
}

// The published snapshot is current when the writer starts each round,
// so a pin that skipped the staleness check would return it and miss
// the insert.
TEST(TableSnapshotConcurrencyTest, UnbracketedInsertVisibleToLaterPin) {
  constexpr int64_t kRounds = 300;
  Table t("t", IdValSchema());
  ASSERT_EQ(t.PinSnapshot()->num_rows(), 0u);
  // 2k + 1: the writer inserted row k; 2k + 2: the reader checked it.
  std::atomic<int64_t> turn{0};
  std::atomic<int64_t> misses{0};
  std::thread writer([&] {
    for (int64_t k = 0; k < kRounds; ++k) {
      while (turn.load(std::memory_order_acquire) != 2 * k) {
        std::this_thread::yield();
      }
      if (!t.Insert(IdVal(k, k)).ok()) misses.fetch_add(1);
      turn.store(2 * k + 1, std::memory_order_release);
    }
  });
  std::thread reader([&] {
    for (int64_t k = 0; k < kRounds; ++k) {
      while (turn.load(std::memory_order_acquire) != 2 * k + 1) {
        std::this_thread::yield();
      }
      const TableSnapshotPtr snap = t.PinSnapshot();
      if (snap->num_rows() != static_cast<size_t>(k + 1) ||
          snap->row(static_cast<size_t>(k))[1] != Value::Int(k)) {
        misses.fetch_add(1);
      }
      turn.store(2 * k + 2, std::memory_order_release);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(misses.load(), 0);
}

// Readers pin and copy statistics in a loop while one writer runs
// bracketed statements that each keep the row count at kRows and the
// sum of `val` at kSum: a transfer between two rows (UPDATE), a row
// replaced by an insert and a delete, and a batch insert followed by a
// delete. Every pinned snapshot must show exactly that committed
// state; every statistics copy must be coherent.
TEST(TableSnapshotConcurrencyTest, ReadersSeeOnlyCommittedStates) {
  constexpr int64_t kRows = 2500;  // three chunks: COW shares and copies
  constexpr int kStatements = 1500;
  constexpr int kReaders = 2;
  Table t("t", IdValSchema());
  std::vector<Row> initial;
  for (int64_t i = 0; i < kRows; ++i) initial.push_back(IdVal(i, i % 10));
  ASSERT_TRUE(t.InsertBatch(std::move(initial)).ok());
  ASSERT_TRUE(t.CreateIndex("t_id", "id").ok());
  const TableSnapshotPtr first = t.PinSnapshot();
  const int64_t kSum = SumOfVal(*first);
  const int64_t refreshes_before = ReaderRefreshes();

  std::atomic<bool> done{false};
  std::atomic<int64_t> bad_snapshots{0};
  std::atomic<int64_t> bad_stats{0};
  std::atomic<int64_t> pins{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const TableSnapshotPtr snap = t.PinSnapshot();
        if (snap->num_rows() != static_cast<size_t>(kRows) ||
            SumOfVal(*snap) != kSum || snap->epoch() < last_epoch) {
          bad_snapshots.fetch_add(1);
        }
        last_epoch = snap->epoch();
        // Mid-statement the live row count is kRows or kRows + 1, and a
        // coherent copy never shows a row counted in one place only.
        const TableStats stats = t.StatsSnapshot();
        if (stats.row_count < kRows || stats.row_count > kRows + 1 ||
            stats.columns.size() != 2 ||
            stats.columns[1].non_null_count != stats.row_count) {
          bad_stats.fetch_add(1);
        }
        pins.fetch_add(1);
      }
    });
  }

  while (pins.load() == 0) std::this_thread::yield();
  std::mt19937_64 rng(20261019);
  int64_t next_id = kRows;
  for (int s = 0; s < kStatements; ++s) {
    Table::WriteGuard guard(&t);
    const size_t a = rng() % kRows;
    const size_t b = rng() % kRows;
    switch (s % 3) {
      case 0: {
        const int64_t d = static_cast<int64_t>(rng() % 7) + 1;
        EXPECT_TRUE(
            t.UpdateCell(a, 1, Value::Int(t.row(a)[1].AsInt() - d)).ok());
        EXPECT_TRUE(
            t.UpdateCell(b, 1, Value::Int(t.row(b)[1].AsInt() + d)).ok());
        break;
      }
      case 1: {
        const int64_t val = t.row(a)[1].AsInt();
        EXPECT_TRUE(t.Insert(IdVal(next_id++, val)).ok());
        EXPECT_TRUE(t.DeleteRow(a).ok());
        break;
      }
      default: {
        // Moves the last row to the end of a batch insert.
        const Row last = t.row(kRows - 1);
        std::vector<Row> batch = {IdVal(-s, last[1].AsInt())};
        EXPECT_TRUE(t.InsertBatch(std::move(batch)).ok());
        EXPECT_TRUE(t.DeleteRow(kRows - 1).ok());
        if (s % 50 == 2) t.Analyze();
        break;
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(pins.load(), 0);
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(bad_stats.load(), 0);
  // Every write was bracketed, so no pin refreshed under the lock.
  EXPECT_EQ(ReaderRefreshes(), refreshes_before);
  const TableSnapshotPtr last = t.PinSnapshot();
  EXPECT_EQ(last->num_rows(), static_cast<size_t>(kRows));
  EXPECT_EQ(SumOfVal(*last), kSum);
  // The index image of the final snapshot addresses its own rows.
  const OrderedIndexPtr index = last->IndexOnColumn(0);
  ASSERT_NE(index, nullptr);
  const std::vector<size_t> hits = index->Lookup(last->row(17)[0]);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 17u);
}

}  // namespace
}  // namespace rfv
