// bench_serve: the serving-layer benchmark — N client threads firing a
// mixed read/write workload at one Database through per-client
// Sessions, reporting throughput and tail latency per client count.
//
// The workload per client: 80% reads rotating over a point-ish filter
// scan, a COUNT(*) aggregate, and a materialized-view scan; 20% writes
// alternating a small append INSERT and a band UPDATE. Reads run
// concurrently against pinned snapshots; writes serialize on the engine
// write mutex.
//
// Output: the stable BENCH_*.json schema of bench/json_reporter.h, one
// record per (clients, statistic):
//
//   serve/clients:N/throughput  rows_per_sec = statements per second
//   serve/clients:N/p50         ns_per_op    = median latency
//   serve/clients:N/p95         ns_per_op    = 95th percentile latency
//   serve/clients:N/p99         ns_per_op    = 99th percentile latency
//
// Usage:
//   bench_serve [--clients=1,2,4,8] [--ops=200] [--rows=5000]
//               [--json_out=FILE]
//
// EXPERIMENTS.md A9 records the 1→8 client scaling from this binary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/session.h"
#include "json_reporter.h"

namespace {

using rfv::Database;
using rfv::Result;
using rfv::ResultSet;
using rfv::Session;

struct Args {
  std::vector<int> clients = {1, 2, 4, 8};
  int ops_per_client = 200;
  int rows = 5000;
  std::string json_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--clients=")) {
      args->clients.clear();
      for (const char* p = v; *p != '\0';) {
        args->clients.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      if (args->clients.empty()) return false;
    } else if (const char* v = value("--ops=")) {
      args->ops_per_client = std::atoi(v);
    } else if (const char* v = value("--rows=")) {
      args->rows = std::atoi(v);
    } else if (const char* v = value("--json_out=")) {
      args->json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return args->ops_per_client > 0 && args->rows > 0;
}

void MustExecute(Database* db, const std::string& sql) {
  const Result<ResultSet> rs = db->Execute(sql);
  if (!rs.ok()) {
    std::fprintf(stderr, "setup failed: %s\n  %s\n", sql.c_str(),
                 rs.status().ToString().c_str());
    std::exit(1);
  }
}

void BuildWarehouse(Database* db, int rows) {
  MustExecute(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
  for (int lo = 1; lo <= rows; lo += 500) {
    std::string insert = "INSERT INTO seq VALUES ";
    const int hi = std::min(lo + 499, rows);
    for (int i = lo; i <= hi; ++i) {
      if (i > lo) insert += ", ";
      insert += "(" + std::to_string(i) + ", " +
                std::to_string(((i * 37 + 11) % 101) - 23) + ")";
    }
    MustExecute(db, insert);
  }
  MustExecute(db, "ANALYZE seq");
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 10 PRECEDING AND CURRENT ROW) "
              "FROM seq");
}

struct RunStats {
  double seconds = 0;
  std::vector<int64_t> latencies_ns;  // one per statement, all clients
};

/// One client: ops_per_client statements, 4-in-5 reads. The statement
/// mix is keyed on (client, op) so every run of the same configuration
/// issues the same statement sequence.
void ClientLoop(Database* db, int client, int ops, std::atomic<int64_t>* next_pos,
                std::vector<int64_t>* latencies) {
  Session session(db);
  latencies->reserve(static_cast<size_t>(ops));
  for (int op = 0; op < ops; ++op) {
    std::string sql;
    switch ((op + client) % 5) {
      case 0:
        sql = "SELECT pos, val FROM seq WHERE pos <= 200";
        break;
      case 1:
        sql = "SELECT COUNT(*) FROM seq";
        break;
      case 2:
        sql = "SELECT pos FROM v WHERE pos <= 200";
        break;
      case 3:
        sql = op % 2 == 0 ? "INSERT INTO seq VALUES (" +
                                std::to_string(next_pos->fetch_add(1)) + ", 1)"
                          : "UPDATE seq SET val = " + std::to_string(op) +
                                " WHERE pos <= 20";
        break;
      case 4:
        sql = "SELECT pos, val FROM seq WHERE pos > " +
              std::to_string(100 + 10 * (op % 10)) + " AND pos <= " +
              std::to_string(300 + 10 * (op % 10));
        break;
    }
    const auto start = std::chrono::steady_clock::now();
    const Result<ResultSet> rs = session.Execute(sql);
    const auto end = std::chrono::steady_clock::now();
    if (!rs.ok()) {
      std::fprintf(stderr, "client %d: %s\n  %s\n", client, sql.c_str(),
                   rs.status().ToString().c_str());
      std::exit(1);
    }
    latencies->push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  }
}

RunStats RunClients(Database* db, int clients, int ops_per_client,
                    std::atomic<int64_t>* next_pos) {
  std::vector<std::vector<int64_t>> per_client(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, db, c, ops_per_client, next_pos,
                         &per_client[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunStats stats;
  stats.seconds = std::chrono::duration<double>(end - start).count();
  for (const std::vector<int64_t>& lats : per_client) {
    stats.latencies_ns.insert(stats.latencies_ns.end(), lats.begin(),
                              lats.end());
  }
  std::sort(stats.latencies_ns.begin(), stats.latencies_ns.end());
  return stats;
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s [--clients=1,2,4,8] [--ops=N] [--rows=N]\n"
                 "          [--json_out=FILE]\n",
                 argv[0]);
    return 2;
  }

  std::vector<rfv::benchjson::BenchRecord> records;
  for (const int clients : args.clients) {
    // Fresh warehouse per client count so earlier runs' appends don't
    // skew later scans.
    Database db;
    BuildWarehouse(&db, args.rows);
    std::atomic<int64_t> next_pos{1'000'000};

    // Warmup: one client pass populates caches/stats paths.
    {
      std::vector<int64_t> warmup;
      ClientLoop(&db, 0, std::min(args.ops_per_client, 25), &next_pos,
                 &warmup);
    }

    const RunStats stats =
        RunClients(&db, clients, args.ops_per_client, &next_pos);
    const int64_t total_ops =
        static_cast<int64_t>(stats.latencies_ns.size());
    const double throughput =
        stats.seconds > 0 ? static_cast<double>(total_ops) / stats.seconds
                          : 0;
    double mean_ns = 0;
    for (const int64_t ns : stats.latencies_ns) {
      mean_ns += static_cast<double>(ns);
    }
    if (total_ops > 0) mean_ns /= static_cast<double>(total_ops);

    const std::string prefix =
        "serve/clients:" + std::to_string(clients) + "/";
    const auto record = [&records, total_ops](const std::string& name,
                                              double ns, double rate) {
      rfv::benchjson::BenchRecord rec;
      rec.name = name;
      rec.iters = total_ops;
      rec.ns_per_op = ns;
      rec.rows_per_sec = rate;
      records.push_back(rec);
    };
    record(prefix + "throughput", mean_ns, throughput);
    record(prefix + "p50",
           static_cast<double>(Percentile(stats.latencies_ns, 0.50)), 0);
    record(prefix + "p95",
           static_cast<double>(Percentile(stats.latencies_ns, 0.95)), 0);
    record(prefix + "p99",
           static_cast<double>(Percentile(stats.latencies_ns, 0.99)), 0);

    std::printf(
        "clients=%d  ops=%lld  %.0f stmt/s  p50=%.2fms p95=%.2fms "
        "p99=%.2fms\n",
        clients, static_cast<long long>(total_ops), throughput,
        static_cast<double>(Percentile(stats.latencies_ns, 0.50)) / 1e6,
        static_cast<double>(Percentile(stats.latencies_ns, 0.95)) / 1e6,
        static_cast<double>(Percentile(stats.latencies_ns, 0.99)) / 1e6);
  }

  if (!args.json_out.empty() &&
      !rfv::benchjson::WriteJson(args.json_out, records)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_out.c_str());
    return 1;
  }
  return 0;
}
