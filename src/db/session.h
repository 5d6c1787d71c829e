#ifndef RFVIEW_DB_SESSION_H_
#define RFVIEW_DB_SESSION_H_

#include <string>

#include "db/database.h"

namespace rfv {

/// One client's connection to a Database: per-session options, seeded
/// from the engine defaults at construction, then mutated freely
/// without affecting other sessions. A Session is NOT itself
/// thread-safe — it models one client thread — but any number of
/// sessions may Execute against the same Database concurrently: SELECTs
/// read pinned table snapshots and DML serializes on the engine write
/// mutex.
///
///   Database db;
///   Session a(&db), b(&db);
///   a.options().enable_view_rewrite = false;   // b unaffected
///   auto rs = a.Execute("SELECT ...");
class Session {
 public:
  explicit Session(Database* db) : db_(db), options_(db->options()) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// This session's options — a private copy; mutations never leak to
  /// the engine defaults or to other sessions.
  Database::Options& options() { return options_; }
  const Database::Options& options() const { return options_; }

  /// Executes one SQL statement under this session's options.
  Result<ResultSet> Execute(const std::string& sql) {
    return db_->Execute(sql, options_);
  }

 private:
  Database* db_;
  Database::Options options_;
};

}  // namespace rfv

#endif  // RFVIEW_DB_SESSION_H_
