#include "db/csv.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace rfv {

namespace {

/// Splits one CSV record starting at *pos in `text`; advances *pos past
/// the record's trailing newline. Handles quoted fields with ""
/// escaping and embedded newlines. Returns false at end of input.
bool NextRecord(const std::string& text, size_t* pos, char delimiter,
                std::vector<std::string>* fields, bool* parse_error) {
  *parse_error = false;
  fields->clear();
  size_t i = *pos;
  const size_t n = text.size();
  if (i >= n) return false;

  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
      saw_any = true;
      ++i;
      continue;
    }
    if (c == delimiter) {
      fields->push_back(std::move(field));
      field.clear();
      saw_any = true;
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      // End of record; swallow \r\n pairs.
      if (c == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
      ++i;
      break;
    }
    field.push_back(c);
    saw_any = true;
    ++i;
  }
  if (in_quotes) {
    *parse_error = true;
    *pos = i;
    return true;
  }
  fields->push_back(std::move(field));
  *pos = i;
  // A fully empty trailing line is not a record.
  return saw_any || fields->size() > 1;
}

/// Parses one field into the column's type.
Result<Value> ParseField(const std::string& field, DataType type,
                         const std::string& null_text, size_t line) {
  if (field == null_text) return Value::Null();
  const auto error = [&](const char* what) {
    return Status::InvalidArgument(std::string(what) + " '" + field +
                                   "' at line " + std::to_string(line));
  };
  switch (type) {
    case DataType::kInt64: {
      char* end = nullptr;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') {
        return error("invalid integer");
      }
      return Value::Int(v);
    }
    case DataType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return error("invalid double");
      }
      return Value::Double(v);
    }
    case DataType::kBool: {
      const std::string lower = ToLower(field);
      if (lower == "true" || lower == "1") return Value::Bool(true);
      if (lower == "false" || lower == "0") return Value::Bool(false);
      return error("invalid boolean");
    }
    case DataType::kString:
    case DataType::kNull:
      return Value::String(field);
  }
  return Status::Internal("unreachable type in CSV import");
}

/// Quotes a field when it contains the delimiter, quotes or newlines.
std::string QuoteField(const std::string& field, char delimiter) {
  bool needs_quotes = false;
  for (const char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

/// Renders a value as raw CSV text (no SQL quoting).
std::string FieldText(const Value& v, const std::string& null_text) {
  switch (v.type()) {
    case DataType::kNull: return null_text;
    case DataType::kString: return v.AsString();
    case DataType::kBool: return v.AsBool() ? "true" : "false";
    case DataType::kInt64: return std::to_string(v.AsInt());
    case DataType::kDouble: {
      std::ostringstream os;
      os << v.AsDouble();
      return os.str();
    }
  }
  return "";
}

}  // namespace

Result<size_t> ImportCsv(Catalog* catalog, const std::string& table_name,
                         const std::string& path, const CsvOptions& options) {
  Result<Table*> table_result = catalog->GetTable(table_name);
  if (!table_result.ok()) return table_result.status();
  Table* table = *table_result;

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<Row> rows;
  size_t pos = 0;
  size_t line = 0;
  std::vector<std::string> fields;
  bool parse_error = false;
  while (NextRecord(text, &pos, options.delimiter, &fields, &parse_error)) {
    ++line;
    if (parse_error) {
      return Status::InvalidArgument("unterminated quoted field at line " +
                                     std::to_string(line));
    }
    if (options.header && line == 1) continue;
    if (fields.size() != table->schema().NumColumns()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line) + " has " +
          std::to_string(fields.size()) + " fields, table " + table_name +
          " has " + std::to_string(table->schema().NumColumns()) +
          " columns");
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      Value v;
      RFV_ASSIGN_OR_RETURN(
          v, ParseField(fields[c], table->schema().column(c).type,
                        options.null_text, line));
      values.push_back(std::move(v));
    }
    rows.push_back(Row(std::move(values)));
  }
  const size_t inserted = rows.size();
  RFV_RETURN_IF_ERROR(table->InsertBatch(std::move(rows)));
  return inserted;
}

Result<size_t> ExportCsv(Catalog* catalog, const std::string& table_name,
                         const std::string& path, const CsvOptions& options) {
  Result<Table*> table_result = catalog->GetTable(table_name);
  if (!table_result.ok()) return table_result.status();
  const Table* table = *table_result;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot open file " + path);
  if (options.header) {
    for (size_t c = 0; c < table->schema().NumColumns(); ++c) {
      if (c > 0) out << options.delimiter;
      out << QuoteField(table->schema().column(c).name, options.delimiter);
    }
    out << '\n';
  }
  // Read a pinned snapshot: the export runs beside concurrent DML.
  const TableSnapshotPtr snap = table->PinSnapshot();
  for (size_t r = 0; r < snap->num_rows(); ++r) {
    const Row& row = snap->row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << options.delimiter;
      out << QuoteField(FieldText(row[c], options.null_text),
                        options.delimiter);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::ExecutionError("write to " + path + " failed");
  return snap->num_rows();
}

}  // namespace rfv
