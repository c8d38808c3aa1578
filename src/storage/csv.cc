#include "storage/csv.h"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "storage/artifact_io.h"

namespace sam {

void AppendCsvHeader(const std::vector<std::string>& column_names,
                     std::string* out) {
  for (size_t c = 0; c < column_names.size(); ++c) {
    if (c > 0) out->push_back(',');
    out->append(column_names[c]);
  }
  out->push_back('\n');
}

void AppendCsvField(const Value& v, std::string* out) {
  if (!v.is_double()) {
    out->append(v.ToString());
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v.AsDouble());
  out->append(buf, res.ptr);
}

void AppendCsvRow(const std::vector<Value>& row, std::string* out) {
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) out->push_back(',');
    if (!row[c].is_null()) AppendCsvField(row[c], out);
  }
  out->push_back('\n');
}

Status WriteCsv(const Table& table, const std::string& path) {
  // Serialise fully, then atomically rename into place so a crash can never
  // leave a half-written CSV at the target path.
  std::string out;
  std::vector<std::string> names;
  names.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    names.push_back(table.column(c).name());
  }
  AppendCsvHeader(names, &out);
  std::vector<Value> row(table.num_columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row[c] = table.column(c).ValueAt(r);
    }
    AppendCsvRow(row, &out);
  }
  return AtomicWriteFile(path, out);
}

Result<Table> ReadCsv(const std::string& name, const std::string& path,
                      const std::vector<ColumnType>& types) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line)) return Status::IOError("empty CSV '" + path + "'");
  const std::vector<std::string> header = Split(line, ',');
  if (header.size() != types.size()) {
    return Status::InvalidArgument("CSV '" + path + "' has " +
                                   std::to_string(header.size()) +
                                   " columns, expected " +
                                   std::to_string(types.size()));
  }
  // Cells are dictionary-coded as they are parsed, so a load holds codes and
  // distinct values, never a whole table of Values.
  std::vector<ColumnBuilder> cols;
  for (size_t c = 0; c < header.size(); ++c) {
    cols.emplace_back(header[c], types[c]);
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != header.size()) {
      return Status::InvalidArgument("CSV '" + path + "' line " +
                                     std::to_string(line_no) +
                                     ": wrong field count");
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      const std::string field(Trim(fields[c]));
      if (field.empty()) {
        cols[c].Append(Value::Null());
        continue;
      }
      switch (types[c]) {
        case ColumnType::kInt: {
          char* end = nullptr;
          const long long v = std::strtoll(field.c_str(), &end, 10);
          if (end == nullptr || *end != '\0') {
            return Status::InvalidArgument("CSV '" + path + "' line " +
                                           std::to_string(line_no) +
                                           ": bad int '" + field + "'");
          }
          cols[c].Append(Value(static_cast<int64_t>(v)));
          break;
        }
        case ColumnType::kDouble: {
          char* end = nullptr;
          const double v = std::strtod(field.c_str(), &end);
          if (end == nullptr || *end != '\0') {
            return Status::InvalidArgument("CSV '" + path + "' line " +
                                           std::to_string(line_no) +
                                           ": bad double '" + field + "'");
          }
          cols[c].Append(Value(v));
          break;
        }
        case ColumnType::kString:
          cols[c].Append(Value(field));
          break;
      }
    }
  }
  Table table(name);
  for (ColumnBuilder& col : cols) {
    SAM_RETURN_NOT_OK(table.AddColumn(std::move(col).Finish()));
  }
  return table;
}

}  // namespace sam
