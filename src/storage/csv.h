#pragma once

#include <string>

#include "common/result.h"
#include "storage/table.h"

namespace sam {

/// \brief Writes `table` as a CSV file with a header row. NULLs are written
/// as empty fields.
Status WriteCsv(const Table& table, const std::string& path);

/// Appends the CSV header line for `column_names` (comma-joined,
/// '\n'-terminated). Shared by `WriteCsv` and the generation pipeline so
/// streamed output is byte-identical to a `WriteCsv` of the same table.
void AppendCsvHeader(const std::vector<std::string>& column_names,
                     std::string* out);

/// Appends one non-NULL CSV field. DOUBLEs use the shortest text that
/// parses back to the identical bits (`std::to_chars`); other types use
/// `Value::ToString`, whose 6-digit `%g` would truncate doubles.
void AppendCsvField(const Value& v, std::string* out);

/// Appends one CSV data row: empty field for NULL, `AppendCsvField`
/// otherwise, '\n'-terminated. Counterpart of `AppendCsvHeader`.
void AppendCsvRow(const std::vector<Value>& row, std::string* out);

/// \brief Reads a CSV with a header row into a table.
///
/// `types` gives the column types in file order; fields are parsed
/// accordingly and empty fields become NULL.
Result<Table> ReadCsv(const std::string& name, const std::string& path,
                      const std::vector<ColumnType>& types);

}  // namespace sam
