#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"

namespace sam {

/// \brief Foreign-key constraint: `column` of this table references
/// `parent_table.parent_column` (the parent's primary key).
struct ForeignKey {
  std::string column;
  std::string parent_table;
  std::string parent_column;
};

/// \brief A named relation: a set of equal-length columns plus key metadata.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].num_rows(); }
  size_t num_columns() const { return columns_.size(); }

  /// Adds a column; all columns must have the same row count.
  Status AddColumn(Column column);

  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of a column by name, or error.
  Result<size_t> ColumnIndex(const std::string& name) const;

  const Column* FindColumn(const std::string& name) const;
  Column* FindColumn(const std::string& name);

  /// Declares the primary-key column (must exist).
  Status SetPrimaryKey(const std::string& column);
  const std::optional<std::string>& primary_key() const { return pk_; }

  /// Declares a foreign key (the referenced table is validated at the
  /// Database level, where the join graph is assembled).
  Status AddForeignKey(ForeignKey fk);
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  /// Names of content (value) columns: everything that is not a PK or FK.
  /// Per the paper's assumption (§2.2), predicates only touch these.
  std::vector<std::string> ContentColumnNames() const;

  /// True when `column` is a join-key (PK or FK) column.
  bool IsKeyColumn(const std::string& column) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::optional<std::string> pk_;
  std::vector<ForeignKey> fks_;
};

}  // namespace sam
