#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace sam {

/// Code used in a column's code vector for NULL cells.
inline constexpr int32_t kNullCode = -1;

/// \brief Dictionary-encoded column.
///
/// Every column stores a sorted dictionary of distinct values plus a dense
/// vector of int32 codes (the row data). Sorting the dictionary makes range
/// predicates order-preserving over codes, which both the executor and the
/// AR-model encoders rely on.
class Column {
 public:
  Column() = default;
  Column(std::string name, ColumnType type) : name_(std::move(name)), type_(type) {}

  /// Builds a column from raw values (dictionary inferred and sorted).
  static Column FromValues(std::string name, ColumnType type,
                           const std::vector<Value>& values);

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t num_rows() const { return codes_.size(); }
  size_t dict_size() const { return dict_.size(); }

  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<Value>& dictionary() const { return dict_; }

  int32_t CodeAt(size_t row) const { return codes_[row]; }

  /// Decoded value at `row` (NULL for the null code).
  Value ValueAt(size_t row) const {
    const int32_t c = codes_[row];
    return c == kNullCode ? Value::Null() : dict_[c];
  }

  /// Dictionary lookup; -1 when `v` is absent.
  int32_t CodeOf(const Value& v) const;

  /// Index of the first dictionary entry >= v (for range predicates).
  int32_t LowerBoundCode(const Value& v) const;

  /// Index of the first dictionary entry > v.
  int32_t UpperBoundCode(const Value& v) const;

 private:
  friend class ColumnBuilder;

  std::string name_;
  ColumnType type_ = ColumnType::kInt;
  std::vector<Value> dict_;
  std::vector<int32_t> codes_;
};

/// \brief Builds a column one value at a time.
///
/// Each value is coded as it arrives (first-seen ids, recoded to sorted
/// dictionary order by `Finish`), so a builder holds the distinct values plus
/// one int32 per row, never the whole column's `Value`s. The result equals
/// `Column::FromValues` over the same values. The dictionary is a `std::map`,
/// so untrusted input (CSV cells) costs O(log d) per cell whatever it holds.
class ColumnBuilder {
 public:
  ColumnBuilder(std::string name, ColumnType type)
      : col_(std::move(name), type) {}

  void Reserve(size_t rows) { col_.codes_.reserve(rows); }
  void Append(const Value& v);
  Column Finish() &&;

 private:
  Column col_;  ///< Holds first-seen ids in `codes_` until `Finish`.
  std::map<Value, int32_t> ids_;
};

}  // namespace sam
