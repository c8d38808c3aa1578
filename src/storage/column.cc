#include "storage/column.h"

#include <algorithm>

namespace sam {

Column Column::FromValues(std::string name, ColumnType type,
                          const std::vector<Value>& values) {
  ColumnBuilder builder(std::move(name), type);
  builder.Reserve(values.size());
  for (const auto& v : values) builder.Append(v);
  return std::move(builder).Finish();
}

void ColumnBuilder::Append(const Value& v) {
  if (v.is_null()) {
    col_.codes_.push_back(kNullCode);
    return;
  }
  // Copies `v` only when it is new.
  col_.codes_.push_back(
      ids_.try_emplace(v, static_cast<int32_t>(ids_.size())).first->second);
}

Column ColumnBuilder::Finish() && {
  // std::map iterates in sorted order: the k-th key gets dictionary code k.
  std::vector<int32_t> sorted_code(ids_.size());
  col_.dict_.reserve(ids_.size());
  for (auto& [v, id] : ids_) {
    sorted_code[static_cast<size_t>(id)] =
        static_cast<int32_t>(col_.dict_.size());
    col_.dict_.push_back(v);
  }
  for (int32_t& c : col_.codes_) {
    if (c != kNullCode) c = sorted_code[static_cast<size_t>(c)];
  }
  ids_.clear();
  return std::move(col_);
}

int32_t Column::CodeOf(const Value& v) const {
  auto it = std::lower_bound(dict_.begin(), dict_.end(), v);
  if (it == dict_.end() || !(*it == v)) return -1;
  return static_cast<int32_t>(it - dict_.begin());
}

int32_t Column::LowerBoundCode(const Value& v) const {
  auto it = std::lower_bound(dict_.begin(), dict_.end(), v);
  return static_cast<int32_t>(it - dict_.begin());
}

int32_t Column::UpperBoundCode(const Value& v) const {
  auto it = std::upper_bound(dict_.begin(), dict_.end(), v);
  return static_cast<int32_t>(it - dict_.begin());
}

}  // namespace sam
