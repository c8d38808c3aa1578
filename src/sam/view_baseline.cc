#include "sam/view_baseline.h"

#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

namespace sam {

Result<Database> GenerateViewBaseline(const SamModel& sam,
                                      const SamModel::FojSample& foj,
                                      Rng* rng) {
  const ModelSchema& schema = sam.schema();
  const JoinGraph& graph = schema.join_graph();
  const std::string& root = schema.root();
  const std::vector<std::string> order = graph.TopologicalOrder();
  for (const auto& rel : order) {
    if (rel != root && !graph.Children(rel).empty()) {
      return Status::NotImplemented(
          "the view-based baseline only supports depth-1 snowflakes");
    }
  }
  // Output columns per relation (layout order), appended one row at a time
  // by `emit_row` from a sample and the given key values.
  std::unordered_map<std::string, const SamModel::TableLayout*> layouts;
  std::unordered_map<std::string, std::vector<std::vector<Value>>> columns;
  for (const auto& l : sam.layouts()) {
    layouts[l.name] = &l;
    columns[l.name].resize(l.column_names.size());
  }
  if (layouts.count(root) == 0 || layouts.at(root)->pk.empty()) {
    return Status::InvalidArgument("root relation must have a primary key");
  }

  // IPW (Eq. 4), then scaling to |T|.
  auto scaled_weights = [&](const std::string& rel) -> Result<std::vector<double>> {
    std::vector<double> w(foj.count);
    double sum = 0.0;
    size_t present = 0;
    for (size_t s = 0; s < foj.count; ++s) {
      w[s] = sam.InverseProbabilityWeight(foj, rel, s);
      sum += w[s];
      present += w[s] > 0.0 ? 1 : 0;
    }
    if (sum <= 0.0) {
      return DegenerateSampleError(
          "no usable samples for relation '" + rel + "': " +
          std::to_string(present) + " of " + std::to_string(foj.count) +
          " FOJ samples have it present");
    }
    for (double& v : w) v *= static_cast<double>(schema.table_size(rel)) / sum;
    return w;
  };

  auto emit_row = [&](const std::string& rel, size_t s, int64_t pk,
                      int64_t fk) -> Status {
    const SamModel::TableLayout& layout = *layouts.at(rel);
    auto& cols = columns.at(rel);
    for (size_t ci = 0; ci < layout.column_names.size(); ++ci) {
      const std::string& cname = layout.column_names[ci];
      if (cname == layout.pk) {
        cols[ci].emplace_back(pk);
      } else if (!layout.fks.empty() && cname == layout.fks.front().column) {
        cols[ci].emplace_back(fk);
      } else {
        const int col = schema.FindColumn(ModelColumnKind::kContent, rel, cname);
        if (col < 0) {
          return Status::Internal("content column missing from model: " + rel +
                                  "." + cname);
        }
        const auto c = static_cast<size_t>(col);
        cols[ci].push_back(
            schema.DecodeContent(schema.columns()[c], foj.codes[c][s], rng));
      }
    }
    return Status::OK();
  };

  // Root: one key per unit of scaled mass of each distinct root content.
  const std::vector<size_t> root_content =
      schema.ColumnsOf(ModelColumnKind::kContent, root);
  auto content_key = [&](size_t s) {
    std::string key;
    for (size_t c : root_content) key += std::to_string(foj.codes[c][s]) + ',';
    return key;
  };
  SAM_ASSIGN_OR_RETURN(const std::vector<double> root_w, scaled_weights(root));
  std::unordered_map<std::string, double> root_mass;
  std::unordered_map<std::string, size_t> root_repr;
  for (size_t s = 0; s < foj.count; ++s) {
    if (root_w[s] <= 0.0) continue;
    const std::string key = content_key(s);
    root_mass[key] += root_w[s];
    root_repr.emplace(key, s);
  }
  std::unordered_map<std::string, std::vector<int64_t>> keys_by_content;
  int64_t counter = 0;
  for (const auto& [key, mass] : root_mass) {
    for (int64_t i = std::llround(mass); i > 0; --i, ++counter) {
      SAM_RETURN_NOT_OK(emit_row(root, root_repr[key], counter, -1));
      keys_by_content[key].push_back(counter);
    }
  }

  // Children: match on root content and pick a random matching key.
  for (const auto& rel : order) {
    if (rel == root) continue;
    SAM_ASSIGN_OR_RETURN(const std::vector<double> w, scaled_weights(rel));
    double carry = 0.0;
    for (size_t s = 0; s < foj.count; ++s) {
      if (w[s] <= 0.0) continue;
      const auto it = keys_by_content.find(content_key(s));
      if (it == keys_by_content.end()) continue;
      const std::vector<int64_t>& keys = it->second;
      for (carry += w[s]; carry >= 1.0; carry -= 1.0) {
        const int64_t fk = keys[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
        SAM_RETURN_NOT_OK(emit_row(rel, s, -1, fk));
      }
    }
  }

  Database db;
  for (const auto& layout : sam.layouts()) {
    Table table(layout.name);
    for (size_t ci = 0; ci < layout.column_names.size(); ++ci) {
      SAM_RETURN_NOT_OK(table.AddColumn(
          Column::FromValues(layout.column_names[ci], layout.column_types[ci],
                             columns.at(layout.name)[ci])));
    }
    if (!layout.pk.empty()) SAM_RETURN_NOT_OK(table.SetPrimaryKey(layout.pk));
    for (const auto& fk : layout.fks) SAM_RETURN_NOT_OK(table.AddForeignKey(fk));
    SAM_RETURN_NOT_OK(db.AddTable(std::move(table)));
  }
  return db;
}

}  // namespace sam
