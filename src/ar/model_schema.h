#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "query/query.h"
#include "storage/database.h"
#include "storage/join_graph.h"

namespace sam {

/// \brief Role a model column plays in the full-outer-join encoding (§4.1).
enum class ModelColumnKind {
  kContent,    ///< A value attribute of some relation.
  kIndicator,  ///< I_T: 1 when FK relation T participates in the FOJ tuple.
  kFanout,     ///< F_{T.key}: #times T's FK value appears in T.key (capped).
};

/// \brief One column of the autoregressive model, with its discrete encoding.
///
/// Content columns are either *categorical* (domain = the distinct literals
/// observed in the training workload) or *intervalized* (§4.3.2: domain =
/// the intervals between sorted distinct literals, extended by the catalog
/// min/max). Codes are dense 0-based ids; categorical columns of FK
/// relations reserve code 0 for NULL.
struct ModelColumn {
  ModelColumnKind kind = ModelColumnKind::kContent;
  std::string table;
  std::string name;  ///< Column name; for indicator/fanout, the relation name.
  ColumnType type = ColumnType::kInt;

  bool has_null = false;      ///< Content column of an FK relation.
  bool intervalized = false;  ///< Numeric column encoded as intervals.

  /// Categorical domain (sorted, excludes the NULL token).
  std::vector<Value> categories;
  /// Interval boundaries b_0 < ... < b_l; interval j is [b_j, b_{j+1}).
  /// For integer columns every boundary is an integer and literals contribute
  /// both v and v+1, making =,<=,>= predicates exactly representable.
  std::vector<double> bounds;

  size_t domain_size = 0;  ///< Number of codes (incl. NULL token if any).
  size_t offset = 0;       ///< Offset of this column in the one-hot layout.

  /// Decoded fanout value of a code (kFanout columns only): code j -> j+1.
  int64_t FanoutValueOf(int32_t code) const { return code + 1; }
};

/// \brief A query compiled against the model layout.
struct CompiledQuery {
  /// Per model column: allowed-code mask (empty = unconstrained).
  std::vector<std::vector<uint8_t>> allow;
  /// Per model column: true when this fanout column must be inverse-scaled
  /// for this query (its relation is outside J ∪ Ancestors(J); §4.1 fanout
  /// scaling / Eq. 4).
  std::vector<uint8_t> scale_fanout;
  /// log(max(Card, 1)) training target.
  double log_card = 0;
};

/// \brief Catalog-style metadata assumed known to the generator (the paper
/// assumes table sizes and numeric column bounds are available; queries
/// provide everything else).
struct SchemaHints {
  /// "table.column" entries that should be intervalized (numeric columns).
  std::vector<std::string> numeric_columns;
  /// Known [min, max] per numeric "table.column" (catalog statistics).
  std::map<std::string, std::pair<double, double>> numeric_bounds;
  /// Cap on the fanout-column domain; larger fanouts clamp to the cap.
  int64_t fanout_cap = 16;
};

/// \brief The model layout: ordered columns, offsets, and the database
/// metadata needed by training, estimation and generation.
class ModelSchema {
 public:
  /// Builds the schema for a database from its *metadata* plus the training
  /// workload (domains come only from query literals, never from data).
  ///
  /// For multi-relation databases the layout follows the topological order of
  /// the join graph; each FK relation contributes its indicator, then its
  /// content columns, then its fanout column (§4.1), so a relation's
  /// indicator is always sampled before the columns it gates. `foj_size` is
  /// |FOJ| (|T| for single relations).
  static Result<ModelSchema> Build(const Database& db, const Workload& train,
                                   const SchemaHints& hints, int64_t foj_size);

  const std::vector<ModelColumn>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t total_domain() const { return total_domain_; }
  bool multi_relation() const { return multi_relation_; }
  const JoinGraph& join_graph() const { return graph_; }
  const std::string& root() const { return root_; }
  int64_t foj_size() const { return foj_size_; }

  int64_t table_size(const std::string& table) const {
    return table_sizes_.at(table);
  }
  const std::map<std::string, int64_t>& table_sizes() const {
    return table_sizes_;
  }

  /// Index of the column with the given role, or -1.
  int FindColumn(ModelColumnKind kind, const std::string& table,
                 const std::string& name) const;

  /// Indices of all model columns of one kind for `table`.
  std::vector<size_t> ColumnsOf(ModelColumnKind kind,
                                const std::string& table) const;

  /// Compiles `q` to per-column masks and fanout-scaling flags.
  Result<CompiledQuery> Compile(const Query& q) const;

  /// Decodes a sampled code of content column `col` to a concrete value;
  /// intervalized columns draw uniformly within the interval using `rng`.
  Value DecodeContent(const ModelColumn& col, int32_t code, Rng* rng) const;

  /// Encodes a concrete value into `col`'s code space (nearest category /
  /// containing interval); -1 when not representable. NULL encodes to 0 for
  /// has_null columns.
  int32_t EncodeContent(const ModelColumn& col, const Value& v) const;

 private:
  std::vector<ModelColumn> columns_;
  size_t total_domain_ = 0;
  bool multi_relation_ = false;
  JoinGraph graph_;
  std::string root_;
  int64_t foj_size_ = 0;
  std::map<std::string, int64_t> table_sizes_;
};

}  // namespace sam
