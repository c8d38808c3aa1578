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

  size_t relation = 0;  ///< Index of `table` in `ModelSchema::relations()`.
  /// Column of `table`'s indicator I_T; -1 for the root or a single relation.
  int indicator = -1;

  /// Decoded fanout value of a code (kFanout columns only): code j -> j+1.
  int64_t FanoutValueOf(int32_t code) const { return code + 1; }
};

/// \brief A query compiled against the model layout.
struct CompiledQuery {
  /// Per model column: allowed-code mask (empty = unconstrained).
  std::vector<std::vector<uint8_t>> allow;
  /// Per model column: true when this fanout column must be inverse-scaled
  /// for this query (its relation is outside J ∪ Ancestors(J); §4.1 fanout
  /// scaling / Eq. 4). Ungated: see `RelationRule`.
  std::vector<uint8_t> scale_fanout;
  /// log(max(Card, 1)) training target.
  double log_card = 0;
};

/// \brief The fanout-scaling and NULL-relation rule of relation T (§4.1 Eq. 4,
/// §4.3.1, Theorem 2), compiled once by `ModelSchema::Build`: the fanout
/// columns of relations outside {T} ∪ Ancestors(T) divide T's count, each
/// gated by its relation's indicator (a NULL relation contributes fanout 1).
/// IPW reads it, and so does Group-and-Merge; `Compile` uses its covered-set
/// walk. Known mismatch: DPS and `BatchedProgressiveEstimator` divide by every
/// `scale_fanout` column without the gate; ROADMAP "Fidelity, step 1".
struct RelationRule {
  struct FanoutTerm {
    size_t fanout = 0;  ///< Fanout column dividing the weight ...
    size_t gate = 0;    ///< ... unless this indicator column reads absent.
  };

  std::string name;
  int parent = -1;  ///< Index of T's parent relation; -1 for a root.
  std::vector<uint8_t> covered;  ///< {T} ∪ Ancestors(T), per relation index.
  int indicator = -1;  ///< I_T's column; -1 for the root or a single relation.
  /// Eq. 4 terms: the fanout columns outside `covered`, in column order (the
  /// order fixes the bits of the product).
  std::vector<FanoutTerm> weight_terms;
  /// Identifier(T.pk) of Theorem 2: content and indicator columns of
  /// `covered` plus fanout columns of relations whose parent is in it.
  std::vector<size_t> identifier_columns;
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

  /// One rule per relation, in join-graph topological order.
  const std::vector<RelationRule>& relations() const { return relations_; }
  /// Index of relation `name` in `relations()`, or -1.
  int RelationIndex(const std::string& name) const;
  /// The rule of relation `name`, which must exist.
  const RelationRule& relation(const std::string& name) const;

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
  std::vector<RelationRule> relations_;

  /// {R} ∪ Ancestors(R) over every R in `names`, as a mask over relation
  /// indices; unknown names cover nothing. The one covered-set walk behind
  /// `Compile` and every `RelationRule`.
  std::vector<uint8_t> Covered(const std::vector<std::string>& names) const;
};

}  // namespace sam
