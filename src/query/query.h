#pragma once

#include <string>
#include <vector>

#include "storage/value.h"

namespace sam {

/// \brief Comparison operator of a selection predicate.
enum class PredOp { kEq, kLe, kGe, kLt, kGt, kIn };

const char* PredOpToString(PredOp op);

/// \brief A selection predicate `table.column op literal` (or IN list).
///
/// Per the paper's assumption (§2.2), predicates only reference content
/// columns — never join keys.
struct Predicate {
  std::string table;
  std::string column;
  PredOp op = PredOp::kEq;
  Value literal;                ///< For all ops except kIn.
  std::vector<Value> in_list;   ///< For kIn.

  std::string ToString() const;
};

/// \brief A conjunctive (multi-way FK join) query with its observed
/// cardinality label.
///
/// `relations` lists every relation in the join; for multi-relation queries
/// the set must form a connected subtree of the join graph. Single-relation
/// queries have exactly one entry.
struct Query {
  std::vector<std::string> relations;
  std::vector<Predicate> predicates;

  /// Observed Card(q) on the target database (the training label).
  int64_t cardinality = -1;

  /// True when `table` participates in the join.
  bool InvolvesRelation(const std::string& table) const;

  /// Predicates restricted to `table`.
  std::vector<const Predicate*> PredicatesOn(const std::string& table) const;

  std::string ToString() const;
};

/// \brief A workload: an ordered list of labelled queries.
using Workload = std::vector<Query>;

}  // namespace sam
