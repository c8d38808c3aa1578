#include "ar/model_schema.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"

namespace sam {

namespace {

bool IsNumericHint(const SchemaHints& hints, const std::string& table,
                   const std::string& column) {
  const std::string key = table + "." + column;
  return std::find(hints.numeric_columns.begin(), hints.numeric_columns.end(),
                   key) != hints.numeric_columns.end();
}

/// Collects the distinct literals of the workload per (table, column).
std::map<std::pair<std::string, std::string>, std::set<Value>> CollectLiterals(
    const Workload& train) {
  std::map<std::pair<std::string, std::string>, std::set<Value>> out;
  for (const auto& q : train) {
    for (const auto& p : q.predicates) {
      auto& set = out[{p.table, p.column}];
      if (p.op == PredOp::kIn) {
        for (const auto& v : p.in_list) set.insert(v);
      } else {
        set.insert(p.literal);
      }
    }
  }
  return out;
}

/// Builds interval boundaries for a numeric column: catalog [min, max]
/// extended with every literal (and literal+1 for integer columns, which
/// makes boundary predicates exactly representable).
std::vector<double> BuildBounds(const std::set<Value>& literals, double lo,
                                double hi, bool integer) {
  std::set<double> bounds;
  bounds.insert(lo);
  bounds.insert(hi + (integer ? 1.0 : 1e-9));  // Upper bound is exclusive.
  for (const auto& v : literals) {
    const double x = v.AsNumeric();
    if (x < lo || x > hi) continue;
    bounds.insert(x);
    if (integer) bounds.insert(x + 1.0);
  }
  std::vector<double> out(bounds.begin(), bounds.end());
  // Guard: at least one interval.
  if (out.size() < 2) out = {lo, hi + 1.0};
  return out;
}

}  // namespace

Result<ModelSchema> ModelSchema::Build(const Database& db, const Workload& train,
                                       const SchemaHints& hints,
                                       int64_t foj_size) {
  ModelSchema schema;
  SAM_ASSIGN_OR_RETURN(schema.graph_, db.BuildJoinGraph());
  schema.multi_relation_ = db.num_tables() > 1;
  schema.foj_size_ = foj_size;
  if (schema.multi_relation_) {
    const auto roots = schema.graph_.Roots();
    if (roots.size() != 1) {
      return Status::InvalidArgument(
          "multi-relation model requires a single-root tree join schema");
    }
    schema.root_ = roots[0];
  } else {
    schema.root_ = db.tables()[0].name();
  }
  for (const auto& t : db.tables()) {
    schema.table_sizes_[t.name()] = static_cast<int64_t>(t.num_rows());
  }

  const auto literals = CollectLiterals(train);

  auto add_content_columns = [&](const Table& table, bool fk_relation) -> Status {
    for (const auto& cname : table.ContentColumnNames()) {
      ModelColumn col;
      col.kind = ModelColumnKind::kContent;
      col.table = table.name();
      col.name = cname;
      SAM_ASSIGN_OR_RETURN(size_t ci, table.ColumnIndex(cname));
      col.type = table.column(ci).type();
      col.has_null = fk_relation;
      const auto lit_it = literals.find({table.name(), cname});
      static const std::set<Value> kEmpty;
      const std::set<Value>& lits = lit_it == literals.end() ? kEmpty : lit_it->second;
      if (IsNumericHint(hints, table.name(), cname)) {
        col.intervalized = true;
        const auto bound_it = hints.numeric_bounds.find(table.name() + "." + cname);
        if (bound_it == hints.numeric_bounds.end()) {
          return Status::InvalidArgument("numeric column " + table.name() + "." +
                                         cname + " missing catalog bounds");
        }
        col.bounds = BuildBounds(lits, bound_it->second.first,
                                 bound_it->second.second,
                                 col.type == ColumnType::kInt);
        col.domain_size = col.bounds.size() - 1;
      } else {
        col.categories.assign(lits.begin(), lits.end());
        if (col.categories.empty()) {
          // A column never filtered: a single placeholder category keeps the
          // layout total and the sampler well-defined.
          col.categories.push_back(col.type == ColumnType::kString
                                       ? Value(std::string("<any>"))
                                       : Value(int64_t{0}));
        }
        col.domain_size = col.categories.size();
      }
      if (col.has_null) ++col.domain_size;  // Reserve code 0 for NULL.
      schema.columns_.push_back(std::move(col));
    }
    return Status::OK();
  };

  if (!schema.multi_relation_) {
    SAM_RETURN_NOT_OK(add_content_columns(db.tables()[0], /*fk_relation=*/false));
  } else {
    for (const auto& rel : schema.graph_.TopologicalOrder()) {
      const Table* table = db.FindTable(rel);
      const bool is_fk_rel = !schema.graph_.Parent(rel).empty();
      if (is_fk_rel) {
        ModelColumn ind;
        ind.kind = ModelColumnKind::kIndicator;
        ind.table = rel;
        ind.name = rel;
        ind.domain_size = 2;
        schema.columns_.push_back(std::move(ind));
      }
      SAM_RETURN_NOT_OK(add_content_columns(*table, is_fk_rel));
      if (is_fk_rel) {
        ModelColumn fan;
        fan.kind = ModelColumnKind::kFanout;
        fan.table = rel;
        fan.name = rel;
        fan.domain_size = static_cast<size_t>(std::max<int64_t>(hints.fanout_cap, 2));
        schema.columns_.push_back(std::move(fan));
      }
    }
  }

  size_t offset = 0;
  for (auto& col : schema.columns_) {
    col.offset = offset;
    offset += col.domain_size;
  }
  schema.total_domain_ = offset;

  // The fanout-scaling and NULL-relation rule, compiled once (RelationRule).
  // Topological order puts parents before their children.
  for (const auto& name : schema.graph_.TopologicalOrder()) {
    RelationRule& rule = schema.relations_.emplace_back();
    rule.name = name;
    rule.parent = schema.RelationIndex(schema.graph_.Parent(name));
  }
  // A relation's indicator precedes the rest of its columns (see above).
  for (size_t c = 0; c < schema.columns_.size(); ++c) {
    ModelColumn& col = schema.columns_[c];
    col.relation = static_cast<size_t>(schema.RelationIndex(col.table));
    RelationRule& owner = schema.relations_[col.relation];
    if (col.kind == ModelColumnKind::kIndicator) {
      owner.indicator = static_cast<int>(c);
    }
    col.indicator = owner.indicator;
  }
  for (auto& rule : schema.relations_) {
    rule.covered = schema.Covered({rule.name});
    for (size_t c = 0; c < schema.columns_.size(); ++c) {
      const ModelColumn& col = schema.columns_[c];
      const bool in_set = rule.covered[col.relation] != 0;
      // Only FK relations have a fanout column; each has a parent and an
      // indicator.
      const bool fanout = col.kind == ModelColumnKind::kFanout;
      const int parent = schema.relations_[col.relation].parent;
      if (fanout ? rule.covered[static_cast<size_t>(parent)] != 0 : in_set) {
        rule.identifier_columns.push_back(c);
      }
      if (fanout && !in_set) {
        rule.weight_terms.push_back({c, static_cast<size_t>(col.indicator)});
      }
    }
  }
  return schema;
}

int ModelSchema::RelationIndex(const std::string& name) const {
  for (size_t r = 0; r < relations_.size(); ++r) {
    if (relations_[r].name == name) return static_cast<int>(r);
  }
  return -1;
}

const RelationRule& ModelSchema::relation(const std::string& name) const {
  const int r = RelationIndex(name);
  SAM_CHECK(r >= 0) << "unknown relation '" << name << "'";
  return relations_[static_cast<size_t>(r)];
}

std::vector<uint8_t> ModelSchema::Covered(
    const std::vector<std::string>& names) const {
  std::vector<uint8_t> out(relations_.size(), 0);
  for (const auto& name : names) {
    for (int r = RelationIndex(name); r >= 0;
         r = relations_[static_cast<size_t>(r)].parent) {
      out[static_cast<size_t>(r)] = 1;
    }
  }
  return out;
}

int ModelSchema::FindColumn(ModelColumnKind kind, const std::string& table,
                            const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    const auto& c = columns_[i];
    if (c.kind == kind && c.table == table && c.name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<size_t> ModelSchema::ColumnsOf(ModelColumnKind kind,
                                           const std::string& table) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].kind == kind && columns_[i].table == table) out.push_back(i);
  }
  return out;
}

namespace {

/// Inclusive numeric region of a predicate over an integer/real axis.
struct Region {
  double lo;
  double hi;
};

Region PredicateRegion(const Predicate& p, bool integer) {
  const double v = p.literal.AsNumeric();
  const double inf = std::numeric_limits<double>::infinity();
  const double step = integer ? 1.0 : 1e-12;
  switch (p.op) {
    case PredOp::kEq:
      return {v, v};
    case PredOp::kLe:
      return {-inf, v};
    case PredOp::kLt:
      return {-inf, v - step};
    case PredOp::kGe:
      return {v, inf};
    case PredOp::kGt:
      return {v + step, inf};
    case PredOp::kIn:
      break;
  }
  return {-inf, inf};
}

}  // namespace

Result<CompiledQuery> ModelSchema::Compile(const Query& q) const {
  CompiledQuery out;
  out.allow.resize(columns_.size());
  out.scale_fanout.assign(columns_.size(), 0);
  out.log_card = std::log(static_cast<double>(std::max<int64_t>(q.cardinality, 1)));

  // Relations "covered" by the query: J ∪ Ancestors(J) (Eq. 4 / NeuroCard
  // fanout scaling: only fanouts of relations outside this set multiply the
  // tuple count).
  const std::vector<uint8_t> covered = Covered(q.relations);

  for (size_t i = 0; i < columns_.size(); ++i) {
    const ModelColumn& col = columns_[i];
    switch (col.kind) {
      case ModelColumnKind::kIndicator:
        // Inner-join semantics: the relation must be present (code 1).
        if (q.InvolvesRelation(col.table)) out.allow[i] = {0, 1};
        break;
      case ModelColumnKind::kFanout:
        if (covered[col.relation] == 0) out.scale_fanout[i] = 1;
        break;
      case ModelColumnKind::kContent: {
        const auto preds = q.PredicatesOn(col.table);
        std::vector<const Predicate*> mine;
        for (const Predicate* p : preds) {
          if (p->column == col.name) mine.push_back(p);
        }
        if (mine.empty()) break;
        std::vector<uint8_t> mask(col.domain_size, 1);
        if (col.has_null) mask[0] = 0;  // Predicates never match NULL.
        const size_t base = col.has_null ? 1 : 0;
        for (const Predicate* p : mine) {
          if (col.intervalized) {
            if (p->op == PredOp::kIn) {
              std::vector<uint8_t> in_mask(col.domain_size, 0);
              for (const auto& v : p->in_list) {
                const double x = v.AsNumeric();
                for (size_t j = 0; j + 1 < col.bounds.size(); ++j) {
                  if (x >= col.bounds[j] && x < col.bounds[j + 1]) {
                    in_mask[base + j] = 1;
                  }
                }
              }
              for (size_t j = 0; j < col.domain_size; ++j) mask[j] &= in_mask[j];
            } else {
              const Region r =
                  PredicateRegion(*p, col.type == ColumnType::kInt);
              for (size_t j = 0; j + 1 < col.bounds.size(); ++j) {
                // Interval j covers [b_j, b_{j+1}); on integer columns its
                // integer span is [b_j, b_{j+1} - 1]. Keep it when the span
                // intersects the predicate region (exact when the literal is
                // a training boundary).
                const double span_lo = col.bounds[j];
                const double span_hi =
                    col.type == ColumnType::kInt ? col.bounds[j + 1] - 1.0
                                                 : col.bounds[j + 1] - 1e-12;
                if (span_hi < r.lo || span_lo > r.hi) mask[base + j] = 0;
              }
            }
          } else {
            // Categorical: match against the category list.
            std::vector<uint8_t> pmask(col.domain_size, 0);
            if (p->op == PredOp::kIn) {
              for (const auto& v : p->in_list) {
                const auto it = std::lower_bound(col.categories.begin(),
                                                 col.categories.end(), v);
                if (it != col.categories.end() && *it == v) {
                  pmask[base + static_cast<size_t>(
                                   it - col.categories.begin())] = 1;
                }
              }
            } else {
              for (size_t j = 0; j < col.categories.size(); ++j) {
                const Value& cat = col.categories[j];
                bool keep = false;
                switch (p->op) {
                  case PredOp::kEq:
                    keep = cat == p->literal;
                    break;
                  case PredOp::kLe:
                    keep = !(p->literal < cat);
                    break;
                  case PredOp::kLt:
                    keep = cat < p->literal;
                    break;
                  case PredOp::kGe:
                    keep = !(cat < p->literal);
                    break;
                  case PredOp::kGt:
                    keep = p->literal < cat;
                    break;
                  case PredOp::kIn:
                    break;
                }
                if (keep) pmask[base + j] = 1;
              }
            }
            for (size_t j = 0; j < col.domain_size; ++j) mask[j] &= pmask[j];
          }
        }
        out.allow[i] = std::move(mask);
        break;
      }
    }
  }
  return out;
}

Value ModelSchema::DecodeContent(const ModelColumn& col, int32_t code,
                                 Rng* rng) const {
  SAM_CHECK_EQ(static_cast<int>(col.kind), static_cast<int>(ModelColumnKind::kContent));
  if (col.has_null) {
    if (code == 0) return Value::Null();
    --code;
  }
  if (!col.intervalized) {
    SAM_CHECK_LT(static_cast<size_t>(code), col.categories.size());
    return col.categories[static_cast<size_t>(code)];
  }
  const double lo = col.bounds[static_cast<size_t>(code)];
  const double hi = col.bounds[static_cast<size_t>(code) + 1];
  if (col.type == ColumnType::kInt) {
    const int64_t ilo = static_cast<int64_t>(std::ceil(lo));
    const int64_t ihi = std::max<int64_t>(ilo, static_cast<int64_t>(std::ceil(hi)) - 1);
    return Value(rng->UniformInt(ilo, ihi));
  }
  return Value(rng->Uniform(lo, hi));
}

int32_t ModelSchema::EncodeContent(const ModelColumn& col, const Value& v) const {
  if (v.is_null()) return col.has_null ? 0 : -1;
  const int32_t base = col.has_null ? 1 : 0;
  if (!col.intervalized) {
    const auto it =
        std::lower_bound(col.categories.begin(), col.categories.end(), v);
    if (it == col.categories.end() || !(*it == v)) return -1;
    return base + static_cast<int32_t>(it - col.categories.begin());
  }
  const double x = v.AsNumeric();
  for (size_t j = 0; j + 1 < col.bounds.size(); ++j) {
    if (x >= col.bounds[j] && x < col.bounds[j + 1]) {
      return base + static_cast<int32_t>(j);
    }
  }
  return -1;
}

}  // namespace sam
