// Property-based (parameterized) tests: invariants that must hold across
// random seeds, not just on hand-picked examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "autodiff/adam.h"
#include "autodiff/ops.h"
#include "common/random.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/matrix.h"
#include "metrics/metrics.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

// ---------------------------------------------------------------------------
// Random tree-schema databases for structural properties.
// ---------------------------------------------------------------------------

/// Builds a random snowflake database: root R with two children S1, S2, and a
/// grandchild G under S1. Row counts, fanouts (including zero fanouts) and
/// content values are all seed-driven.
Database MakeRandomTreeDb(uint64_t seed) {
  Rng rng(seed);
  Database db;
  const int64_t n_root = rng.UniformInt(3, 8);

  std::vector<Value> r_pk, r_content;
  for (int64_t i = 0; i < n_root; ++i) {
    r_pk.emplace_back(i);
    r_content.emplace_back(rng.UniformInt(0, 2));
  }
  {
    Table r("R");
    SAM_CHECK_OK(r.AddColumn(Column::FromValues("id", ColumnType::kInt, r_pk)));
    SAM_CHECK_OK(r.AddColumn(Column::FromValues("rc", ColumnType::kInt, r_content)));
    SAM_CHECK_OK(r.SetPrimaryKey("id"));
    SAM_CHECK_OK(db.AddTable(std::move(r)));
  }

  auto add_child = [&](const char* name, const char* parent,
                       const char* parent_pk, int64_t parent_rows,
                       bool with_pk) -> std::vector<Value> {
    std::vector<Value> pk, fk, content;
    int64_t next_pk = 0;
    for (int64_t p = 0; p < parent_rows; ++p) {
      const int64_t fanout = rng.UniformInt(0, 3);
      for (int64_t k = 0; k < fanout; ++k) {
        if (with_pk) pk.emplace_back(next_pk++);
        fk.emplace_back(p);
        content.emplace_back(rng.UniformInt(0, 2));
      }
    }
    Table t(name);
    if (with_pk) {
      SAM_CHECK_OK(t.AddColumn(Column::FromValues("id", ColumnType::kInt, pk)));
    }
    SAM_CHECK_OK(t.AddColumn(Column::FromValues("fk", ColumnType::kInt, fk)));
    SAM_CHECK_OK(t.AddColumn(Column::FromValues("c", ColumnType::kInt, content)));
    if (with_pk) SAM_CHECK_OK(t.SetPrimaryKey("id"));
    SAM_CHECK_OK(t.AddForeignKey(ForeignKey{"fk", parent, parent_pk}));
    SAM_CHECK_OK(db.AddTable(std::move(t)));
    return pk;
  };

  const auto s1_pks = add_child("S1", "R", "id", n_root, /*with_pk=*/true);
  add_child("S2", "R", "id", n_root, /*with_pk=*/false);
  add_child("G", "S1", "id", static_cast<int64_t>(s1_pks.size()),
            /*with_pk=*/false);
  SAM_CHECK_OK(db.ValidateIntegrity());
  return db;
}

/// Literal workload naming every distinct content value of every relation,
/// so the model schema can encode the entire database.
Workload FullLiteralWorkload(const Database& db) {
  Workload w;
  for (const auto& t : db.tables()) {
    for (const auto& cname : t.ContentColumnNames()) {
      const Column* col = t.FindColumn(cname);
      for (const auto& v : col->dictionary()) {
        Query q;
        q.relations = {t.name()};
        q.predicates = {Predicate{t.name(), cname, PredOp::kEq, v, {}}};
        q.cardinality = 1;
        w.push_back(std::move(q));
      }
    }
  }
  return w;
}

class RandomTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTreeProperty, MaterializedFojRowCountMatchesAnalyticSize) {
  Database db = MakeRandomTreeDb(GetParam());
  auto exec = Executor::Create(&db).MoveValue();
  auto foj = exec->MaterializeFullOuterJoin();
  ASSERT_TRUE(foj.ok()) << foj.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(foj.ValueOrDie().num_rows()),
            exec->FullOuterJoinSize());
}

TEST_P(RandomTreeProperty, IpwWeightsSumToRelationSizesOnTrueFoj) {
  Database db = MakeRandomTreeDb(GetParam());
  auto exec = Executor::Create(&db).MoveValue();
  const Table foj_table = exec->MaterializeFullOuterJoin().MoveValue();

  SamOptions options;
  auto sam = SamModel::Create(db, FullLiteralWorkload(db), SchemaHints{},
                              exec->FullOuterJoinSize(), options)
                 .MoveValue();
  const ModelSchema& schema = sam->schema();

  // Encode the materialised FOJ into model codes.
  SamModel::FojSample foj;
  foj.count = foj_table.num_rows();
  foj.codes.assign(schema.num_columns(), std::vector<int32_t>(foj.count));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ModelColumn& mc = schema.columns()[c];
    std::string foj_col;
    switch (mc.kind) {
      case ModelColumnKind::kContent:
        foj_col = mc.table + "." + mc.name;
        break;
      case ModelColumnKind::kIndicator:
        foj_col = "I(" + mc.table + ")";
        break;
      case ModelColumnKind::kFanout:
        foj_col = "F(" + mc.table + ")";
        break;
    }
    const Column* col = foj_table.FindColumn(foj_col);
    ASSERT_NE(col, nullptr) << foj_col;
    for (size_t r = 0; r < foj.count; ++r) {
      const Value v = col->ValueAt(r);
      switch (mc.kind) {
        case ModelColumnKind::kContent: {
          const int32_t code = schema.EncodeContent(mc, v);
          ASSERT_GE(code, 0) << foj_col << " value " << v.ToString();
          foj.codes[c][r] = code;
          break;
        }
        case ModelColumnKind::kIndicator:
          foj.codes[c][r] = static_cast<int32_t>(v.AsInt());
          break;
        case ModelColumnKind::kFanout:
          foj.codes[c][r] = static_cast<int32_t>(
              std::min<int64_t>(v.AsInt(), static_cast<int64_t>(mc.domain_size)) -
              1);
          break;
      }
    }
  }

  // Theorem 1's consequence: on the complete FOJ, the inverse probability
  // weights of every relation sum exactly to its size.
  for (const auto& t : db.tables()) {
    double sum = 0.0;
    for (size_t s = 0; s < foj.count; ++s) {
      sum += sam->InverseProbabilityWeight(foj, t.name(), s);
    }
    EXPECT_NEAR(sum, static_cast<double>(t.num_rows()), 1e-9) << t.name();
  }

  // Full pipeline on the exact FOJ: sizes and arbitrary cardinalities are
  // recovered exactly (the paper's Figure 3 claim, generalised).
  const Database gen = sam->GenerateFromFoj(foj).MoveValue();
  ASSERT_TRUE(gen.ValidateIntegrity().ok());
  for (const auto& t : db.tables()) {
    EXPECT_EQ(gen.FindTable(t.name())->num_rows(), t.num_rows()) << t.name();
  }
  auto gen_exec = Executor::Create(&gen).MoveValue();
  EXPECT_EQ(gen_exec->FullOuterJoinSize(), exec->FullOuterJoinSize());

  // Random probe queries over every connected relation subset.
  Rng probe_rng(GetParam() * 131 + 11);
  const std::vector<std::vector<std::string>> rel_sets = {
      {"R"},      {"S1"},          {"S2"},       {"G"},
      {"R", "S1"}, {"R", "S2"},    {"S1", "G"},  {"R", "S1", "S2"},
      {"R", "S1", "G"}, {"R", "S1", "S2", "G"}};
  for (const auto& rels : rel_sets) {
    Query q;
    q.relations = rels;
    // Optionally add one random content predicate.
    if (probe_rng.Bernoulli(0.7)) {
      const std::string& rel = rels[static_cast<size_t>(
          probe_rng.UniformInt(0, static_cast<int64_t>(rels.size()) - 1))];
      const Table* t = db.FindTable(rel);
      const auto content = t->ContentColumnNames();
      q.predicates = {Predicate{rel, content[0], PredOp::kLe,
                                Value(probe_rng.UniformInt(0, 2)),
                                {}}};
    }
    EXPECT_EQ(gen_exec->Cardinality(q).ValueOrDie(),
              exec->Cardinality(q).ValueOrDie())
        << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Workload generator invariants.
// ---------------------------------------------------------------------------

class WorkloadProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkloadProperty, LabelsMatchReExecution) {
  Database db = MakeImdbLike(150, GetParam());
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions opts;
  opts.num_queries = 40;
  opts.seed = GetParam() * 11 + 1;
  const Workload w = GenerateMultiRelationWorkload(db, *exec, opts).MoveValue();
  for (const auto& q : w) {
    EXPECT_EQ(exec->Cardinality(q).ValueOrDie(), q.cardinality) << q.ToString();
  }
}

TEST_P(WorkloadProperty, SingleRelationLiteralsSatisfiable) {
  Database db = MakeCensusLike(200, GetParam());
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions opts;
  opts.num_queries = 40;
  opts.seed = GetParam() * 13 + 2;
  const Workload w =
      GenerateSingleRelationWorkload(db, "census", *exec, opts).MoveValue();
  for (const auto& q : w) {
    // Literals are drawn from an existing tuple, so conjunctions are
    // satisfiable: cardinality >= 1.
    EXPECT_GE(q.cardinality, 1) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadProperty,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Numeric invariants.
// ---------------------------------------------------------------------------

class NumericProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NumericProperty, NnlsIsNonNegativeAndReducesResidual) {
  Rng rng(GetParam());
  const size_t m = 6, n = 10;
  Matrix a(m, n);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
  std::vector<double> b(m);
  for (auto& v : b) v = rng.Uniform();
  const auto x = NonNegativeLeastSquares(a, b, 800);
  for (double v : x) EXPECT_GE(v, -1e-12);
  auto residual = [&](const std::vector<double>& xx) {
    auto r = a.Apply(xx);
    double acc = 0;
    for (size_t i = 0; i < m; ++i) acc += (r[i] - b[i]) * (r[i] - b[i]);
    return acc;
  };
  EXPECT_LE(residual(x), residual(std::vector<double>(n, 0.0)) + 1e-9);
}

TEST_P(NumericProperty, SoftmaxGradCheckOnRandomLogits) {
  Rng rng(GetParam() * 7 + 3);
  Matrix logits(2, 5);
  Matrix weights(2, 5);
  for (size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = rng.Normal();
    weights.data()[i] = rng.Normal();
  }
  ad::Tensor p = ad::Tensor::Param(logits);
  ad::Tensor w = ad::Tensor::Constant(weights);
  auto fn = [&](const ad::Tensor& t) {
    return ad::SumAll(ad::Mul(ad::Softmax(t), w));
  };
  ad::Tensor loss = fn(p);
  p.ZeroGrad();
  loss.Backward();
  const Matrix analytic = p.grad();
  const double eps = 1e-6;
  for (size_t i = 0; i < logits.size(); ++i) {
    const double orig = p.value().data()[i];
    p.mutable_value().data()[i] = orig + eps;
    const double up = fn(p).value()(0, 0);
    p.mutable_value().data()[i] = orig - eps;
    const double down = fn(p).value()(0, 0);
    p.mutable_value().data()[i] = orig;
    EXPECT_NEAR(analytic.data()[i], (up - down) / (2 * eps), 1e-5);
  }
}

TEST_P(NumericProperty, SummarizePercentilesAreMonotone) {
  Rng rng(GetParam() * 17 + 5);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.Uniform() * 1000;
  const MetricSummary s = Summarize(v);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.max);
  EXPECT_GE(s.mean, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace sam
