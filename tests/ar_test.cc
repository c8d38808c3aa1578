#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <span>

#include "ar/batched_estimator.h"
#include "ar/dps_trainer.h"
#include "ar/made.h"
#include "ar/model_schema.h"
#include "autodiff/ops.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "metrics/metrics.h"
#include "workload/generator.h"

namespace sam {
namespace {

Predicate MakePred(const std::string& table, const std::string& col, PredOp op,
                   Value v) {
  return Predicate{table, col, op, std::move(v), {}};
}

/// A tiny single-relation database with a numeric and a categorical column.
Database TinyDb() {
  Database db;
  Table t("t");
  std::vector<Value> age, city;
  // age in {20, 30, 40}; city in {"x", "y"}; age and city correlated.
  for (int i = 0; i < 60; ++i) {
    const int64_t a = 20 + 10 * (i % 3);
    age.emplace_back(a);
    city.emplace_back(std::string(a <= 30 ? "x" : "y"));
  }
  SAM_CHECK_OK(t.AddColumn(Column::FromValues("age", ColumnType::kInt, age)));
  SAM_CHECK_OK(t.AddColumn(Column::FromValues("city", ColumnType::kString, city)));
  SAM_CHECK_OK(db.AddTable(std::move(t)));
  return db;
}

SchemaHints TinyHints() {
  SchemaHints hints;
  hints.numeric_columns = {"t.age"};
  hints.numeric_bounds["t.age"] = {20, 40};
  return hints;
}

Workload TinyWorkload() {
  Workload w;
  auto add = [&](Predicate p, int64_t card) {
    Query q;
    q.relations = {"t"};
    q.predicates = {std::move(p)};
    q.cardinality = card;
    w.push_back(std::move(q));
  };
  add(MakePred("t", "age", PredOp::kLe, Value(int64_t{20})), 20);
  add(MakePred("t", "age", PredOp::kLe, Value(int64_t{30})), 40);
  add(MakePred("t", "age", PredOp::kEq, Value(int64_t{40})), 20);
  add(MakePred("t", "city", PredOp::kEq, Value(std::string("x"))), 40);
  add(MakePred("t", "city", PredOp::kEq, Value(std::string("y"))), 20);
  return w;
}

TEST(ModelSchemaTest, SingleRelationLayout) {
  Database db = TinyDb();
  auto schema_res = ModelSchema::Build(db, TinyWorkload(), TinyHints(), 60);
  ASSERT_TRUE(schema_res.ok()) << schema_res.status().ToString();
  const ModelSchema& s = schema_res.ValueOrDie();
  ASSERT_EQ(s.num_columns(), 2u);
  EXPECT_FALSE(s.multi_relation());
  // age intervalized: literals {20, 30, 40} + their +1 within [20, 40+1).
  const ModelColumn& age = s.columns()[0];
  EXPECT_TRUE(age.intervalized);
  // Boundaries: 20, 21, 30, 31, 40, 41 -> 5 intervals.
  EXPECT_EQ(age.domain_size, 5u);
  const ModelColumn& city = s.columns()[1];
  EXPECT_FALSE(city.intervalized);
  EXPECT_EQ(city.domain_size, 2u);
  EXPECT_EQ(s.total_domain(), 7u);
  EXPECT_EQ(city.offset, 5u);
}

TEST(ModelSchemaTest, CompileMasksAreExactForBoundaryLiterals) {
  Database db = TinyDb();
  const ModelSchema schema =
      ModelSchema::Build(db, TinyWorkload(), TinyHints(), 60).MoveValue();
  Query q;
  q.relations = {"t"};
  q.predicates = {MakePred("t", "age", PredOp::kLe, Value(int64_t{30}))};
  const CompiledQuery cq = schema.Compile(q).MoveValue();
  // Intervals: [20,21) [21,30) [30,31) [31,40) [40,41). <=30 allows first 3.
  ASSERT_EQ(cq.allow[0].size(), 5u);
  EXPECT_EQ(cq.allow[0][0], 1);
  EXPECT_EQ(cq.allow[0][1], 1);
  EXPECT_EQ(cq.allow[0][2], 1);
  EXPECT_EQ(cq.allow[0][3], 0);
  EXPECT_EQ(cq.allow[0][4], 0);
  EXPECT_TRUE(cq.allow[1].empty());  // city unconstrained.
}

TEST(ModelSchemaTest, CompileEqUsesSingletonInterval) {
  Database db = TinyDb();
  const ModelSchema schema =
      ModelSchema::Build(db, TinyWorkload(), TinyHints(), 60).MoveValue();
  Query q;
  q.relations = {"t"};
  q.predicates = {MakePred("t", "age", PredOp::kEq, Value(int64_t{30}))};
  const CompiledQuery cq = schema.Compile(q).MoveValue();
  int allowed = 0;
  for (uint8_t a : cq.allow[0]) allowed += a;
  EXPECT_EQ(allowed, 1);  // Exactly the [30,31) singleton.
}

TEST(ModelSchemaTest, EncodeDecodeRoundTrip) {
  Database db = TinyDb();
  const ModelSchema schema =
      ModelSchema::Build(db, TinyWorkload(), TinyHints(), 60).MoveValue();
  Rng rng(5);
  const ModelColumn& age = schema.columns()[0];
  const int32_t code = schema.EncodeContent(age, Value(int64_t{30}));
  ASSERT_GE(code, 0);
  for (int i = 0; i < 20; ++i) {
    const Value v = schema.DecodeContent(age, code, &rng);
    EXPECT_EQ(v.AsInt(), 30);  // Singleton interval decodes deterministically.
  }
  const ModelColumn& city = schema.columns()[1];
  const int32_t cx = schema.EncodeContent(city, Value(std::string("x")));
  ASSERT_GE(cx, 0);
  EXPECT_EQ(schema.DecodeContent(city, cx, &rng).AsString(), "x");
  EXPECT_EQ(schema.EncodeContent(city, Value(std::string("zzz"))), -1);
}

TEST(ModelSchemaTest, MultiRelationLayoutHasVirtualColumns) {
  Database db = MakeFigure3Database();
  Workload w;
  {
    Query q;
    q.relations = {"A"};
    q.predicates = {MakePred("A", "a", PredOp::kEq, Value(std::string("m")))};
    q.cardinality = 2;
    w.push_back(q);
  }
  SchemaHints hints;
  const ModelSchema schema = ModelSchema::Build(db, w, hints, 8).MoveValue();
  EXPECT_TRUE(schema.multi_relation());
  EXPECT_EQ(schema.root(), "A");
  // Columns: A.a, I(B), B.b, F(B), I(C), C.c, F(C).
  ASSERT_EQ(schema.num_columns(), 7u);
  EXPECT_EQ(schema.columns()[0].kind, ModelColumnKind::kContent);
  EXPECT_EQ(schema.columns()[1].kind, ModelColumnKind::kIndicator);
  EXPECT_EQ(schema.columns()[3].kind, ModelColumnKind::kFanout);
  EXPECT_TRUE(schema.columns()[2].has_null);
  EXPECT_FALSE(schema.columns()[0].has_null);
}

TEST(ModelSchemaTest, FanoutScalingFlagsFollowEq4) {
  Database db = MakeFigure3Database();
  Workload w;
  Query lit;
  lit.relations = {"A", "B", "C"};
  lit.predicates = {MakePred("A", "a", PredOp::kEq, Value(std::string("m"))),
                    MakePred("B", "b", PredOp::kEq, Value(std::string("a"))),
                    MakePred("C", "c", PredOp::kEq, Value(std::string("i")))};
  lit.cardinality = 1;
  w.push_back(lit);
  SchemaHints hints;
  const ModelSchema schema = ModelSchema::Build(db, w, hints, 8).MoveValue();

  // Query on {A}: both child fanouts must be inverse-scaled.
  Query qa;
  qa.relations = {"A"};
  qa.predicates = {MakePred("A", "a", PredOp::kEq, Value(std::string("m")))};
  qa.cardinality = 2;
  auto ca = schema.Compile(qa).MoveValue();
  const int fb = schema.FindColumn(ModelColumnKind::kFanout, "B", "B");
  const int fc = schema.FindColumn(ModelColumnKind::kFanout, "C", "C");
  EXPECT_TRUE(ca.scale_fanout[fb]);
  EXPECT_TRUE(ca.scale_fanout[fc]);

  // Query on {A, B}: only C's fanout is scaled; B's indicator constrained.
  Query qab;
  qab.relations = {"A", "B"};
  qab.cardinality = 3;
  auto cab = schema.Compile(qab).MoveValue();
  EXPECT_FALSE(cab.scale_fanout[fb]);
  EXPECT_TRUE(cab.scale_fanout[fc]);
  const int ib = schema.FindColumn(ModelColumnKind::kIndicator, "B", "B");
  ASSERT_FALSE(cab.allow[ib].empty());
  EXPECT_EQ(cab.allow[ib][0], 0);
  EXPECT_EQ(cab.allow[ib][1], 1);

  // Query on {B} alone: B and its ancestor A are covered; only C scales.
  Query qb;
  qb.relations = {"B"};
  qb.predicates = {MakePred("B", "b", PredOp::kEq, Value(std::string("a")))};
  qb.cardinality = 1;
  auto cb = schema.Compile(qb).MoveValue();
  EXPECT_FALSE(cb.scale_fanout[fb]);
  EXPECT_TRUE(cb.scale_fanout[fc]);
}

/// {R} ∪ Ancestors(R) over every R in `rels`, walked through parent names
/// alone: the reference for ModelSchema's compiled rule.
std::set<std::string> BruteForceCovered(const JoinGraph& g,
                                        const std::vector<std::string>& rels) {
  std::set<std::string> out;
  for (const auto& r : rels) {
    for (std::string cur = r; !cur.empty(); cur = g.Parent(cur)) out.insert(cur);
  }
  return out;
}

/// Checks every relation's compiled rule, every column's indicator, and
/// `Compile(q).scale_fanout` of every query against the brute-force walk.
void ExpectRuleMatchesBruteForce(const ModelSchema& schema,
                                 const Workload& queries) {
  const JoinGraph& g = schema.join_graph();
  const std::vector<ModelColumn>& cols = schema.columns();
  auto indicator_of = [&](const std::string& table) {
    return schema.FindColumn(ModelColumnKind::kIndicator, table, table);
  };
  for (size_t c = 0; c < cols.size(); ++c) {
    EXPECT_EQ(cols[c].indicator, indicator_of(cols[c].table)) << "column " << c;
    EXPECT_EQ(schema.relations()[cols[c].relation].name, cols[c].table);
  }

  const std::vector<std::string> order = g.TopologicalOrder();
  ASSERT_EQ(schema.relations().size(), order.size());
  for (size_t t = 0; t < order.size(); ++t) {
    const RelationRule& rule = schema.relations()[t];
    ASSERT_EQ(rule.name, order[t]);
    EXPECT_EQ(&schema.relation(rule.name), &rule);
    EXPECT_EQ(rule.indicator, indicator_of(rule.name)) << rule.name;
    const std::set<std::string> covered = BruteForceCovered(g, {rule.name});
    std::vector<std::pair<size_t, int>> terms;
    std::vector<size_t> identifier;
    for (size_t c = 0; c < cols.size(); ++c) {
      const bool in_set = covered.count(cols[c].table) != 0;
      if (cols[c].kind != ModelColumnKind::kFanout) {
        if (in_set) identifier.push_back(c);
        continue;
      }
      if (covered.count(g.Parent(cols[c].table)) != 0) identifier.push_back(c);
      if (!in_set) terms.emplace_back(c, indicator_of(cols[c].table));
    }
    std::vector<std::pair<size_t, int>> got;
    for (const auto& term : rule.weight_terms) {
      got.emplace_back(term.fanout, static_cast<int>(term.gate));
    }
    EXPECT_EQ(got, terms) << rule.name;
    EXPECT_EQ(rule.identifier_columns, identifier) << rule.name;
    std::vector<uint8_t> covered_mask;
    for (const auto& rel : order) covered_mask.push_back(covered.count(rel));
    EXPECT_EQ(rule.covered, covered_mask) << rule.name;
  }

  for (const Query& q : queries) {
    const std::set<std::string> covered = BruteForceCovered(g, q.relations);
    const CompiledQuery cq = schema.Compile(q).MoveValue();
    for (size_t c = 0; c < cols.size(); ++c) {
      const bool scaled = cols[c].kind == ModelColumnKind::kFanout &&
                          covered.count(cols[c].table) == 0;
      EXPECT_EQ(cq.scale_fanout[c] != 0, scaled)
          << "column " << c << " of " << q.ToString();
    }
  }
}

TEST(ModelSchemaTest, ImdbRuleMatchesBruteForceAncestorWalk) {
  const Database db = MakeImdbLike(200, 19);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 48;
  Workload queries = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  const Workload job =
      GenerateJobLightWorkload(db, *exec, JobLightWorkloadOptions{}).MoveValue();
  queries.insert(queries.end(), job.begin(), job.end());
  for (const auto& rel : exec->join_graph().relations()) {
    Query q;
    q.relations = {rel};
    queries.push_back(q);
  }
  SchemaHints hints;
  hints.fanout_cap = 25;
  const ModelSchema schema =
      ModelSchema::Build(db, queries, hints, exec->FullOuterJoinSize())
          .MoveValue();
  ASSERT_EQ(schema.relations().size(), 6u);
  ExpectRuleMatchesBruteForce(schema, queries);
}

TEST(ModelSchemaTest, ChainRuleMatchesBruteForceAncestorWalk) {
  const Database db = MakeChainDatabase();
  // Every non-empty subset of {A, B, C}, disconnected {A, C} included.
  Workload queries;
  const std::vector<std::string> rels = {"A", "B", "C"};
  for (unsigned mask = 1; mask < 8; ++mask) {
    Query q;
    for (size_t r = 0; r < rels.size(); ++r) {
      if (mask & (1u << r)) q.relations.push_back(rels[r]);
    }
    queries.push_back(q);
  }
  const ModelSchema schema =
      ModelSchema::Build(db, queries, SchemaHints{}, 4).MoveValue();
  ASSERT_EQ(schema.relations().size(), 3u);
  // C's weight divides by no fanout: its covered set is the whole chain.
  EXPECT_TRUE(schema.relation("C").weight_terms.empty());
  ExpectRuleMatchesBruteForce(schema, queries);
}

class MadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = TinyDb();
    schema_ = ModelSchema::Build(db_, TinyWorkload(), TinyHints(), 60).MoveValue();
    MadeModel::Options opts;
    opts.hidden_sizes = {16, 16};
    opts.seed = 3;
    model_ = std::make_unique<MadeModel>(&schema_, opts);
    model_->SyncSamplerWeights();
  }

  Database db_;
  ModelSchema schema_;
  std::unique_ptr<MadeModel> model_;
};

/// Columns [offset(col), offset(col) + domain(col)) of `input`: column
/// `col`'s one-hot block, as a constant sample.
ad::Tensor InputBlock(const ModelSchema& schema, const Matrix& input,
                      size_t col) {
  const ModelColumn& mc = schema.columns()[col];
  Matrix block(input.rows(), mc.domain_size);
  for (size_t r = 0; r < input.rows(); ++r) {
    std::copy(input.row(r) + mc.offset,
              input.row(r) + mc.offset + mc.domain_size, block.row(r));
  }
  return ad::Tensor::Constant(std::move(block));
}

/// Logits of column `col` from a causal sweep fed the blocks of `input`
/// (one row per batch row) as the samples of the columns before it.
Matrix SweepLogits(const MadeModel& model, const Matrix& input, size_t col) {
  const auto mw = model.BuildMaskedWeights();
  MadeModel::Sweep sweep = model.StartSweep(input.rows());
  for (size_t c = 0; c < col; ++c) {
    model.ColumnPass(mw, &sweep);
    model.WriteSample(&sweep, InputBlock(model.schema(), input, c));
  }
  return model.ColumnPass(mw, &sweep).value();
}

TEST_F(MadeTest, AutoregressivePropertyHolds) {
  // No column's logits may depend on its own or a later column's input:
  // sweeps whose inputs differ in column 1 only must agree on the logits of
  // columns 0 and 1. The sweep reads a column's sample only after its pass;
  // the sampler path reads every observed column, so there the masks alone
  // must keep column 1's own code out of its distribution.
  ad::NoGradGuard guard;
  Matrix in_a(1, schema_.total_domain());
  Matrix in_b(1, schema_.total_domain());
  // Different one-hots in the city segment (offset 5).
  in_a(0, 5) = 1.0;
  in_b(0, 6) = 1.0;
  MadeModel::SamplerState st_a = model_->InitState(1);
  MadeModel::SamplerState st_b = model_->InitState(1);
  for (MadeModel::SamplerState* st : {&st_a, &st_b}) {
    model_->Observe(st, 0, std::vector<int32_t>{2});
  }
  model_->Observe(&st_a, 1, std::vector<int32_t>{0});
  model_->Observe(&st_b, 1, std::vector<int32_t>{1});
  for (size_t col : {size_t{0}, size_t{1}}) {
    const Matrix la = SweepLogits(*model_, in_a, col);
    const Matrix lb = SweepLogits(*model_, in_b, col);
    const Matrix pa = model_->CondProbs(st_a, col);
    const Matrix pb = model_->CondProbs(st_b, col);
    for (size_t j = 0; j < la.cols(); ++j) {
      EXPECT_DOUBLE_EQ(la(0, j), lb(0, j)) << "column " << col;
      EXPECT_DOUBLE_EQ(pa(0, j), pb(0, j)) << "sampler, column " << col;
    }
  }
}

TEST_F(MadeTest, LaterColumnDependsOnEarlierInput) {
  ad::NoGradGuard guard;
  Matrix in_a(1, schema_.total_domain());
  Matrix in_b(1, schema_.total_domain());
  in_a(0, 0) = 1.0;  // age interval 0
  in_b(0, 3) = 1.0;  // age interval 3
  const Matrix la = SweepLogits(*model_, in_a, 1);
  const Matrix lb = SweepLogits(*model_, in_b, 1);
  double diff = 0;
  for (size_t j = 0; j < la.cols(); ++j) diff += std::fabs(la(0, j) - lb(0, j));
  EXPECT_GT(diff, 1e-9);
}

TEST_F(MadeTest, SamplerPathMatchesDensePath) {
  // Conditional P(city | age=interval 2) must agree between the causal
  // training sweep and the sampler path.
  ad::NoGradGuard guard;
  Matrix in(1, schema_.total_domain());
  in(0, 2) = 1.0;
  const ad::Tensor dense_probs =
      ad::Softmax(ad::Tensor::Constant(SweepLogits(*model_, in, 1)));

  MadeModel::SamplerState state = model_->InitState(1);
  model_->Observe(&state, 0, std::vector<int32_t>{2});
  const Matrix fast_probs = model_->CondProbs(state, 1);

  for (size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(dense_probs.value()(0, j), fast_probs(0, j), 1e-10);
  }
}

TEST_F(MadeTest, CondProbsRowsSumToOne) {
  MadeModel::SamplerState state = model_->InitState(4);
  const Matrix p0 = model_->CondProbs(state, 0);
  for (size_t r = 0; r < 4; ++r) {
    double sum = 0;
    for (size_t j = 0; j < p0.cols(); ++j) sum += p0(r, j);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST_F(MadeTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/sam_made_test.bin";
  ASSERT_TRUE(model_->Save(path).ok());
  MadeModel::Options opts;
  opts.hidden_sizes = {16, 16};
  opts.seed = 99;  // Different init.
  MadeModel other(&schema_, opts);
  ASSERT_TRUE(other.Load(path).ok());
  other.SyncSamplerWeights();
  MadeModel::SamplerState s1 = model_->InitState(1);
  MadeModel::SamplerState s2 = other.InitState(1);
  const Matrix p1 = model_->CondProbs(s1, 0);
  const Matrix p2 = other.CondProbs(s2, 0);
  for (size_t j = 0; j < p1.cols(); ++j) EXPECT_DOUBLE_EQ(p1(0, j), p2(0, j));
  std::remove(path.c_str());
}

TEST(DpsTrainerTest, LearnsTinyDistribution) {
  Database db = TinyDb();
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 300;
  wopts.max_filters = 2;
  wopts.seed = 11;
  Workload train =
      GenerateSingleRelationWorkload(db, "t", *exec, wopts).MoveValue();

  ModelSchema schema =
      ModelSchema::Build(db, train, TinyHints(), 60).MoveValue();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {24, 24};
  MadeModel model(&schema, mopts);

  DpsOptions dopts;
  dopts.epochs = 20;
  dopts.batch_size = 32;
  dopts.learning_rate = 5e-3;
  auto stats_res = TrainDps(&model, train, dopts);
  ASSERT_TRUE(stats_res.ok()) << stats_res.status().ToString();
  const auto& stats = stats_res.ValueOrDie();
  ASSERT_EQ(stats.size(), 20u);
  // Loss (squared log-card error) should drop substantially.
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss * 0.5);

  // Estimates should be in the right ballpark on the training constraints.
  const Workload queries(train.begin(), train.begin() + 50);
  BatchedProgressiveEstimator est(&model);
  const std::vector<double> ests = est.EstimateBatch(queries, 400).MoveValue();
  std::vector<double> qerrors;
  for (size_t i = 0; i < queries.size(); ++i) {
    qerrors.push_back(
        QError(ests[i], static_cast<double>(queries[i].cardinality)));
  }
  const MetricSummary summary = Summarize(qerrors);
  EXPECT_LT(summary.median, 2.0) << "median q-error too high after training";
}

/// FNV-1a (64 bit) over the raw bytes of every parameter matrix, in
/// `params()` order: any change to a single trained bit changes the digest.
uint64_t ParamsDigest(const MadeModel& model) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ad::Tensor& p : model.params()) {
    const Matrix& m = p.value();
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    for (size_t i = 0; i < m.size() * sizeof(double); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The inputs of a golden training run.
struct GoldenFixture {
  Database db;
  Workload train;
  ModelSchema schema;
  MadeModel::Options model;
  DpsOptions dps;
};

/// Census-like single relation: direct connections and residual hidden
/// layers on, so every matmul of the training step is exercised.
GoldenFixture CensusGolden() {
  GoldenFixture f;
  f.db = MakeCensusLike(600, 41);
  auto exec = Executor::Create(&f.db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 96;
  wopts.seed = 13;
  f.train =
      GenerateSingleRelationWorkload(f.db, "census", *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  f.schema = ModelSchema::Build(f.db, f.train, hints, 600).MoveValue();
  f.model.hidden_sizes = {24, 24};
  f.model.residual = true;
  f.model.seed = 17;
  f.dps.epochs = 2;
  f.dps.batch_size = 32;
  f.dps.sample_paths = 2;
  f.dps.seed = 29;
  return f;
}

/// Imdb-like snowflake: indicator and fanout columns, fanout scaling in the
/// loss, direct connections on.
GoldenFixture ImdbGolden() {
  GoldenFixture f;
  f.db = MakeImdbLike(200, 19);
  auto exec = Executor::Create(&f.db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 48;
  f.train = GenerateMultiRelationWorkload(f.db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 25;
  f.schema = ModelSchema::Build(f.db, f.train, hints, exec->FullOuterJoinSize())
                 .MoveValue();
  f.model.hidden_sizes = {16, 16};
  f.model.seed = 23;
  f.dps.epochs = 2;
  f.dps.batch_size = 16;
  f.dps.sample_paths = 3;
  f.dps.seed = 31;
  return f;
}

uint64_t TrainGolden(GoldenFixture f, size_t threads, size_t batch_size) {
  MadeModel model(&f.schema, f.model);
  f.dps.batch_size = batch_size;
  f.dps.threads = threads;
  SAM_CHECK_OK(TrainDps(&model, f.train, f.dps).status());
  return ParamsDigest(model);
}

uint64_t TrainCensusGolden(size_t threads = 0, size_t batch_size = 32) {
  return TrainGolden(CensusGolden(), threads, batch_size);
}

uint64_t TrainImdbGolden(size_t threads = 0, size_t batch_size = 16) {
  return TrainGolden(ImdbGolden(), threads, batch_size);
}

// ---- The causal sweep against a per-column reference tape ------------------

/// The progressive MADE hidden stack recomputed in full from `input`, as
/// the DPS tape ran it before the causal sweep: the reference that
/// `MadeModel::ColumnPass` must match.
ad::Tensor ReferenceHidden(const MadeModel& model,
                           const MadeModel::MaskedWeights& mw,
                           const ad::Tensor& input, size_t live_cols) {
  ad::Tensor h = input;
  for (size_t l = 0; l < mw.w.size(); ++l) {
    ad::Tensor pre = l == 0 ? ad::MatmulPrefix(h, mw.w[0], live_cols)
                            : ad::Matmul(h, mw.w[l]);
    if (model.options().residual && l > 0 && pre.cols() == h.cols()) {
      h = ad::BiasReluSkip(pre, mw.b[l], h);
    } else {
      h = ad::BiasRelu(pre, mw.b[l]);
    }
  }
  return h;
}

ad::Tensor ReferenceColumnLogits(const MadeModel& model,
                                 const MadeModel::MaskedWeights& mw,
                                 const ad::Tensor& hidden,
                                 const ad::Tensor& input, size_t col) {
  const ModelColumn& c = model.schema().columns()[col];
  const size_t b = c.offset;
  const size_t e = c.offset + c.domain_size;
  ad::Tensor logits = ad::AddRowBroadcast(
      ad::Matmul(hidden, ad::SliceColumns(mw.w_out, b, e)),
      ad::SliceColumns(mw.b_out, b, e));
  return ad::Add(logits, ad::MatmulPrefix(
                             input, ad::SliceColumns(mw.w_direct, b, e), b));
}

/// Largest |a - b| / max(|a|, |b|) over the entries of two same-shape
/// matrices (0 where both are 0).
double MaxRelativeError(const Matrix& a, const Matrix& b) {
  SAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(std::fabs(a.data()[i]), std::fabs(b.data()[i]));
    if (scale > 0) {
      worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]) / scale);
    }
  }
  return worst;
}

/// Largest |a - b| relative to the largest |b|: the error of a gradient on
/// the scale of the gradient. An entry-wise ratio would read the rounding
/// of sums that cancel to near zero, whose order the causal sweep changes.
double MaxScaledError(const Matrix& a, const Matrix& b) {
  SAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double diff = 0;
  double scale = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a.data()[i] - b.data()[i]));
    scale = std::max(scale, std::fabs(b.data()[i]));
  }
  return scale > 0 ? diff / scale : diff;
}

/// `RunDpsShardTape` with every column pass recomputing the whole hidden
/// stack (`ReferenceHidden`). At every pass it also runs the causal sweep,
/// fed the same samples, and raises `*logit_error` to the largest relative
/// difference of the two logits.
double ReferenceShardTape(const MadeModel& model,
                          std::span<const CompiledQuery* const> queries,
                          const DpsOptions& options, size_t epoch, double tau,
                          uint64_t first_row, size_t batch_rows,
                          MadeModel::MaskedWeights* leaves,
                          double* logit_error) {
  const ModelSchema& schema = model.schema();
  const size_t paths = options.sample_paths;
  const size_t batch = queries.size() * paths;
  *leaves = model.BuildMaskedWeights();
  const MadeModel::MaskedWeights& mw = *leaves;
  MadeModel::Sweep sweep = model.StartSweep(batch);
  ad::Tensor input = ad::Tensor::Zeros(batch, schema.total_domain());
  ad::Tensor log_est = ad::Tensor::Constant(Matrix(
      batch, 1,
      std::log(static_cast<double>(std::max<int64_t>(schema.foj_size(), 1)))));
  ad::GumbelNoise noise;
  noise.seed = options.seed;
  noise.stream = epoch;
  noise.first_row = first_row;
  for (size_t col = 0; col < schema.num_columns(); ++col) {
    const ModelColumn& mc = schema.columns()[col];
    ad::Tensor logits = ReferenceColumnLogits(
        model, mw, ReferenceHidden(model, mw, input, mc.offset), input, col);
    *logit_error = std::max(
        *logit_error,
        MaxRelativeError(logits.value(), model.ColumnPass(mw, &sweep).value()));
    bool constrained = false;
    Matrix allow(batch, mc.domain_size, 1.0);
    Matrix log_mask(batch, mc.domain_size, 0.0);
    for (size_t r = 0; r < batch; ++r) {
      const auto& a = queries[r / paths]->allow[col];
      if (a.empty()) continue;
      constrained = true;
      bool any = false;
      for (size_t j = 0; j < mc.domain_size; ++j) {
        if (!a[j]) {
          allow(r, j) = 0.0;
          log_mask(r, j) = -1e9;
        } else {
          any = true;
        }
      }
      if (!any) {
        for (size_t j = 0; j < mc.domain_size; ++j) log_mask(r, j) = 0.0;
      }
    }
    ad::Tensor masked_logits = logits;
    if (constrained) {
      ad::Tensor p_in = ad::RowSum(
          ad::Mul(ad::Softmax(logits), ad::Tensor::Constant(std::move(allow))));
      log_est = ad::Add(log_est, ad::LogEps(p_in, 1e-20));
      masked_logits =
          ad::Add(logits, ad::Tensor::Constant(std::move(log_mask)));
    }
    noise.column = col;
    ad::Tensor sample = ad::GumbelSoftmaxST(masked_logits, tau, noise);
    if (mc.kind == ModelColumnKind::kFanout) {
      Matrix neg_log_f(batch, mc.domain_size, 0.0);
      bool any = false;
      for (size_t r = 0; r < batch; ++r) {
        if (!queries[r / paths]->scale_fanout[col]) continue;
        any = true;
        for (size_t j = 0; j < mc.domain_size; ++j) {
          neg_log_f(r, j) = -std::log(static_cast<double>(
              mc.FanoutValueOf(static_cast<int32_t>(j))));
        }
      }
      if (any) {
        log_est = ad::Add(
            log_est, ad::RowSum(ad::Mul(
                         sample, ad::Tensor::Constant(std::move(neg_log_f)))));
      }
    }
    input = ad::Add(input,
                    ad::PadColumns(sample, mc.offset, schema.total_domain()));
    model.WriteSample(&sweep, sample);
  }
  Matrix target(batch, 1);
  for (size_t r = 0; r < batch; ++r) target(r, 0) = queries[r / paths]->log_card;
  ad::Tensor diff = ad::Sub(log_est, ad::Tensor::Constant(std::move(target)));
  ad::Tensor loss = ad::Scale(ad::SumAll(ad::Mul(diff, diff)),
                              1.0 / static_cast<double>(batch_rows));
  loss.Backward();
  return loss.value()(0, 0);
}

/// The model's parameter gradients reduced from `leaves`.
std::vector<Matrix> ReducedGrads(MadeModel* model,
                                 const MadeModel::MaskedWeights& leaves) {
  std::vector<Matrix> grads;
  std::vector<ad::Tensor> params = model->params();
  for (size_t k = 0; k < params.size(); ++k) {
    params[k].ZeroGrad();
    model->ReduceGrads(std::span(&leaves, 1), k, 0, params[k].rows());
    grads.push_back(params[k].grad());
  }
  return grads;
}

/// Runs the production tape and the reference tape over the first
/// minibatches of `f`, with the untrained model and after one epoch of
/// training, and checks loss, logits and reduced gradients within 1e-12
/// relative (gradients on the scale of each parameter's gradient).
void ExpectCausalSweepMatchesReference(const GoldenFixture& f,
                                       const MadeModel::Options& mopts) {
  constexpr double kTolerance = 1e-12;
  std::vector<CompiledQuery> compiled;
  for (const Query& q : f.train) compiled.push_back(f.schema.Compile(q).MoveValue());
  std::vector<const CompiledQuery*> all;
  for (const CompiledQuery& cq : compiled) all.push_back(&cq);
  MadeModel model(&f.schema, mopts);
  for (int trained = 0; trained < 2; ++trained) {
    if (trained == 1) {
      DpsOptions once = f.dps;
      once.epochs = 1;
      ASSERT_TRUE(TrainDps(&model, f.train, once).ok());
    }
    for (size_t start = 0; start < 2 * f.dps.batch_size;
         start += f.dps.batch_size) {
      const auto queries = std::span(all).subspan(start, f.dps.batch_size);
      const size_t rows = queries.size() * f.dps.sample_paths;
      const uint64_t first_row = start * f.dps.sample_paths;
      MadeModel::MaskedWeights causal;
      MadeModel::MaskedWeights reference;
      double logit_error = 0;
      const double loss = RunDpsShardTape(model, queries, f.dps, trained, 1.0,
                                          first_row, rows, &causal);
      const double ref_loss =
          ReferenceShardTape(model, queries, f.dps, trained, 1.0, first_row,
                             rows, &reference, &logit_error);
      const std::string where = "trained=" + std::to_string(trained) +
                                ", batch at " + std::to_string(start);
      EXPECT_LE(std::fabs(loss - ref_loss),
                kTolerance * std::max(std::fabs(loss), std::fabs(ref_loss)))
          << where << ": loss " << loss << " vs " << ref_loss;
      EXPECT_LE(logit_error, kTolerance) << where;
      const std::vector<Matrix> g = ReducedGrads(&model, causal);
      const std::vector<Matrix> ref_g = ReducedGrads(&model, reference);
      for (size_t k = 0; k < g.size(); ++k) {
        EXPECT_LE(MaxScaledError(g[k], ref_g[k]), kTolerance)
            << where << ", parameter " << k;
      }
    }
  }
}

TEST(CausalSweepTest, MatchesPerColumnReferenceOnGoldenFixtures) {
  const GoldenFixture census = CensusGolden();
  ExpectCausalSweepMatchesReference(census, census.model);
  const GoldenFixture imdb = ImdbGolden();
  ExpectCausalSweepMatchesReference(imdb, imdb.model);
}

TEST(CausalSweepTest, MatchesPerColumnReferenceWithThreeResidualLayers) {
  const GoldenFixture f = CensusGolden();
  MadeModel::Options mopts = f.model;
  mopts.hidden_sizes = {24, 24, 24};
  ExpectCausalSweepMatchesReference(f, mopts);
}

TEST(CausalSweepTest, MatchesPerColumnReferenceWithEmptyDegreeGroups) {
  // Hidden widths below columns - 1 leave the groups of the high degrees
  // empty; unequal widths give the layers different groups.
  const GoldenFixture f = CensusGolden();
  ASSERT_GT(f.schema.num_columns(), 7u);
  MadeModel::Options mopts = f.model;
  mopts.hidden_sizes = {5, 5};
  ExpectCausalSweepMatchesReference(f, mopts);
  mopts.hidden_sizes = {4, 9};
  mopts.residual = false;
  ExpectCausalSweepMatchesReference(f, mopts);
  const GoldenFixture imdb = ImdbGolden();
  mopts = imdb.model;
  mopts.hidden_sizes = {3, 3};
  ExpectCausalSweepMatchesReference(imdb, mopts);
}

TEST(CausalSweepTest, ReducedGradientsMatchFiniteDifferences) {
  // The tapes above share the degree-sorted leaf layout; this checks that
  // layout against the stored parameters. A smooth loss over every column's
  // logits, with fixed one-hot inputs, is differentiated through the sweep
  // and `ReduceGrads` and compared with central differences of the stored
  // parameters.
  const GoldenFixture f = CensusGolden();
  MadeModel::Options mopts = f.model;
  // Wider than columns - 1, so degrees repeat and the sorted order is not
  // the stored one.
  ASSERT_LT(f.schema.num_columns(), 16u);
  mopts.hidden_sizes = {16, 16, 30};
  MadeModel model(&f.schema, mopts);
  // Biases start at zero, which puts a unit whose inputs are all dead
  // exactly on the relu kink; move every parameter off such ties.
  for (ad::Tensor& p : model.params()) {
    Matrix& v = p.mutable_value();
    for (size_t i = 0; i < v.size(); ++i) {
      v.data()[i] += 0.05 * std::cos(static_cast<double>(i * 13 + v.size()));
    }
  }
  const ModelSchema& schema = f.schema;
  constexpr size_t kRows = 3;
  Matrix input(kRows, schema.total_domain());
  for (size_t r = 0; r < kRows; ++r) {
    for (const ModelColumn& mc : schema.columns()) {
      input(r, mc.offset + (r * 7 + mc.offset) % mc.domain_size) = 1.0;
    }
  }
  // loss = sum_c sum(logits_c * weight_c), one fixed weight per entry; the
  // input of pass c keeps only the columns before c.
  auto loss_of = [&](MadeModel::MaskedWeights* mw) {
    *mw = model.BuildMaskedWeights();
    MadeModel::Sweep sweep = model.StartSweep(kRows);
    ad::Tensor loss = ad::Tensor::Constant(Matrix(1, 1));
    for (size_t col = 0; col < schema.num_columns(); ++col) {
      const ModelColumn& mc = schema.columns()[col];
      const ad::Tensor logits = model.ColumnPass(*mw, &sweep);
      model.WriteSample(&sweep, InputBlock(schema, input, col));
      Matrix weight(kRows, mc.domain_size);
      for (size_t i = 0; i < weight.size(); ++i) {
        weight.data()[i] = std::sin(static_cast<double>(col * 31 + i));
      }
      loss = ad::Add(loss, ad::SumAll(ad::Mul(
                               logits, ad::Tensor::Constant(std::move(weight)))));
    }
    return loss;
  };
  MadeModel::MaskedWeights mw;
  loss_of(&mw).Backward();
  const std::vector<Matrix> grads = ReducedGrads(&model, mw);
  std::vector<ad::Tensor> params = model.params();
  constexpr double kEps = 1e-6;
  size_t checked = 0;
  for (size_t k = 0; k < params.size(); ++k) {
    Matrix& value = params[k].mutable_value();
    for (size_t i = 0; i < value.size(); i += 1 + value.size() / 40) {
      const double saved = value.data()[i];
      MadeModel::MaskedWeights scratch;
      value.data()[i] = saved + kEps;
      const double up = loss_of(&scratch).value()(0, 0);
      value.data()[i] = saved - kEps;
      const double down = loss_of(&scratch).value()(0, 0);
      value.data()[i] = saved;
      const double numeric = (up - down) / (2 * kEps);
      EXPECT_NEAR(grads[k].data()[i], numeric,
                  1e-5 * std::max(1.0, std::fabs(numeric)))
          << "parameter " << k << ", entry " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 200u);
}

// ---- The sampler's causal forward ------------------------------------------

/// Every entry of `a` and `b` has the same bits.
void ExpectBitEqual(const Matrix& a, const Matrix& b, const std::string& where) {
  ASSERT_EQ(a.rows(), b.rows()) << where;
  ASSERT_EQ(a.cols(), b.cols()) << where;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << where;
}

/// Random in-domain codes, codes[col][r], different from row to row.
std::vector<std::vector<int32_t>> RandomCodes(const ModelSchema& schema,
                                              size_t batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> codes(schema.num_columns());
  for (size_t col = 0; col < codes.size(); ++col) {
    const int64_t dom = static_cast<int64_t>(schema.columns()[col].domain_size);
    for (size_t r = 0; r < batch; ++r) {
      codes[col].push_back(static_cast<int32_t>(rng.UniformInt(0, dom - 1)));
    }
  }
  return codes;
}

/// A copy of each column's CondProbs over an in-order sweep of `state`.
std::vector<Matrix> InOrderSweep(const MadeModel& model,
                                 MadeModel::SamplerState* state,
                                 const std::vector<std::vector<int32_t>>& codes) {
  std::vector<Matrix> probs;
  for (size_t col = 0; col < codes.size(); ++col) {
    probs.push_back(model.CondProbs(*state, col));
    model.Observe(state, col, codes[col]);
  }
  return probs;
}

void ExpectCausalSamplerExact(const GoldenFixture& f,
                              const MadeModel::Options& mopts) {
  MadeModel model(&f.schema, mopts);
  // Nonzero biases, so the bias and ReLU of every layer take part.
  std::vector<ad::Tensor> params = model.params();
  const size_t layers = mopts.hidden_sizes.size();
  Rng rng(7);
  for (size_t p = layers; p <= 2 * layers + 1; ++p) {
    if (p == 2 * layers) continue;  // w_out.
    Matrix& b = params[p].mutable_value();
    for (size_t i = 0; i < b.size(); ++i) b.data()[i] = 0.5 * rng.Normal();
  }
  model.SyncSamplerWeights();
  const size_t n = f.schema.num_columns();
  constexpr size_t kBatch = 5;
  const auto codes = RandomCodes(f.schema, kBatch, 11);

  // In order, every column against the softmax of the training sweep's
  // logits.
  MadeModel::SamplerState in_order = model.InitState(kBatch);
  const std::vector<Matrix> probs = InOrderSweep(model, &in_order, codes);
  {
    ad::NoGradGuard guard;
    const auto mw = model.BuildMaskedWeights();
    MadeModel::Sweep sweep = model.StartSweep(kBatch);
    for (size_t col = 0; col < n; ++col) {
      const Matrix ref =
          ad::Softmax(model.ColumnPass(mw, &sweep)).value();
      EXPECT_LE(MaxRelativeError(probs[col], ref), 1e-10) << "column " << col;
      const ModelColumn& mc = f.schema.columns()[col];
      Matrix sample(kBatch, mc.domain_size);
      for (size_t r = 0; r < kBatch; ++r) sample(r, codes[col][r]) = 1.0;
      model.WriteSample(&sweep, ad::Tensor::Constant(std::move(sample)));
    }
  }

  // The catch-up path: a fresh state fed the prefix, asked only for `col`.
  for (size_t col = 0; col < n; ++col) {
    MadeModel::SamplerState fresh = model.InitState(kBatch);
    for (size_t c = 0; c < col; ++c) model.Observe(&fresh, c, codes[c]);
    ExpectBitEqual(model.CondProbs(fresh, col), probs[col],
                   "catch-up, column " + std::to_string(col));
  }

  // A later column asked first, then an earlier column observed: the
  // observation lowers what the state has computed.
  MadeModel::SamplerState ahead = model.InitState(kBatch);
  for (size_t col = 0; col < n; ++col) {
    model.CondProbs(ahead, n - 1);
    ExpectBitEqual(model.CondProbs(ahead, col), probs[col],
                   "out of order, column " + std::to_string(col));
    model.CondProbs(ahead, n - 1);
    model.Observe(&ahead, col, codes[col]);
  }

  // A state re-entered after a full sweep of a larger batch carries nothing
  // over from it.
  MadeModel::SamplerState reused = model.InitState(8);
  InOrderSweep(model, &reused, RandomCodes(f.schema, 8, 12));
  model.ResetState(&reused, 3);
  MadeModel::SamplerState small = model.InitState(3);
  const auto codes3 = RandomCodes(f.schema, 3, 13);
  const std::vector<Matrix> reused_probs = InOrderSweep(model, &reused, codes3);
  const std::vector<Matrix> small_probs = InOrderSweep(model, &small, codes3);
  for (size_t col = 0; col < n; ++col) {
    ExpectBitEqual(reused_probs[col], small_probs[col],
                   "reset, column " + std::to_string(col));
  }
}

TEST(CausalSamplerTest, MatchesTrainingSweepAndIsExactInAnyCallOrder) {
  const GoldenFixture f = CensusGolden();
  MadeModel::Options mopts = f.model;
  mopts.hidden_sizes = {16, 16};
  mopts.residual = false;
  ExpectCausalSamplerExact(f, mopts);
}

TEST(CausalSamplerTest, ExactWithThreeResidualLayers) {
  const GoldenFixture f = CensusGolden();
  MadeModel::Options mopts = f.model;
  mopts.hidden_sizes = {24, 24, 24};
  mopts.residual = true;
  ExpectCausalSamplerExact(f, mopts);
}

TEST(CausalSamplerTest, ExactWithEmptyDegreeGroups) {
  // Widths below columns - 1 leave some degrees without units, and unequal
  // widths give every layer different groups.
  const GoldenFixture f = CensusGolden();
  ASSERT_GT(f.schema.num_columns(), 13u);
  MadeModel::Options mopts = f.model;
  mopts.hidden_sizes = {5, 12, 7};
  ExpectCausalSamplerExact(f, mopts);
}

TEST(DpsTrainerTest, GoldenParamsDigest) {
  // Pins the trained parameters bit for bit. Resume-vs-uninterrupted tests
  // compare two runs of the same code; this one compares against constants,
  // so a refactor of the training arithmetic (autodiff ops, kernels, MADE
  // passes) that changes any trained bit fails here. Both kernel backends
  // must reproduce the same constants.
  constexpr uint64_t kCensus = 0x420ddd8dd365a714ULL;
  constexpr uint64_t kImdb = 0xa050c74fec255da5ULL;
  const kernels::Backend saved = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (kernels::Backend b : backends) {
    ASSERT_TRUE(kernels::SetBackend(b));
    const char* name = b == kernels::Backend::kScalar ? "scalar" : "avx2";
    EXPECT_EQ(Hex(TrainCensusGolden()), Hex(kCensus)) << name;
    EXPECT_EQ(Hex(TrainImdbGolden()), Hex(kImdb)) << name;
  }
  kernels::SetBackend(saved);
}

TEST(DpsTrainerTest,
     FingerprintRefusesCheckpointsOfLayersWithEmptyDegreeGroups) {
  // The census fixture has 14 columns. Its 24x24 model has a unit of every
  // degree and trains the bits it trained before the progressive buffers,
  // so its fingerprint, and with it every checkpoint, stays valid. A {5, 9}
  // model leaves degree groups empty and trains other bits by rounding:
  // checkpoints written under the fingerprint it had then must not resume.
  const GoldenFixture f = CensusGolden();
  ASSERT_EQ(f.schema.num_columns(), 14u);
  constexpr uint64_t kWide = 0x6e05add777b2efb7ULL;
  constexpr uint64_t kNarrowBefore = 0xfc6af98aa9102cbaULL;
  const MadeModel wide(&f.schema, f.model);
  EXPECT_EQ(Hex(TrainingFingerprint(f.dps, wide, f.train)), Hex(kWide));
  MadeModel::Options narrow_options = f.model;
  narrow_options.hidden_sizes = {5, 9};
  narrow_options.residual = false;
  const MadeModel narrow(&f.schema, narrow_options);
  EXPECT_NE(Hex(TrainingFingerprint(f.dps, narrow, f.train)),
            Hex(kNarrowBefore));
}

TEST(DpsTrainerTest, ParamsIdenticalAcrossThreadCounts) {
  // The shard tapes of a step run on min(threads, kDpsShards) workers and
  // their gradients are summed in shard order, so the trained bits depend
  // on the shard count only. Batch sizes 31 and 15 end each epoch with a
  // partial batch of 3 queries (96 = 3 * 31 + 3, 48 = 3 * 15 + 3): fewer
  // queries than shards, so that step leaves a shard empty.
  static_assert(96 % 31 < kDpsShards && 48 % 15 < kDpsShards);
  struct Config {
    const char* name;
    uint64_t (*train)(size_t threads, size_t batch_size);
    size_t batch_size;
  };
  const Config configs[] = {{"census", TrainCensusGolden, 32},
                            {"census partial", TrainCensusGolden, 31},
                            {"imdb", TrainImdbGolden, 16},
                            {"imdb partial", TrainImdbGolden, 15}};
  const kernels::Backend saved = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  for (const Config& c : configs) {
    ASSERT_TRUE(kernels::SetBackend(backends[0]));
    const uint64_t reference = c.train(1, c.batch_size);
    for (kernels::Backend b : backends) {
      ASSERT_TRUE(kernels::SetBackend(b));
      const char* backend = b == kernels::Backend::kScalar ? "scalar" : "avx2";
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
        EXPECT_EQ(Hex(c.train(threads, c.batch_size)), Hex(reference))
            << c.name << ", " << backend << ", threads=" << threads;
      }
    }
  }
  kernels::SetBackend(saved);
}

TEST(DpsTrainerTest, TimeBudgetStopsEarly) {
  Database db = TinyDb();
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 200;
  Workload train =
      GenerateSingleRelationWorkload(db, "t", *exec, wopts).MoveValue();
  ModelSchema schema = ModelSchema::Build(db, train, TinyHints(), 60).MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  DpsOptions dopts;
  dopts.epochs = 100000;
  dopts.time_budget_seconds = 0.2;
  auto stats = TrainDps(&model, train, dopts);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats.ValueOrDie().size(), 100000u);
}

TEST(DpsTrainerTest, RejectsEmptyWorkload) {
  Database db = TinyDb();
  Workload empty;
  ModelSchema schema = ModelSchema::Build(db, empty, TinyHints(), 60).MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  EXPECT_FALSE(TrainDps(&model, empty, DpsOptions{}).ok());
}

}  // namespace
}  // namespace sam
