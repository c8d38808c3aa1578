#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

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

TEST_F(MadeTest, AutoregressivePropertyHolds) {
  // Logits of column 0 must not depend on column 1's input.
  ad::NoGradGuard guard;
  const auto mw = model_->BuildMaskedWeights();
  Matrix in_a(1, schema_.total_domain());
  Matrix in_b(1, schema_.total_domain());
  // Different one-hots in the city segment (offset 5).
  in_a(0, 5) = 1.0;
  in_b(0, 6) = 1.0;
  ad::Tensor ta = ad::Tensor::Constant(in_a);
  ad::Tensor tb = ad::Tensor::Constant(in_b);
  ad::Tensor la = model_->ColumnLogits(
      mw, model_->Hidden(mw, ta, ta.cols()), ta, 0);
  ad::Tensor lb = model_->ColumnLogits(
      mw, model_->Hidden(mw, tb, tb.cols()), tb, 0);
  for (size_t j = 0; j < la.cols(); ++j) {
    EXPECT_DOUBLE_EQ(la.value()(0, j), lb.value()(0, j));
  }
}

TEST_F(MadeTest, LaterColumnDependsOnEarlierInput) {
  ad::NoGradGuard guard;
  const auto mw = model_->BuildMaskedWeights();
  Matrix in_a(1, schema_.total_domain());
  Matrix in_b(1, schema_.total_domain());
  in_a(0, 0) = 1.0;  // age interval 0
  in_b(0, 3) = 1.0;  // age interval 3
  ad::Tensor ta = ad::Tensor::Constant(in_a);
  ad::Tensor tb = ad::Tensor::Constant(in_b);
  ad::Tensor la = model_->ColumnLogits(
      mw, model_->Hidden(mw, ta, ta.cols()), ta, 1);
  ad::Tensor lb = model_->ColumnLogits(
      mw, model_->Hidden(mw, tb, tb.cols()), tb, 1);
  double diff = 0;
  for (size_t j = 0; j < la.cols(); ++j) {
    diff += std::fabs(la.value()(0, j) - lb.value()(0, j));
  }
  EXPECT_GT(diff, 1e-9);
}

TEST_F(MadeTest, SamplerPathMatchesDensePath) {
  // Conditional P(city | age=interval 2) must agree between the two paths.
  ad::NoGradGuard guard;
  const auto mw = model_->BuildMaskedWeights();
  Matrix in(1, schema_.total_domain());
  in(0, 2) = 1.0;
  ad::Tensor t = ad::Tensor::Constant(in);
  ad::Tensor logits =
      model_->ColumnLogits(mw, model_->Hidden(mw, t, t.cols()), t, 1);
  ad::Tensor dense_probs = ad::Softmax(logits);

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

/// Census-like single relation: direct connections and residual hidden
/// layers on, so every matmul of the training step is exercised.
uint64_t TrainCensusGolden(size_t threads = 0, size_t batch_size = 32) {
  Database db = MakeCensusLike(600, 41);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 96;
  wopts.seed = 13;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  ModelSchema schema = ModelSchema::Build(db, train, hints, 600).MoveValue();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {24, 24};
  mopts.residual = true;
  mopts.seed = 17;
  MadeModel model(&schema, mopts);
  DpsOptions dopts;
  dopts.epochs = 2;
  dopts.batch_size = batch_size;
  dopts.sample_paths = 2;
  dopts.seed = 29;
  dopts.threads = threads;
  SAM_CHECK_OK(TrainDps(&model, train, dopts).status());
  return ParamsDigest(model);
}

/// Imdb-like snowflake: indicator and fanout columns, fanout scaling in the
/// loss, direct connections on.
uint64_t TrainImdbGolden(size_t threads = 0, size_t batch_size = 16) {
  Database db = MakeImdbLike(200, 19);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 48;
  Workload train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 25;
  ModelSchema schema =
      ModelSchema::Build(db, train, hints, exec->FullOuterJoinSize())
          .MoveValue();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {16, 16};
  mopts.seed = 23;
  MadeModel model(&schema, mopts);
  DpsOptions dopts;
  dopts.epochs = 2;
  dopts.batch_size = batch_size;
  dopts.sample_paths = 3;
  dopts.seed = 31;
  dopts.threads = threads;
  SAM_CHECK_OK(TrainDps(&model, train, dopts).status());
  return ParamsDigest(model);
}

TEST(DpsTrainerTest, GoldenParamsDigest) {
  // Pins the trained parameters bit for bit. Resume-vs-uninterrupted tests
  // compare two runs of the same code; this one compares against constants,
  // so a refactor of the training arithmetic (autodiff ops, kernels, MADE
  // passes) that changes any trained bit fails here. Both kernel backends
  // must reproduce the same constants.
  constexpr uint64_t kCensus = 0x8e45966e80375b8fULL;
  constexpr uint64_t kImdb = 0xa55c14fdee0c1364ULL;
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
