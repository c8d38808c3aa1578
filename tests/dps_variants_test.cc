// Tests for the optional training/model variants: ResMADE residual
// connections, Gumbel temperature annealing, and learning-rate decay.

#include <gtest/gtest.h>

#include "ar/dps_trainer.h"
#include "common/logging.h"
#include "ar/batched_estimator.h"
#include "autodiff/ops.h"
#include "ar/made.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct Env {
  Database db;
  std::unique_ptr<Executor> exec;
  Workload train;
  ModelSchema schema;
};

Env MakeEnv() {
  Env s;
  s.db = MakeCensusLike(800, 311);
  s.exec = Executor::Create(&s.db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 200;
  wopts.max_filters = 2;
  wopts.seed = 7;
  s.train =
      GenerateSingleRelationWorkload(s.db, "census", *s.exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  s.schema = ModelSchema::Build(s.db, s.train, hints, 800).MoveValue();
  return s;
}

TEST(ResMadeTest, ResidualModelPreservesAutoregressiveProperty) {
  Env s = MakeEnv();
  MadeModel::Options opts;
  opts.hidden_sizes = {24, 24, 24};
  opts.residual = true;
  MadeModel model(&s.schema, opts);
  model.SyncSamplerWeights();

  // P(col 0) must not change when a later column's input is observed.
  MadeModel::SamplerState a = model.InitState(1);
  const Matrix p_before = model.CondProbs(a, 0);
  model.Observe(&a, 1, std::vector<int32_t>{0});  // Feed column 1 (later than 0).
  const Matrix p_after = model.CondProbs(a, 0);
  for (size_t j = 0; j < p_before.cols(); ++j) {
    EXPECT_DOUBLE_EQ(p_before(0, j), p_after(0, j));
  }
}

TEST(ResMadeTest, DensePathMatchesSamplerPathWithResiduals) {
  Env s = MakeEnv();
  MadeModel::Options opts;
  opts.hidden_sizes = {16, 16};
  opts.residual = true;
  opts.seed = 5;
  MadeModel model(&s.schema, opts);
  model.SyncSamplerWeights();

  // Observe codes for the first columns through both paths; every
  // conditional on the way must agree.
  ad::NoGradGuard guard;
  const auto mw = model.BuildMaskedWeights();
  MadeModel::Sweep sweep = model.StartSweep(1);
  MadeModel::SamplerState st = model.InitState(1);
  for (size_t col = 0; col < 4; ++col) {
    const ad::Tensor dense = ad::Softmax(model.ColumnPass(mw, &sweep));
    const Matrix fast = model.CondProbs(st, col);
    for (size_t j = 0; j < fast.cols(); ++j) {
      EXPECT_NEAR(dense.value()(0, j), fast(0, j), 1e-10) << "column " << col;
    }
    const size_t domain = s.schema.columns()[col].domain_size;
    const int32_t code = static_cast<int32_t>(col % domain);
    Matrix one_hot(1, domain);
    one_hot(0, static_cast<size_t>(code)) = 1.0;
    model.WriteSample(&sweep, ad::Tensor::Constant(std::move(one_hot)));
    model.Observe(&st, col, std::vector<int32_t>{code});
  }
}

TEST(ResMadeTest, ResidualModelTrains) {
  Env s = MakeEnv();
  MadeModel::Options opts;
  opts.hidden_sizes = {24, 24, 24};
  opts.residual = true;
  MadeModel model(&s.schema, opts);
  DpsOptions dopts;
  dopts.epochs = 8;
  auto stats = TrainDps(&model, s.train, dopts).MoveValue();
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(DpsVariantsTest, TauAnnealingRunsAndLearns) {
  Env s = MakeEnv();
  MadeModel model(&s.schema, MadeModel::Options{{24, 24}, false, 1});
  DpsOptions dopts;
  dopts.epochs = 10;
  dopts.gumbel_tau = 2.0;
  dopts.gumbel_tau_final = 0.3;
  auto stats = TrainDps(&model, s.train, dopts).MoveValue();
  ASSERT_EQ(stats.size(), 10u);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(DpsVariantsTest, VariantsReachComparableQuality) {
  Env s = MakeEnv();

  auto train_and_eval = [&](MadeModel::Options mopts, DpsOptions dopts) {
    MadeModel model(&s.schema, mopts);
    SAM_CHECK(TrainDps(&model, s.train, dopts).ok());
    const Workload queries(s.train.begin(), s.train.begin() + 60);
    BatchedProgressiveEstimator est(&model);
    const std::vector<double> ests =
        est.EstimateBatch(queries, 300).MoveValue();
    std::vector<double> qerrors;
    for (size_t i = 0; i < queries.size(); ++i) {
      qerrors.push_back(
          QError(ests[i], static_cast<double>(queries[i].cardinality)));
    }
    return Summarize(std::move(qerrors)).median;
  };

  MadeModel::Options base;
  base.hidden_sizes = {24, 24};
  DpsOptions dbase;
  dbase.epochs = 12;
  const double plain = train_and_eval(base, dbase);

  MadeModel::Options res = base;
  res.residual = true;
  DpsOptions danneal = dbase;
  danneal.gumbel_tau = 1.5;
  danneal.gumbel_tau_final = 0.5;
  const double fancy = train_and_eval(res, danneal);

  // Both configurations must reach a sane fidelity; neither may diverge.
  EXPECT_LT(plain, 4.0);
  EXPECT_LT(fancy, 4.0);
}

}  // namespace
}  // namespace sam
