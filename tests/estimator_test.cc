#include <gtest/gtest.h>

#include <cmath>

#include "ar/batched_estimator.h"
#include "ar/made.h"
#include "ar/model_schema.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

/// One K = 1 progressive-sampling estimate of `q`.
double EstimateOne(const MadeModel& model, const Query& q, size_t paths,
                   uint64_t seed = 4242) {
  BatchedProgressiveEstimator est(&model, seed);
  return est.EstimateBatch({q}, paths).MoveValue()[0];
}

TEST(EstimatorTest, UnconstrainedQueryEstimatesTableSize) {
  // With no predicates every per-column in-range probability is 1, so the
  // estimate must equal |T| exactly — for any (even untrained) model.
  Database db = MakeCensusLike(500, 3);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 20;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  ModelSchema schema = ModelSchema::Build(db, train, SchemaHints{}, 500).MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  model.SyncSamplerWeights();

  Query q;
  q.relations = {"census"};
  EXPECT_DOUBLE_EQ(EstimateOne(model, q, 32), 500.0);
}

TEST(EstimatorTest, EmptyMaskGivesZeroEstimate) {
  Database db = MakeCensusLike(500, 5);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 20;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  ModelSchema schema = ModelSchema::Build(db, train, SchemaHints{}, 500).MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  model.SyncSamplerWeights();

  // Equality on a literal that is not in the (categorical) training domain:
  // the compiled mask is empty, so the estimate must be 0.
  Query q;
  q.relations = {"census"};
  q.predicates = {Predicate{"census", "occupation", PredOp::kEq,
                            Value(int64_t{987654}), {}}};
  EXPECT_DOUBLE_EQ(EstimateOne(model, q, 32), 0.0);
}

TEST(EstimatorTest, MonotoneInRangeWidth) {
  // A wider range must not produce a smaller estimate under the same seed,
  // because the in-range mass is a superset. (Monte-Carlo noise is avoided by
  // a fresh estimator with the same seed per query.)
  Database db = MakeCensusLike(2000, 7);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 400;
  wopts.seed = 3;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();

  SchemaHints hints;
  hints.numeric_columns = {"census.age"};
  hints.numeric_bounds["census.age"] = {17, 90};
  ModelSchema schema = ModelSchema::Build(db, train, hints, 2000).MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  model.SyncSamplerWeights();

  auto estimate = [&](int64_t age_limit) {
    Query q;
    q.relations = {"census"};
    q.predicates = {
        Predicate{"census", "age", PredOp::kLe, Value(age_limit), {}}};
    return EstimateOne(model, q, 512, /*seed=*/11);
  };
  const double narrow = estimate(30);
  const double wide = estimate(60);
  EXPECT_LE(narrow, wide * 1.05);  // Allow tiny MC slack.
  EXPECT_GT(wide, 0.0);
}

TEST(EstimatorTest, JoinQueryIndicatorConstraintReducesEstimate) {
  Database db = MakeImdbLike(300, 9);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 60;
  Workload train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 25;
  ModelSchema schema =
      ModelSchema::Build(db, train, hints, exec->FullOuterJoinSize()).MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  model.SyncSamplerWeights();

  // An untrained model still satisfies basic structure: a join estimate is
  // finite and non-negative, and conditioning on an additional predicate can
  // only shrink the in-range mass for the same trajectory seed.
  Query join;
  join.relations = {"title", "cast_info"};
  const double card_join = EstimateOne(model, join, 256, 13);
  EXPECT_GE(card_join, 0.0);
  EXPECT_TRUE(std::isfinite(card_join));

  Query join_filtered = join;
  join_filtered.predicates = {Predicate{
      "cast_info", "role_id", PredOp::kEq,
      train.front().predicates.empty() ? Value(int64_t{0})
                                       : train.front().predicates[0].literal,
      {}}};
  // Not strictly comparable (different predicate columns across seeds), so
  // only assert well-formedness.
  const double card_filtered = EstimateOne(model, join_filtered, 256, 13);
  EXPECT_GE(card_filtered, 0.0);
  EXPECT_TRUE(std::isfinite(card_filtered));
}

TEST(EstimatorTest, SamModelEstimateMatchesStandaloneEstimator) {
  Database db = MakeCensusLike(400, 15);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 100;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SamOptions options;
  options.training.epochs = 2;
  auto sam = SamModel::Train(db, train, SchemaHints{}, 400, options).MoveValue();
  // A trained SamModel is estimated through the same standalone estimator
  // the CLI and serve use: a query's answer alone equals its answer inside
  // a whole-workload batch.
  const double alone = EstimateOne(*sam->model(), train[0], 200);
  EXPECT_GE(alone, 0.0);
  EXPECT_TRUE(std::isfinite(alone));
  BatchedProgressiveEstimator sweep(sam->model());
  EXPECT_EQ(sweep.EstimateBatch(train, 200).MoveValue()[0], alone);
}

}  // namespace
}  // namespace sam
