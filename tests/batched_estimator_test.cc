// Bit-identity and regression coverage for cross-query batched estimation:
// BatchedProgressiveEstimator must agree with ProgressiveEstimator to the
// last bit for every batch composition, path budget, block size, thread
// count and kernel backend — and ProgressiveEstimator itself must be
// call-order independent (its pre-counter-RNG implementation was not).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ar/batched_estimator.h"
#include "ar/estimator.h"
#include "ar/made.h"
#include "ar/model_schema.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "metrics/metrics.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct CensusFixture {
  CensusFixture() {
    db = std::make_unique<Database>(MakeCensusLike(1000, 21));
    auto exec = Executor::Create(db.get()).MoveValue();
    SingleRelationWorkloadOptions wopts;
    wopts.num_queries = 80;
    wopts.seed = 5;
    train = GenerateSingleRelationWorkload(*db, "census", *exec, wopts)
                .MoveValue();
    SchemaHints hints;
    hints.numeric_columns = {"census.age", "census.hours_per_week"};
    hints.numeric_bounds["census.age"] = {17, 90};
    hints.numeric_bounds["census.hours_per_week"] = {1, 99};
    schema = std::make_unique<ModelSchema>(
        ModelSchema::Build(*db, train, hints, 1000).MoveValue());
    model = std::make_unique<MadeModel>(schema.get(), MadeModel::Options{});
    model->SyncSamplerWeights();
  }

  std::unique_ptr<Database> db;
  Workload train;
  std::unique_ptr<ModelSchema> schema;
  std::unique_ptr<MadeModel> model;
};

CensusFixture& Census() {
  static CensusFixture* fixture = new CensusFixture();
  return *fixture;
}

std::vector<Query> FirstQueries(const Workload& pool, size_t n) {
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) queries.push_back(pool[i % pool.size()]);
  return queries;
}

std::vector<double> SingleQueryEstimates(const MadeModel& model,
                                         const std::vector<Query>& queries,
                                         size_t paths, uint64_t seed = 4242) {
  std::vector<double> out;
  for (const Query& q : queries) {
    // A fresh estimator per query: the reference answer by construction
    // cannot depend on any other query.
    ProgressiveEstimator est(&model, paths, seed);
    out.push_back(est.EstimateCardinality(q).MoveValue());
  }
  return out;
}

TEST(BatchedEstimatorTest, MatchesSingleQueryAcrossBatchCompositions) {
  auto& f = Census();
  for (size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
    const std::vector<Query> queries = FirstQueries(f.train, k);
    const std::vector<double> expected =
        SingleQueryEstimates(*f.model, queries, 33);
    BatchedProgressiveEstimator batched(f.model.get());
    const std::vector<double> got =
        batched.EstimateBatch(queries, 33).MoveValue();
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], expected[i]) << "k=" << k << " query " << i;
    }
  }
}

TEST(BatchedEstimatorTest, CompositionOfBatchDoesNotChangeAnEstimate) {
  // Query 0 estimated alone, surrounded by different neighbours, and
  // duplicated within one batch: always the same bits.
  auto& f = Census();
  BatchedProgressiveEstimator batched(f.model.get());
  const double alone =
      batched.EstimateBatch({f.train[0]}, 40).MoveValue()[0];
  const std::vector<double> first_of_many =
      batched.EstimateBatch(FirstQueries(f.train, 9), 40).MoveValue();
  EXPECT_EQ(first_of_many[0], alone);
  const std::vector<double> dup =
      batched.EstimateBatch({f.train[3], f.train[0], f.train[0]}, 40)
          .MoveValue();
  EXPECT_EQ(dup[1], alone);
  EXPECT_EQ(dup[2], alone);
}

TEST(BatchedEstimatorTest, IdenticalAcrossThreadCountsAndBlockSizes) {
  auto& f = Census();
  const std::vector<Query> queries = FirstQueries(f.train, 64);
  const std::vector<double> expected =
      SingleQueryEstimates(*f.model, queries, 25);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    for (size_t block : {size_t{32}, size_t{256}, size_t{4096}}) {
      BatchedProgressiveEstimator batched(f.model.get(), 4242, block);
      const std::vector<double> got =
          batched.EstimateBatch(queries, 25, &pool).MoveValue();
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "threads=" << threads << " block=" << block << " query " << i;
      }
    }
  }
}

TEST(BatchedEstimatorTest, BitIdenticalAcrossKernelBackends) {
  // The batched path inherits the kernel layer's cross-backend bit-identity:
  // scalar and AVX2 runs must produce byte-equal estimates (and both match
  // the single-query path, already checked above).
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 not available in this build";
  }
  auto& f = Census();
  const std::vector<Query> queries = FirstQueries(f.train, 16);
  const kernels::Backend saved = kernels::ActiveBackend();
  ASSERT_TRUE(kernels::SetBackend(kernels::Backend::kScalar));
  BatchedProgressiveEstimator scalar_est(f.model.get());
  const std::vector<double> scalar =
      scalar_est.EstimateBatch(queries, 29).MoveValue();
  ASSERT_TRUE(kernels::SetBackend(kernels::Backend::kAvx2));
  BatchedProgressiveEstimator avx2_est(f.model.get());
  const std::vector<double> avx2 =
      avx2_est.EstimateBatch(queries, 29).MoveValue();
  kernels::SetBackend(saved);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(scalar[i], avx2[i]) << "query " << i;
  }
}

TEST(BatchedEstimatorTest, SingleEstimatorIsCallOrderIndependent) {
  // Regression: ProgressiveEstimator used to advance one mutable RNG across
  // calls, so query B's estimate depended on whether query A ran first. The
  // counter-based streams make every estimate a pure function of
  // (model, seed, paths, query).
  auto& f = Census();
  ProgressiveEstimator fresh(f.model.get(), 50);
  const double b_alone = fresh.EstimateCardinality(f.train[1]).MoveValue();

  ProgressiveEstimator reused(f.model.get(), 50);
  (void)reused.EstimateCardinality(f.train[0]).MoveValue();
  EXPECT_EQ(reused.EstimateCardinality(f.train[1]).MoveValue(), b_alone);
  // Same estimator, same query, third call: still the same bits.
  EXPECT_EQ(reused.EstimateCardinality(f.train[1]).MoveValue(), b_alone);
}

TEST(BatchedEstimatorTest, MultiRelationFanoutMatchesSingleQuery) {
  // Join queries exercise indicator columns and NeuroCard fanout
  // inverse-scaling (dead-path kills included) — the batched trajectory
  // step must track the single-query one through all of it.
  Database db = MakeImdbLike(300, 9);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 40;
  Workload train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 25;
  ModelSchema schema =
      ModelSchema::Build(db, train, hints, exec->FullOuterJoinSize())
          .MoveValue();
  MadeModel model(&schema, MadeModel::Options{});
  model.SyncSamplerWeights();

  const std::vector<Query> queries = FirstQueries(train, 17);
  const std::vector<double> expected =
      SingleQueryEstimates(model, queries, 31);
  ThreadPool pool(3);
  BatchedProgressiveEstimator batched(&model, 4242, /*rows_per_block=*/64);
  const std::vector<double> got =
      batched.EstimateBatch(queries, 31, &pool).MoveValue();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
}

TEST(BatchedEstimatorTest, MixedPathBudgetsMatchSingles) {
  auto& f = Census();
  const std::vector<size_t> budgets = {1, 33, 200, 7};
  std::vector<CompiledQuery> compiled;
  std::vector<BatchedEstimateItem> items;
  compiled.reserve(budgets.size());
  for (size_t i = 0; i < budgets.size(); ++i) {
    compiled.push_back(f.schema->Compile(f.train[i]).MoveValue());
  }
  for (size_t i = 0; i < budgets.size(); ++i) {
    items.push_back({&compiled[i], budgets[i]});
  }
  BatchedProgressiveEstimator batched(f.model.get());
  const std::vector<double> got =
      batched.EstimateCompiledBatch(items).MoveValue();
  for (size_t i = 0; i < budgets.size(); ++i) {
    ProgressiveEstimator single(f.model.get(), budgets[i]);
    EXPECT_EQ(got[i], single.EstimateCompiled(compiled[i]))
        << "item " << i << " paths=" << budgets[i];
  }
}

TEST(BatchedEstimatorTest, RejectsZeroPathsAndNullQueries) {
  auto& f = Census();
  BatchedProgressiveEstimator batched(f.model.get());
  EXPECT_EQ(batched.EstimateBatch({f.train[0]}, 0).status().code(),
            StatusCode::kInvalidArgument);

  const CompiledQuery cq = f.schema->Compile(f.train[0]).MoveValue();
  EXPECT_EQ(batched.EstimateCompiledBatch({{&cq, 0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(batched.EstimateCompiledBatch({{nullptr, 8}}).status().code(),
            StatusCode::kInvalidArgument);

  // An empty batch is not an error — it just has no answers.
  EXPECT_TRUE(batched.EstimateBatch({}, 8).MoveValue().empty());
}

TEST(BatchedEstimatorTest, RejectsPathSumsThatOverflow) {
  auto& f = Census();
  BatchedProgressiveEstimator batched(f.model.get());
  const CompiledQuery cq = f.schema->Compile(f.train[0]).MoveValue();
  // Two halves of 2^64 wrap to a zero-row batch: without the check the
  // per-query means would read past the (empty) selectivity array.
  const size_t half = (SIZE_MAX >> 1) + 1;
  EXPECT_EQ(batched.EstimateCompiledBatch({{&cq, half}, {&cq, half}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(batched.EstimateCompiledBatch({{&cq, 3}, {&cq, SIZE_MAX - 2}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The estimator stays usable afterwards.
  EXPECT_TRUE(batched.EstimateCompiledBatch({{&cq, 8}}).ok());
}

TEST(BatchedEstimatorTest, QErrorOnModelEstimatesMatchesSerialSweep) {
  auto& f = Census();
  ThreadPool pool(2);
  const MetricSummary batched =
      QErrorOnModelEstimates(*f.model, f.train, 21, &pool).MoveValue();

  std::vector<double> errors;
  for (const Query& q : f.train) {
    ProgressiveEstimator est(f.model.get(), 21);
    errors.push_back(QError(est.EstimateCardinality(q).MoveValue(),
                            static_cast<double>(q.cardinality)));
  }
  const MetricSummary serial = Summarize(std::move(errors));
  EXPECT_EQ(batched.count, serial.count);
  EXPECT_EQ(batched.median, serial.median);
  EXPECT_EQ(batched.mean, serial.mean);
  EXPECT_EQ(batched.max, serial.max);
}

}  // namespace
}  // namespace sam
