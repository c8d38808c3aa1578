// Bit-identity and regression coverage for progressive-sampling estimation:
// a query's estimate must not change by one bit across batch composition,
// path budgets, block size, thread count, kernel backend or call history —
// and must equal digests recorded from the single-query reference estimator
// this batched one replaced.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ar/batched_estimator.h"
#include "ar/made.h"
#include "ar/model_schema.h"
#include "common/fnv1a.h"
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

struct ImdbFixture {
  ImdbFixture() {
    db = std::make_unique<Database>(MakeImdbLike(300, 9));
    auto exec = Executor::Create(db.get()).MoveValue();
    MultiRelationWorkloadOptions wopts;
    wopts.num_queries = 40;
    train = GenerateMultiRelationWorkload(*db, *exec, wopts).MoveValue();
    SchemaHints hints;
    hints.fanout_cap = 25;
    schema = std::make_unique<ModelSchema>(
        ModelSchema::Build(*db, train, hints, exec->FullOuterJoinSize())
            .MoveValue());
    model = std::make_unique<MadeModel>(schema.get(), MadeModel::Options{});
    model->SyncSamplerWeights();
  }

  std::unique_ptr<Database> db;
  Workload train;
  std::unique_ptr<ModelSchema> schema;
  std::unique_ptr<MadeModel> model;
};

ImdbFixture& Imdb() {
  static ImdbFixture* fixture = new ImdbFixture();
  return *fixture;
}

uint64_t EstimateDigest(const std::vector<double>& estimates) {
  Fnv1a h;
  for (double e : estimates) h.MixDouble(e);
  return h.hash();
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
    // A fresh K = 1 call on a single block with no pool per query: one
    // CondProbs per column over `paths` rows, so the reference answer by
    // construction cannot depend on any other query or on blocking.
    BatchedProgressiveEstimator est(&model, seed, /*rows_per_block=*/paths);
    out.push_back(est.EstimateBatch({q}, paths).MoveValue()[0]);
  }
  return out;
}

// FNV-1a digests of the estimates' raw double bits, recorded from the
// single-query reference estimator (one CondProbs per column over `paths`
// rows, then the path-order mean) before it was folded into the batched
// one: census queries 0..15 at 33 paths, imdb queries 0..16 at 31 paths.
constexpr uint64_t kCensusGoldenDigest = 0x11e1154581932961ull;
constexpr uint64_t kImdbGoldenDigest = 0xa4f3f4a02fdabf0cull;

TEST(BatchedEstimatorTest, GoldenDigestsForEveryCallShapeAndBackend) {
  struct Case {
    const char* name;
    const MadeModel* model;
    std::vector<Query> queries;
    size_t paths;
    uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"census", Census().model.get(), FirstQueries(Census().train, 16), 33,
       kCensusGoldenDigest},
      {"imdb", Imdb().model.get(), FirstQueries(Imdb().train, 17), 31,
       kImdbGoldenDigest},
  };
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  const kernels::Backend saved = kernels::ActiveBackend();
  ThreadPool pool(3);
  for (kernels::Backend backend : backends) {
    ASSERT_TRUE(kernels::SetBackend(backend));
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " backend=" +
                   std::to_string(static_cast<int>(backend)));
      EXPECT_EQ(EstimateDigest(SingleQueryEstimates(*c.model, c.queries,
                                                    c.paths)),
                c.digest);

      BatchedProgressiveEstimator all(c.model, 4242, /*rows_per_block=*/64);
      EXPECT_EQ(EstimateDigest(
                    all.EstimateBatch(c.queries, c.paths, &pool).MoveValue()),
                c.digest);

      // One instance answering K = 1 calls in turn, after a full batch has
      // left its block scratch behind.
      std::vector<double> reused;
      for (const Query& q : c.queries) {
        reused.push_back(all.EstimateBatch({q}, c.paths).MoveValue()[0]);
      }
      EXPECT_EQ(EstimateDigest(reused), c.digest);
    }
  }
  kernels::SetBackend(saved);
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
  // Regression: the single-query estimator once advanced one mutable RNG
  // across calls, so query B's estimate depended on whether query A ran
  // first. The counter-based streams make every estimate a pure function of
  // (model, seed, paths, query) — including on a reused instance, whose
  // block scratch persists across calls.
  auto& f = Census();
  BatchedProgressiveEstimator fresh(f.model.get());
  const double b_alone = fresh.EstimateBatch({f.train[1]}, 50).MoveValue()[0];

  BatchedProgressiveEstimator reused(f.model.get());
  (void)reused.EstimateBatch({f.train[0]}, 50).MoveValue();
  EXPECT_EQ(reused.EstimateBatch({f.train[1]}, 50).MoveValue()[0], b_alone);
  // Same estimator, same query, third call: still the same bits.
  EXPECT_EQ(reused.EstimateBatch({f.train[1]}, 50).MoveValue()[0], b_alone);
}

TEST(BatchedEstimatorTest, MultiRelationFanoutMatchesSingleQuery) {
  // Join queries exercise indicator columns and NeuroCard fanout
  // inverse-scaling (dead-path kills included) — the batched trajectories
  // must track the single-query ones through all of it.
  auto& f = Imdb();
  const std::vector<Query> queries = FirstQueries(f.train, 17);
  const std::vector<double> expected =
      SingleQueryEstimates(*f.model, queries, 31);
  ThreadPool pool(3);
  BatchedProgressiveEstimator batched(f.model.get(), 4242,
                                      /*rows_per_block=*/64);
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
    BatchedProgressiveEstimator single(f.model.get(), 4242,
                                       /*rows_per_block=*/budgets[i]);
    EXPECT_EQ(got[i],
              single.EstimateCompiledBatch({{&compiled[i], budgets[i]}})
                  .MoveValue()[0])
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

  const std::vector<double> singles =
      SingleQueryEstimates(*f.model, f.train, 21);
  std::vector<double> errors;
  for (size_t i = 0; i < f.train.size(); ++i) {
    errors.push_back(
        QError(singles[i], static_cast<double>(f.train[i].cardinality)));
  }
  const MetricSummary serial = Summarize(std::move(errors));
  EXPECT_EQ(batched.count, serial.count);
  EXPECT_EQ(batched.median, serial.median);
  EXPECT_EQ(batched.mean, serial.mean);
  EXPECT_EQ(batched.max, serial.max);
}

}  // namespace
}  // namespace sam
