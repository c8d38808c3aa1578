// Batched query execution (ParallelCardinality), compiled-query evaluation,
// and the correctness fixes that ride along: metrics argument validation and
// graceful errors from Executor::Create on malformed key metadata.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "datasets/datasets.h"
#include "engine/compiled_query.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "workload/generator.h"

namespace sam {
namespace {

// ---------------------------------------------------------------------------
// ParallelCardinality vs sequential Cardinality.

void ExpectBatchMatchesSequential(const Database& db, const Workload& w) {
  auto exec = Executor::Create(&db).MoveValue();
  std::vector<int64_t> seq;
  seq.reserve(w.size());
  for (const auto& q : w) {
    seq.push_back(exec->Cardinality(q).ValueOrDie());
  }
  for (size_t threads : {1, 2, 3, 8}) {
    auto batch = exec->ParallelCardinality(w, threads);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch.ValueOrDie(), seq) << "threads=" << threads;
  }
}

TEST(ParallelExecutionTest, MatchesSequentialOnSingleRelationWorkload) {
  Database db = MakeCensusLike(2000, 11);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions opts;
  opts.num_queries = 300;
  auto w = GenerateSingleRelationWorkload(db, "census", *exec, opts).MoveValue();
  ExpectBatchMatchesSequential(db, w);
}

TEST(ParallelExecutionTest, MatchesSequentialOnMultiRelationWorkload) {
  Database db = MakeImdbLike(800, 13);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions opts;
  opts.num_queries = 300;
  auto w = GenerateMultiRelationWorkload(db, *exec, opts).MoveValue();
  ExpectBatchMatchesSequential(db, w);
}

TEST(ParallelExecutionTest, EmptyWorkloadYieldsEmptyResult) {
  Database db = MakeCensusLike(100, 1);
  auto exec = Executor::Create(&db).MoveValue();
  auto batch = exec->ParallelCardinality(Workload{}, 4);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch.ValueOrDie().empty());
}

TEST(ParallelExecutionTest, BatchReportsPerQueryErrors) {
  Database db = MakeCensusLike(100, 1);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions opts;
  opts.num_queries = 10;
  auto w = GenerateSingleRelationWorkload(db, "census", *exec, opts).MoveValue();
  Query bad;
  bad.relations = {"no_such_table"};
  w.push_back(bad);
  auto batch = exec->ParallelCardinality(w, 4);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kNotFound) << batch.status().ToString();
}

TEST(ParallelExecutionTest, CompiledQueryReusableAcrossScratches) {
  Database db = MakeImdbLike(500, 5);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions opts;
  opts.num_queries = 50;
  auto w = GenerateMultiRelationWorkload(db, *exec, opts).MoveValue();
  for (const auto& q : w) {
    auto cq = engine::CompiledQuery::Compile(db, exec->join_graph(), q);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    engine::EvalScratch s1, s2;
    const int64_t a = exec->Cardinality(cq.ValueOrDie(), &s1).ValueOrDie();
    const int64_t b = exec->Cardinality(cq.ValueOrDie(), &s2).ValueOrDie();
    const int64_t c = exec->Cardinality(q).ValueOrDie();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
  }
}

TEST(ParallelExecutionTest, ScratchReuseDoesNotLeakStateAcrossQueries) {
  // Evaluate a filtered query, then an unfiltered one with the same scratch:
  // stale bitmaps from the first must not constrain the second.
  Database db = MakeCensusLike(500, 3);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions opts;
  opts.num_queries = 1;
  auto w = GenerateSingleRelationWorkload(db, "census", *exec, opts).MoveValue();
  Query unfiltered;
  unfiltered.relations = {"census"};
  engine::EvalScratch scratch;
  auto cq1 = engine::CompiledQuery::Compile(db, exec->join_graph(), w[0]);
  auto cq2 = engine::CompiledQuery::Compile(db, exec->join_graph(), unfiltered);
  ASSERT_TRUE(cq1.ok() && cq2.ok());
  (void)exec->Cardinality(cq1.ValueOrDie(), &scratch).ValueOrDie();
  const int64_t got = exec->Cardinality(cq2.ValueOrDie(), &scratch).ValueOrDie();
  EXPECT_EQ(got, static_cast<int64_t>(db.FindTable("census")->num_rows()));
}

// ---------------------------------------------------------------------------
// Metrics validation.

TEST(ParallelExecutionTest, PerformanceDeviationRejectsNonPositiveRepeats) {
  Database db = MakeCensusLike(100, 1);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions opts;
  opts.num_queries = 3;
  auto w = GenerateSingleRelationWorkload(db, "census", *exec, opts).MoveValue();
  for (int repeats : {0, -1, -100}) {
    auto dev = PerformanceDeviationMs(*exec, *exec, w, repeats);
    ASSERT_FALSE(dev.ok()) << "repeats=" << repeats;
    EXPECT_EQ(dev.status().code(), StatusCode::kInvalidArgument) << dev.status().ToString();
  }
}

TEST(ParallelExecutionTest, QErrorOnDatabaseMatchesPerQueryEvaluation) {
  Database db = MakeCensusLike(1000, 17);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions opts;
  opts.num_queries = 100;
  auto w = GenerateSingleRelationWorkload(db, "census", *exec, opts).MoveValue();
  // Against the database that produced the labels, every Q-Error is exactly 1.
  auto summary = QErrorOnDatabase(*exec, w);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_DOUBLE_EQ(summary.ValueOrDie().median, 1.0);
  EXPECT_DOUBLE_EQ(summary.ValueOrDie().max, 1.0);
}

// ---------------------------------------------------------------------------
// Malformed key metadata surfaces as Status, not a crash.

TEST(ParallelExecutionTest, ExecutorCreateFailsCleanlyOnMissingParentTable) {
  Database db;
  Table child("child");
  ASSERT_TRUE(child
                  .AddColumn(Column::FromValues(
                      "parent_id", ColumnType::kInt,
                      {Value(static_cast<int64_t>(1))}))
                  .ok());
  ASSERT_TRUE(child.AddForeignKey({"parent_id", "ghost", "id"}).ok());
  ASSERT_TRUE(db.AddTable(std::move(child)).ok());
  auto exec = Executor::Create(&db);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kNotFound) << exec.status().ToString();
}

}  // namespace
}  // namespace sam
