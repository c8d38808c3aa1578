// Regression tests for silent generation-pipeline failure modes: Alg 2's
// size guarantee when leftover merge sets run dry, option validation that
// used to hang SampleFoj, rejection of non-tree schemas, and the estimator's
// zero-path NaN.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ar/batched_estimator.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "sam/sam_model.h"
#include "storage/database.h"

namespace sam {
namespace {

Predicate Eq(const std::string& table, const std::string& col, const char* v) {
  return Predicate{table, col, PredOp::kEq, Value(std::string(v)), {}};
}

/// Literal workload defining the chain schema's column domains.
Workload ChainWorkload() {
  Workload w;
  auto add = [&](std::vector<std::string> rels, Predicate p, int64_t card) {
    Query q;
    q.relations = std::move(rels);
    q.predicates = {std::move(p)};
    q.cardinality = card;
    w.push_back(std::move(q));
  };
  add({"A"}, Eq("A", "a", "m"), 1);
  add({"A"}, Eq("A", "a", "n"), 1);
  add({"A", "B"}, Eq("B", "b", "p"), 2);
  add({"A", "B"}, Eq("B", "b", "q"), 1);
  add({"A", "B", "C"}, Eq("C", "c", "u"), 2);
  add({"A", "B", "C"}, Eq("C", "c", "v"), 1);
  return w;
}

Result<std::unique_ptr<SamModel>> MakeChainSam(const Database& db,
                                               const SamOptions& options) {
  return SamModel::Create(db, ChainWorkload(), SchemaHints{}, 4, options);
}

/// Draws `k` FOJ tuples with all indicators forced to 1 (every relation
/// present, so every relation carries positive IPW mass) and every other
/// code uniform over its domain. This is the adversarial input for the
/// Group-and-Merge size guarantee: arbitrary fanouts and duplicated merge
/// sets routinely exhaust the leftover list before |T| keys are assigned.
SamModel::FojSample RandomFoj(const ModelSchema& schema, size_t k, Rng* rng) {
  SamModel::FojSample foj;
  foj.count = k;
  foj.codes.assign(schema.num_columns(), std::vector<int32_t>(k));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ModelColumn& col = schema.columns()[c];
    for (size_t s = 0; s < k; ++s) {
      foj.codes[c][s] =
          col.kind == ModelColumnKind::kIndicator
              ? 1
              : static_cast<int32_t>(rng->UniformInt(
                    0, static_cast<int64_t>(col.domain_size) - 1));
    }
  }
  return foj;
}

TEST(GenerationSizeGuaranteeTest, KeyedRelationsAlwaysReachTableSize) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    options.generation_seed = seed;
    auto sam = MakeChainSam(db, options);
    ASSERT_TRUE(sam.ok()) << sam.status().ToString();
    Rng code_rng(seed * 7 + 1);
    const SamModel::FojSample foj =
        RandomFoj(sam.ValueOrDie()->schema(), 64, &code_rng);
    auto gen = sam.ValueOrDie()->GenerateFromFoj(foj);
    ASSERT_TRUE(gen.ok()) << "seed " << seed << ": " << gen.status().ToString();
    const Database& g = gen.ValueOrDie();
    // Alg 2's guarantee: keyed relations have exactly |T| tuples, no matter
    // how the leftover merge sets fall out.
    EXPECT_EQ(g.FindTable("A")->num_rows(), 2u) << "seed " << seed;
    EXPECT_EQ(g.FindTable("B")->num_rows(), 3u) << "seed " << seed;
    // The unkeyed leaf's final fractional tuple is gated by a 0.5 carry
    // threshold: off by at most one tuple from |C| = 3.
    EXPECT_GE(g.FindTable("C")->num_rows(), 2u) << "seed " << seed;
    EXPECT_LE(g.FindTable("C")->num_rows(), 4u) << "seed " << seed;
    EXPECT_TRUE(g.ValidateIntegrity().ok()) << "seed " << seed;
  }
}

TEST(GenerationSizeGuaranteeTest, TopUpIsDeterministic) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  options.generation_seed = 17;
  auto sam = MakeChainSam(db, options);
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  Rng code_rng(99);
  const SamModel::FojSample foj =
      RandomFoj(sam.ValueOrDie()->schema(), 48, &code_rng);
  auto run = [&]() {
    return sam.ValueOrDie()->GenerateFromFoj(foj).MoveValue();
  };
  const Database g1 = run();
  const Database g2 = run();
  ASSERT_EQ(g1.num_tables(), g2.num_tables());
  for (size_t t = 0; t < g1.num_tables(); ++t) {
    const Table& t1 = g1.tables()[t];
    const Table& t2 = g2.tables()[t];
    ASSERT_EQ(t1.num_rows(), t2.num_rows()) << t1.name();
    for (size_t c = 0; c < t1.num_columns(); ++c) {
      for (size_t r = 0; r < t1.num_rows(); ++r) {
        ASSERT_EQ(t1.column(c).ValueAt(r).ToString(),
                  t2.column(c).ValueAt(r).ToString())
            << t1.name() << "." << t1.column(c).name() << "[" << r << "]";
      }
    }
  }
}

TEST(SamOptionsValidationTest, RejectsDegenerateKnobs) {
  SamOptions ok;
  EXPECT_TRUE(ValidateSamOptions(ok).ok());

  SamOptions zero_batch;
  zero_batch.generation_batch = 0;  // Used to hang SampleFoj forever.
  EXPECT_TRUE(ValidateSamOptions(zero_batch).code() == StatusCode::kInvalidArgument);

  SamOptions zero_foj;
  zero_foj.foj_samples = 0;
  EXPECT_TRUE(ValidateSamOptions(zero_foj).code() == StatusCode::kInvalidArgument);

  // generation_threads = 0 is not degenerate: it means hardware concurrency,
  // and it samples bit-identically to one thread.
  SamOptions zero_threads;
  zero_threads.generation_threads = 0;
  zero_threads.generation_batch = 16;  // 7 batches of 100 samples.
  EXPECT_TRUE(ValidateSamOptions(zero_threads).ok());
  SamOptions one_thread = zero_threads;
  one_thread.generation_threads = 1;
  const Database db = MakeChainDatabase();
  auto zero = MakeChainSam(db, zero_threads);
  auto one = MakeChainSam(db, one_thread);
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  zero.ValueOrDie()->model()->SyncSamplerWeights();
  one.ValueOrDie()->model()->SyncSamplerWeights();
  EXPECT_EQ(zero.ValueOrDie()->SampleFoj(100, 3).codes,
            one.ValueOrDie()->SampleFoj(100, 3).codes);
}

TEST(SamOptionsValidationTest, CreateFailsFastOnZeroGenerationBatch) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  options.generation_batch = 0;
  auto sam = MakeChainSam(db, options);
  ASSERT_FALSE(sam.ok());
  EXPECT_TRUE(sam.status().code() == StatusCode::kInvalidArgument) << sam.status().ToString();
}

TEST(SchemaRejectionTest, TwoForeignKeysAreRejectedUpstream) {
  // C references both P1 and P2: a diamond, not a forest. The pipeline's
  // NotImplemented guard is defense-in-depth; the schema must already be
  // rejected when the join graph is assembled.
  Database db;
  {
    Table p1("P1");
    SAM_CHECK_OK(p1.AddColumn(Column::FromValues(
        "id", ColumnType::kInt, {Value(int64_t{1}), Value(int64_t{2})})));
    SAM_CHECK_OK(p1.SetPrimaryKey("id"));
    SAM_CHECK_OK(db.AddTable(std::move(p1)));
  }
  {
    Table p2("P2");
    SAM_CHECK_OK(p2.AddColumn(Column::FromValues(
        "id", ColumnType::kInt, {Value(int64_t{1}), Value(int64_t{2})})));
    SAM_CHECK_OK(p2.SetPrimaryKey("id"));
    SAM_CHECK_OK(db.AddTable(std::move(p2)));
  }
  {
    Table c("C");
    SAM_CHECK_OK(c.AddColumn(Column::FromValues(
        "f1", ColumnType::kInt, {Value(int64_t{1}), Value(int64_t{2})})));
    SAM_CHECK_OK(c.AddColumn(Column::FromValues(
        "f2", ColumnType::kInt, {Value(int64_t{2}), Value(int64_t{1})})));
    SAM_CHECK_OK(c.AddForeignKey(ForeignKey{"f1", "P1", "id"}));
    SAM_CHECK_OK(c.AddForeignKey(ForeignKey{"f2", "P2", "id"}));
    SAM_CHECK_OK(db.AddTable(std::move(c)));
  }

  auto graph = db.BuildJoinGraph();
  ASSERT_FALSE(graph.ok());
  EXPECT_NE(graph.status().ToString().find("forest"), std::string::npos)
      << graph.status().ToString();

  auto sam = SamModel::Create(db, {}, SchemaHints{}, 4, SamOptions{});
  EXPECT_FALSE(sam.ok());
}

TEST(EstimatorPathsTest, FiniteEstimatesForPositivePathCounts) {
  const Database db = MakeChainDatabase();
  auto sam = MakeChainSam(db, SamOptions{});
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  sam.ValueOrDie()->model()->SyncSamplerWeights();

  Query q;
  q.relations = {"A", "B", "C"};
  q.predicates = {Eq("C", "c", "u")};
  for (const size_t paths : {size_t{1}, size_t{64}}) {
    BatchedProgressiveEstimator est(sam.ValueOrDie()->model());
    auto card = est.EstimateBatch({q}, paths);
    ASSERT_TRUE(card.ok()) << card.status().ToString();
    EXPECT_TRUE(std::isfinite(card.ValueOrDie()[0])) << "paths=" << paths;
    EXPECT_GE(card.ValueOrDie()[0], 0.0);
  }
}

TEST(EstimatorPathsTest, ZeroPathsIsRejectedNotNaN) {
  const Database db = MakeChainDatabase();
  auto sam = MakeChainSam(db, SamOptions{});
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  sam.ValueOrDie()->model()->SyncSamplerWeights();

  Query q;
  q.relations = {"A"};
  q.predicates = {Eq("A", "a", "m")};
  BatchedProgressiveEstimator est(sam.ValueOrDie()->model());
  auto direct = est.EstimateBatch({q}, 0);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().code() == StatusCode::kInvalidArgument) << direct.status().ToString();
}

}  // namespace
}  // namespace sam
