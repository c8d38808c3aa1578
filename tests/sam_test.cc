#include <gtest/gtest.h>

#include <map>

#include "common/fnv1a.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "sam/sam_model.h"
#include "sam/view_baseline.h"
#include "workload/generator.h"

namespace sam {
namespace {

Predicate Eq(const std::string& table, const std::string& col, Value v) {
  return Predicate{table, col, PredOp::kEq, std::move(v), {}};
}

/// Workload whose literals define the Figure 3 domains (A.a in {m, n}, B.b in
/// {a, b, c}, C.c in {i, j}).
Workload Figure3LiteralWorkload() {
  Workload w;
  auto add = [&](std::vector<std::string> rels, Predicate p, int64_t card) {
    Query q;
    q.relations = std::move(rels);
    q.predicates = {std::move(p)};
    q.cardinality = card;
    w.push_back(std::move(q));
  };
  add({"A"}, Eq("A", "a", Value(std::string("m"))), 2);
  add({"A"}, Eq("A", "a", Value(std::string("n"))), 2);
  add({"A", "B"}, Eq("B", "b", Value(std::string("a"))), 1);
  add({"A", "B"}, Eq("B", "b", Value(std::string("b"))), 1);
  add({"A", "B"}, Eq("B", "b", Value(std::string("c"))), 1);
  add({"A", "C"}, Eq("C", "c", Value(std::string("i"))), 2);
  add({"A", "C"}, Eq("C", "c", Value(std::string("j"))), 2);
  return w;
}

/// Fixture injecting the *exact* 8 full-outer-join tuples of Figure 3(b)
/// into SAM's generation pipeline, so IPW / scaling / Group-and-Merge can be
/// validated against the paper's worked example.
class Figure3SamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeFigure3Database();
    SamOptions options;
    options.generation_seed = 321;
    options.enforce_null_consistency = true;  // Exercised explicitly below.
    auto sam = SamModel::Create(db_, Figure3LiteralWorkload(), SchemaHints{},
                                /*foj_size=*/8, options);
    ASSERT_TRUE(sam.ok()) << sam.status().ToString();
    sam_ = sam.MoveValue();

    const ModelSchema& schema = sam_->schema();
    // Columns: A.a, I(B), B.b, F(B), I(C), C.c, F(C).
    ASSERT_EQ(schema.num_columns(), 7u);
    foj_.count = 8;
    foj_.codes.assign(7, std::vector<int32_t>(8));
    // Encoders.
    auto code_a = [&](const char* v) {
      return schema.EncodeContent(schema.columns()[0], Value(std::string(v)));
    };
    auto code_b = [&](const char* v) {
      return schema.EncodeContent(schema.columns()[2], Value(std::string(v)));
    };
    auto code_c = [&](const char* v) {
      return schema.EncodeContent(schema.columns()[5], Value(std::string(v)));
    };
    // Fanout value f encodes as f-1.
    struct Row {
      const char* a;
      int ib;
      const char* b;  // nullptr = NULL
      int fb;
      int ic;
      const char* c;
      int fc;
    };
    // The 8 FOJ tuples of Figure 3(b):
    //  key 1 (m): B row {a} x C rows {i, j}; F_B=1, F_C=2.
    //  key 2 (m): B rows {b, c} x C rows {i, j}; F_B=2, F_C=2.
    //  keys 3/4 (n): no children.
    const Row fig3[8] = {
        {"m", 1, "a", 1, 1, "i", 2},  {"m", 1, "a", 1, 1, "j", 2},
        {"m", 1, "b", 2, 1, "i", 2},  {"m", 1, "b", 2, 1, "j", 2},
        {"m", 1, "c", 2, 1, "i", 2},  {"m", 1, "c", 2, 1, "j", 2},
        {"n", 0, nullptr, 1, 0, nullptr, 1}, {"n", 0, nullptr, 1, 0, nullptr, 1}};
    for (size_t s = 0; s < 8; ++s) {
      const Row& r = fig3[s];
      foj_.codes[0][s] = code_a(r.a);
      foj_.codes[1][s] = r.ib;
      foj_.codes[2][s] = r.b ? code_b(r.b) : 0;  // 0 = NULL token.
      foj_.codes[3][s] = r.fb - 1;
      foj_.codes[4][s] = r.ic;
      foj_.codes[5][s] = r.c ? code_c(r.c) : 0;
      foj_.codes[6][s] = r.fc - 1;
      ASSERT_GE(foj_.codes[0][s], 0);
    }
  }

  Database db_;
  std::unique_ptr<SamModel> sam_;
  SamModel::FojSample foj_;
};

TEST_F(Figure3SamTest, InverseProbabilityWeightsMatchPaper) {
  // Key-1 rows: W_A = 1/(F_B * F_C) = 1/2.
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "A", 0), 0.5);
  // Key-2 rows: W_A = 1/(2*2) = 0.25 (the paper's worked example).
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "A", 2), 0.25);
  // Null rows: fanouts of absent relations count as 1.
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "A", 6), 1.0);
  // W_B = 1/F_C for present B, 0 for absent.
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "B", 0), 0.5);
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "B", 6), 0.0);
  // W_C = 1/F_B.
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "C", 0), 1.0);
  EXPECT_DOUBLE_EQ(sam_->InverseProbabilityWeight(foj_, "C", 2), 0.5);
}

TEST_F(Figure3SamTest, GroupAndMergeRecoversDatabaseExactly) {
  auto gen_res = sam_->GenerateFromFoj(foj_);
  ASSERT_TRUE(gen_res.ok()) << gen_res.status().ToString();
  const Database& gen = gen_res.ValueOrDie();

  // Table sizes recovered exactly.
  EXPECT_EQ(gen.FindTable("A")->num_rows(), 4u);
  EXPECT_EQ(gen.FindTable("B")->num_rows(), 3u);
  EXPECT_EQ(gen.FindTable("C")->num_rows(), 4u);
  ASSERT_TRUE(gen.ValidateIntegrity().ok());

  // Every original query cardinality must be recovered exactly — the paper's
  // example states the generated database equals the original.
  auto orig_exec = Executor::Create(&db_).MoveValue();
  auto gen_exec = Executor::Create(&gen).MoveValue();

  std::vector<Query> probes;
  {
    Query q;
    q.relations = {"A"};
    q.predicates = {Eq("A", "a", Value(std::string("m")))};
    probes.push_back(q);
    q.predicates = {Eq("A", "a", Value(std::string("n")))};
    probes.push_back(q);
  }
  {
    Query q;
    q.relations = {"A", "B"};
    probes.push_back(q);
    q.relations = {"A", "C"};
    probes.push_back(q);
    q.relations = {"A", "B", "C"};
    probes.push_back(q);
  }
  {
    // The cross-child correlation the view-based assignment breaks (Fig. 4):
    // inner join A-B-C with predicates on both children.
    Query q;
    q.relations = {"A", "B", "C"};
    q.predicates = {Eq("B", "b", Value(std::string("a"))),
                    Eq("C", "c", Value(std::string("i")))};
    probes.push_back(q);
    q.predicates = {Eq("B", "b", Value(std::string("b"))),
                    Eq("C", "c", Value(std::string("j")))};
    probes.push_back(q);
  }
  for (const auto& q : probes) {
    const int64_t orig = orig_exec->Cardinality(q).ValueOrDie();
    const int64_t got = gen_exec->Cardinality(q).ValueOrDie();
    EXPECT_EQ(got, orig) << q.ToString();
  }
  // FOJ size also recovered.
  EXPECT_EQ(gen_exec->FullOuterJoinSize(), 8);
}

TEST_F(Figure3SamTest, ScaledWeightsSumToTableSizes) {
  // After scaling, sum over samples of W_T^s must equal |T| for every T
  // (here the injected sample set is the whole FOJ, so scale factor is 1).
  double wa = 0, wb = 0, wc = 0;
  for (size_t s = 0; s < 8; ++s) {
    wa += sam_->InverseProbabilityWeight(foj_, "A", s);
    wb += sam_->InverseProbabilityWeight(foj_, "B", s);
    wc += sam_->InverseProbabilityWeight(foj_, "C", s);
  }
  EXPECT_DOUBLE_EQ(wa, 4.0);
  EXPECT_DOUBLE_EQ(wb, 3.0);
  EXPECT_DOUBLE_EQ(wc, 4.0);
}

TEST_F(Figure3SamTest, SampledFojRespectsNullConsistency) {
  // Even untrained, sampling must never produce content for an absent
  // relation when enforce_null_consistency is on.
  sam_->model()->SyncSamplerWeights();
  const auto foj = sam_->SampleFoj(256, 99);
  const ModelSchema& schema = sam_->schema();
  const int ib = schema.FindColumn(ModelColumnKind::kIndicator, "B", "B");
  const int bb = schema.FindColumn(ModelColumnKind::kContent, "B", "b");
  const int fb = schema.FindColumn(ModelColumnKind::kFanout, "B", "B");
  for (size_t s = 0; s < foj.count; ++s) {
    if (foj.codes[ib][s] == 0) {
      EXPECT_EQ(foj.codes[bb][s], 0) << "content of absent relation not NULL";
      EXPECT_EQ(foj.codes[fb][s], 0) << "fanout of absent relation not 1";
    }
  }
}

TEST_F(Figure3SamTest, AblationBreaksCrossChildCorrelation) {
  // With the view-based assignment, table sizes and pairwise joins are still
  // right, but three-way correlation need not be. We only check it runs and
  // produces structurally valid output (the statistical breakage is asserted
  // at scale in the Table 3/4 benches).
  SamOptions options;
  options.generation_seed = 11;
  auto sam = SamModel::Create(db_, Figure3LiteralWorkload(), SchemaHints{}, 8,
                              options)
                 .MoveValue();
  Rng rng(13);
  auto gen = GenerateViewBaseline(*sam, foj_, &rng);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.ValueOrDie().FindTable("A")->num_rows(), 4u);
  EXPECT_TRUE(gen.ValueOrDie().ValidateIntegrity().ok());
}

TEST(SamSingleRelationTest, TrainsAndGeneratesWithLowInputQError) {
  Database db = MakeCensusLike(1500, 71);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 400;
  wopts.max_filters = 3;
  wopts.seed = 21;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();

  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};

  SamOptions options;
  options.model.hidden_sizes = {32, 32};
  options.training.epochs = 6;
  options.training.batch_size = 48;
  options.training.learning_rate = 3e-3;
  auto sam_res = SamModel::Train(db, train, hints,
                                 static_cast<int64_t>(db.FindTable("census")->num_rows()),
                                 options);
  ASSERT_TRUE(sam_res.ok()) << sam_res.status().ToString();
  auto& sam_model = *sam_res.ValueOrDie();

  auto gen_res = sam_model.Generate();
  ASSERT_TRUE(gen_res.ok()) << gen_res.status().ToString();
  const Database& gen = gen_res.ValueOrDie();
  ASSERT_EQ(gen.FindTable("census")->num_rows(), 1500u);

  auto gen_exec = Executor::Create(&gen).MoveValue();
  Workload subset(train.begin(), train.begin() + 100);
  const MetricSummary qe = QErrorOnDatabase(*gen_exec, subset).MoveValue();
  // Trained briefly on a small workload, so only require a sane fidelity
  // level; the benches measure the full-strength numbers.
  EXPECT_LT(qe.median, 5.0) << "median input-query q-error too high";
}

TEST(SamModelTest, GenerateMultiRelationEndToEnd) {
  Database db = MakeImdbLike(400, 77);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 150;
  Workload train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();

  SchemaHints hints;
  hints.numeric_columns = {"title.production_year"};
  hints.numeric_bounds["title.production_year"] = {1900, 2025};

  SamOptions options;
  options.model.hidden_sizes = {24, 24};
  options.training.epochs = 2;
  options.training.batch_size = 32;
  options.foj_samples = 4000;
  auto sam_res =
      SamModel::Train(db, train, hints, exec->FullOuterJoinSize(), options);
  ASSERT_TRUE(sam_res.ok()) << sam_res.status().ToString();

  auto gen_res = sam_res.ValueOrDie()->Generate();
  ASSERT_TRUE(gen_res.ok()) << gen_res.status().ToString();
  const Database& gen = gen_res.ValueOrDie();
  EXPECT_EQ(gen.num_tables(), 6u);
  ASSERT_TRUE(gen.ValidateIntegrity().ok());
  // Generated sizes should be within 25% of the originals.
  for (const auto& t : db.tables()) {
    const double orig = static_cast<double>(t.num_rows());
    const double got =
        static_cast<double>(gen.FindTable(t.name())->num_rows());
    EXPECT_GT(got, orig * 0.75) << t.name();
    EXPECT_LT(got, orig * 1.25) << t.name();
  }
}

TEST(InverseProbabilityWeightTest, ImdbWeightsArePinnedBitForBit) {
  // An untrained imdb-like model, so the FOJ sample covers absent relations
  // and fanouts of every size; the digest was recorded before the rule was
  // compiled into ModelSchema, by walking ancestors per sample.
  const Database db = MakeImdbLike(200, 19);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 48;
  const Workload train =
      GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 25;
  SamOptions options;
  options.model.hidden_sizes = {16, 16};
  options.model.seed = 23;
  options.generation_threads = 1;
  auto sam = SamModel::Create(db, train, hints, exec->FullOuterJoinSize(),
                              options)
                 .MoveValue();
  sam->model()->SyncSamplerWeights();
  const SamModel::FojSample foj = sam->SampleFoj(4000, 77);
  Fnv1a digest;
  for (const RelationRule& rule : sam->schema().relations()) {
    for (size_t s = 0; s < foj.count; ++s) {
      const double w = sam->InverseProbabilityWeight(foj, rule, s);
      ASSERT_EQ(w, sam->InverseProbabilityWeight(foj, rule.name, s));
      digest.MixDouble(w);
    }
  }
  EXPECT_EQ(digest.hash(), 0x42a5ce0310a1ed3eull);
}

}  // namespace
}  // namespace sam
