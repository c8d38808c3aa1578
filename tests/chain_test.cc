// Tests of the depth-2 chain schema A -> B -> C: executor semantics and the
// multi-key recursive extension of Group-and-Merge (Alg 3), where B needs
// primary keys assigned *within* the groups induced by A's keys.

#include <gtest/gtest.h>

#include "datasets/datasets.h"
#include "engine/executor.h"
#include "sam/sam_model.h"

namespace sam {
namespace {

Predicate Eq(const std::string& table, const std::string& col, const char* v) {
  return Predicate{table, col, PredOp::kEq, Value(std::string(v)), {}};
}

class ChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeChainDatabase();
    exec_ = Executor::Create(&db_).MoveValue();
  }
  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ChainTest, GraphIsAChain) {
  const JoinGraph& g = exec_->join_graph();
  EXPECT_EQ(g.Parent("C"), "B");
  EXPECT_EQ(g.Parent("B"), "A");
  const auto anc = g.Ancestors("C");
  ASSERT_EQ(anc.size(), 2u);
  EXPECT_EQ(anc[0], "B");
  EXPECT_EQ(anc[1], "A");
}

TEST_F(ChainTest, CardinalitiesThroughTheChain) {
  Query q;
  q.relations = {"A", "B"};
  EXPECT_EQ(exec_->Cardinality(q).ValueOrDie(), 3);
  q.relations = {"B", "C"};
  EXPECT_EQ(exec_->Cardinality(q).ValueOrDie(), 3);
  q.relations = {"A", "B", "C"};
  EXPECT_EQ(exec_->Cardinality(q).ValueOrDie(), 3);
  q.predicates = {Eq("A", "a", "m")};
  EXPECT_EQ(exec_->Cardinality(q).ValueOrDie(), 2);
  q.predicates = {Eq("C", "c", "u")};
  EXPECT_EQ(exec_->Cardinality(q).ValueOrDie(), 2);
}

TEST_F(ChainTest, FullOuterJoinSize) {
  // A1-B1 fans to C {u,v} (2), A1-B2 has no C (1), A2-B3 has C {u} (1).
  EXPECT_EQ(exec_->FullOuterJoinSize(), 4);
}

TEST_F(ChainTest, MaterializedFojFanoutsFollowChainSemantics) {
  const Table foj = exec_->MaterializeFullOuterJoin().MoveValue();
  ASSERT_EQ(foj.num_rows(), 4u);
  const Column* fb = foj.FindColumn("F(B)");
  const Column* fc = foj.FindColumn("F(C)");
  const Column* ic = foj.FindColumn("I(C)");
  // F(B) counts B rows per A key; F(C) counts C rows per *B* key.
  int fb2 = 0, fc2 = 0, null_c = 0;
  for (size_t r = 0; r < 4; ++r) {
    if (fb->ValueAt(r).AsInt() == 2) ++fb2;
    if (fc->ValueAt(r).AsInt() == 2) ++fc2;
    if (ic->ValueAt(r).AsInt() == 0) ++null_c;
  }
  EXPECT_EQ(fb2, 3);   // The three A1 expansions.
  EXPECT_EQ(fc2, 2);   // The two B1 expansions.
  EXPECT_EQ(null_c, 1);  // B2 has no C rows.
}

/// Literal workload defining the chain schema's domains for SAM.
Workload ChainLiteralWorkload() {
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

TEST_F(ChainTest, RecursiveGroupAndMergeRecoversChainExactly) {
  SamOptions options;
  options.generation_seed = 5;
  auto sam =
      SamModel::Create(db_, ChainLiteralWorkload(), SchemaHints{}, 4, options)
          .MoveValue();
  const ModelSchema& schema = sam->schema();
  // Columns: A.a, I(B), B.b, F(B), I(C), C.c, F(C).
  ASSERT_EQ(schema.num_columns(), 7u);

  // Inject the exact 4 FOJ tuples.
  SamModel::FojSample foj;
  foj.count = 4;
  foj.codes.assign(7, std::vector<int32_t>(4));
  auto enc = [&](size_t col, const char* v) {
    return schema.EncodeContent(schema.columns()[col], Value(std::string(v)));
  };
  struct Row {
    const char* a;
    int ib;
    const char* b;
    int fb;
    int ic;
    const char* c;
    int fc;
  };
  const Row rows[4] = {{"m", 1, "p", 2, 1, "u", 2},
                       {"m", 1, "p", 2, 1, "v", 2},
                       {"m", 1, "q", 2, 0, nullptr, 1},
                       {"n", 1, "p", 1, 1, "u", 1}};
  for (size_t s = 0; s < 4; ++s) {
    foj.codes[0][s] = enc(0, rows[s].a);
    foj.codes[1][s] = rows[s].ib;
    foj.codes[2][s] = rows[s].b ? enc(2, rows[s].b) : 0;
    foj.codes[3][s] = rows[s].fb - 1;
    foj.codes[4][s] = rows[s].ic;
    foj.codes[5][s] = rows[s].c ? enc(5, rows[s].c) : 0;
    foj.codes[6][s] = rows[s].fc - 1;
  }

  // IPW weights per Eq. 4 with ancestors excluded transitively.
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "A", 0), 0.25);
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "A", 2), 0.5);
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "A", 3), 1.0);
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "B", 0), 0.5);
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "B", 2), 1.0);
  // C's ancestors are {B, A}: both fanouts excluded -> weight 1 when present.
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "C", 0), 1.0);
  EXPECT_DOUBLE_EQ(sam->InverseProbabilityWeight(foj, "C", 2), 0.0);

  const Database gen = sam->GenerateFromFoj(foj).MoveValue();
  EXPECT_EQ(gen.FindTable("A")->num_rows(), 2u);
  EXPECT_EQ(gen.FindTable("B")->num_rows(), 3u);
  EXPECT_EQ(gen.FindTable("C")->num_rows(), 3u);
  ASSERT_TRUE(gen.ValidateIntegrity().ok());

  auto gen_exec = Executor::Create(&gen).MoveValue();
  // All structural and filtered cardinalities recovered exactly.
  std::vector<Query> probes;
  {
    Query q;
    q.relations = {"A", "B"};
    probes.push_back(q);
    q.relations = {"B", "C"};
    probes.push_back(q);
    q.relations = {"A", "B", "C"};
    probes.push_back(q);
    q.predicates = {Eq("A", "a", "m"), Eq("C", "c", "v")};
    probes.push_back(q);
    q.predicates = {Eq("B", "b", "p"), Eq("C", "c", "u")};
    probes.push_back(q);
  }
  for (const auto& q : probes) {
    EXPECT_EQ(gen_exec->Cardinality(q).ValueOrDie(),
              exec_->Cardinality(q).ValueOrDie())
        << q.ToString();
  }
  EXPECT_EQ(gen_exec->FullOuterJoinSize(), 4);
}

}  // namespace
}  // namespace sam
