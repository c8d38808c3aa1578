#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "datasets/datasets.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/schema_io.h"

namespace sam {
namespace {

std::vector<Value> Ints(std::initializer_list<int64_t> vs) {
  std::vector<Value> out;
  for (int64_t v : vs) out.emplace_back(v);
  return out;
}

TEST(ValueTest, NullOrdering) {
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}));
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(ValueTest, EqualityAndHashAgree) {
  Value a(int64_t{42});
  Value b(int64_t{42});
  Value c(std::string("42"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);
}

TEST(ValueTest, NumericViewWidensInts) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumeric(), 2.5);
}

TEST(ColumnTest, DictionaryIsSortedAndCodesRoundTrip) {
  Column col = Column::FromValues("c", ColumnType::kInt, Ints({5, 3, 5, 9, 3}));
  ASSERT_EQ(col.dict_size(), 3u);
  EXPECT_EQ(col.dictionary()[0].AsInt(), 3);
  EXPECT_EQ(col.dictionary()[1].AsInt(), 5);
  EXPECT_EQ(col.dictionary()[2].AsInt(), 9);
  EXPECT_EQ(col.ValueAt(0).AsInt(), 5);
  EXPECT_EQ(col.ValueAt(1).AsInt(), 3);
  EXPECT_EQ(col.ValueAt(3).AsInt(), 9);
}

TEST(ColumnTest, NullsGetNullCode) {
  std::vector<Value> vals = {Value(int64_t{1}), Value::Null(), Value(int64_t{2})};
  Column col = Column::FromValues("c", ColumnType::kInt, vals);
  EXPECT_EQ(col.CodeAt(1), kNullCode);
  EXPECT_TRUE(col.ValueAt(1).is_null());
  EXPECT_EQ(col.dict_size(), 2u);
}

TEST(ColumnTest, CodeBoundsSupportRangePredicates) {
  Column col = Column::FromValues("c", ColumnType::kInt, Ints({10, 20, 30}));
  // Literal between dictionary entries.
  EXPECT_EQ(col.LowerBoundCode(Value(int64_t{15})), 1);
  EXPECT_EQ(col.UpperBoundCode(Value(int64_t{15})), 1);
  // Literal equal to an entry.
  EXPECT_EQ(col.LowerBoundCode(Value(int64_t{20})), 1);
  EXPECT_EQ(col.UpperBoundCode(Value(int64_t{20})), 2);
  EXPECT_EQ(col.CodeOf(Value(int64_t{20})), 1);
  EXPECT_EQ(col.CodeOf(Value(int64_t{15})), -1);
}

TEST(TableTest, RejectsMismatchedRowCounts) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromValues("a", ColumnType::kInt, Ints({1, 2})))
                  .ok());
  EXPECT_FALSE(
      t.AddColumn(Column::FromValues("b", ColumnType::kInt, Ints({1}))).ok());
}

TEST(TableTest, RejectsDuplicateColumn) {
  Table t("t");
  ASSERT_TRUE(
      t.AddColumn(Column::FromValues("a", ColumnType::kInt, Ints({1}))).ok());
  EXPECT_EQ(t.AddColumn(Column::FromValues("a", ColumnType::kInt, Ints({2})))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, ContentColumnsExcludeKeys) {
  Database db = MakeFigure3Database();
  const Table* b = db.FindTable("B");
  ASSERT_NE(b, nullptr);
  const auto content = b->ContentColumnNames();
  ASSERT_EQ(content.size(), 1u);
  EXPECT_EQ(content[0], "b");
  EXPECT_TRUE(b->IsKeyColumn("x"));
  EXPECT_FALSE(b->IsKeyColumn("b"));
}

TEST(JoinGraphTest, Figure3GraphShape) {
  Database db = MakeFigure3Database();
  auto graph_res = db.BuildJoinGraph();
  ASSERT_TRUE(graph_res.ok()) << graph_res.status().ToString();
  const JoinGraph& g = graph_res.ValueOrDie();
  EXPECT_TRUE(g.IsTree());
  EXPECT_EQ(g.Roots(), std::vector<std::string>{"A"});
  EXPECT_EQ(g.Parent("B"), "A");
  EXPECT_EQ(g.Parent("C"), "A");
  EXPECT_TRUE(g.Ancestors("B") == std::vector<std::string>{"A"});
  EXPECT_TRUE(g.Ancestors("A").empty());
  auto children = g.Children("A");
  EXPECT_EQ(children.size(), 2u);
}

TEST(JoinGraphTest, RejectsSecondParent) {
  JoinGraph g;
  ASSERT_TRUE(g.AddEdge({"A", "B", "x", "x"}).ok());
  EXPECT_FALSE(g.AddEdge({"C", "B", "y", "y"}).ok());
}

TEST(JoinGraphTest, RejectsCycle) {
  JoinGraph g;
  ASSERT_TRUE(g.AddEdge({"A", "B", "x", "x"}).ok());
  ASSERT_TRUE(g.AddEdge({"B", "C", "y", "y"}).ok());
  EXPECT_FALSE(g.AddEdge({"C", "A", "z", "z"}).ok());
}

TEST(JoinGraphTest, TopologicalOrderParentsFirst) {
  JoinGraph g;
  ASSERT_TRUE(g.AddEdge({"A", "B", "x", "x"}).ok());
  ASSERT_TRUE(g.AddEdge({"B", "C", "y", "y"}).ok());
  const auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "A");
  EXPECT_EQ(order[1], "B");
  EXPECT_EQ(order[2], "C");
}

TEST(DatabaseTest, IntegrityChecksCatchDanglingFk) {
  Database db;
  Table a("A");
  ASSERT_TRUE(a.AddColumn(Column::FromValues("x", ColumnType::kInt, Ints({1, 2})))
                  .ok());
  ASSERT_TRUE(a.SetPrimaryKey("x").ok());
  ASSERT_TRUE(db.AddTable(std::move(a)).ok());
  Table b("B");
  ASSERT_TRUE(b.AddColumn(Column::FromValues("x", ColumnType::kInt, Ints({1, 7})))
                  .ok());
  ASSERT_TRUE(b.AddForeignKey(ForeignKey{"x", "A", "x"}).ok());
  ASSERT_TRUE(db.AddTable(std::move(b)).ok());
  EXPECT_FALSE(db.ValidateIntegrity().ok());
}

TEST(DatabaseTest, IntegrityChecksCatchDuplicatePk) {
  Database db;
  Table a("A");
  ASSERT_TRUE(a.AddColumn(Column::FromValues("x", ColumnType::kInt, Ints({1, 1})))
                  .ok());
  ASSERT_TRUE(a.SetPrimaryKey("x").ok());
  ASSERT_TRUE(db.AddTable(std::move(a)).ok());
  EXPECT_FALSE(db.ValidateIntegrity().ok());
}

TEST(CsvTest, RoundTripsTableWithNulls) {
  Table t("t");
  std::vector<Value> a = {Value(int64_t{1}), Value::Null(), Value(int64_t{3})};
  std::vector<Value> s = {Value(std::string("x")), Value(std::string("y")),
                          Value::Null()};
  ASSERT_TRUE(t.AddColumn(Column::FromValues("a", ColumnType::kInt, a)).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromValues("s", ColumnType::kString, s)).ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "sam_csv_test.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv("t", path, {ColumnType::kInt, ColumnType::kString});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Table& rt = back.ValueOrDie();
  ASSERT_EQ(rt.num_rows(), 3u);
  EXPECT_EQ(rt.column(0).ValueAt(0).AsInt(), 1);
  EXPECT_TRUE(rt.column(0).ValueAt(1).is_null());
  EXPECT_EQ(rt.column(1).ValueAt(1).AsString(), "y");
  EXPECT_TRUE(rt.column(1).ValueAt(2).is_null());
  std::remove(path.c_str());
}

TEST(CsvTest, DoublesRoundTripBitExactThroughSaveAndLoad) {
  const std::vector<double> doubles = {1234567.891, 0.1,     1.0 / 3.0,
                                       -2.5e17,     1e-300,  5e-324,
                                       123456789012345.67, -0.0, 42.0};
  std::vector<Value> ids, vals;
  for (size_t i = 0; i < doubles.size(); ++i) {
    ids.emplace_back(static_cast<int64_t>(i));
    vals.emplace_back(doubles[i]);
  }
  Table t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromValues("id", ColumnType::kInt, ids)).ok());
  ASSERT_TRUE(
      t.AddColumn(Column::FromValues("v", ColumnType::kDouble, vals)).ok());
  Database db;
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "sam_csv_double_test").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  auto back = LoadDatabase(dir);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Table* rt = back.ValueOrDie().FindTable("t");
  ASSERT_NE(rt, nullptr);
  ASSERT_EQ(rt->num_rows(), doubles.size());
  for (size_t r = 0; r < doubles.size(); ++r) {
    const int64_t id = rt->column(0).ValueAt(r).AsInt();
    const double got = rt->column(1).ValueAt(r).AsDouble();
    const double want = doubles[static_cast<size_t>(id)];
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "row " << id << ": wrote " << want << ", read " << got;
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetsTest, CensusLikeShape) {
  Database db = MakeCensusLike(2000, 42);
  const Table* t = db.FindTable("census");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 2000u);
  EXPECT_EQ(t->num_columns(), 14u);
  // Income correlates with education: P(income=1 | high edu) should exceed
  // P(income=1 | low edu) by a wide margin.
  const Column* edu = t->FindColumn("education_num");
  const Column* inc = t->FindColumn("income");
  double high_total = 0, high_rich = 0, low_total = 0, low_rich = 0;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    if (edu->ValueAt(r).AsInt() >= 10) {
      ++high_total;
      high_rich += static_cast<double>(inc->ValueAt(r).AsInt());
    } else if (edu->ValueAt(r).AsInt() <= 4) {
      ++low_total;
      low_rich += static_cast<double>(inc->ValueAt(r).AsInt());
    }
  }
  ASSERT_GT(high_total, 0);
  ASSERT_GT(low_total, 0);
  EXPECT_GT(high_rich / high_total, low_rich / low_total + 0.2);
}

TEST(DatasetsTest, DmvLikeShape) {
  Database db = MakeDmvLike(3000, 7);
  const Table* t = db.FindTable("dmv");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3000u);
  EXPECT_EQ(t->num_columns(), 11u);
  EXPECT_LE(t->FindColumn("record_type")->dict_size(), 2u);
  EXPECT_GT(t->FindColumn("valid_date")->dict_size(), 200u);
}

TEST(DatasetsTest, ImdbLikeIsValidSnowflake) {
  Database db = MakeImdbLike(500, 5);
  EXPECT_EQ(db.num_tables(), 6u);
  auto graph = db.BuildJoinGraph();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.ValueOrDie().IsTree());
  EXPECT_EQ(graph.ValueOrDie().Roots(), std::vector<std::string>{"title"});
  EXPECT_TRUE(db.ValidateIntegrity().ok());
  // Some titles must be absent from each child (zero fanout -> FOJ NULLs).
  const Table* title = db.FindTable("title");
  const Table* mc = db.FindTable("movie_companies");
  EXPECT_LT(mc->FindColumn("movie_id")->dict_size(), title->num_rows());
}

TEST(DatasetsTest, GeneratorsAreDeterministic) {
  Database a = MakeCensusLike(100, 9);
  Database b = MakeCensusLike(100, 9);
  const Column& ca = a.FindTable("census")->column(0);
  const Column& cb = b.FindTable("census")->column(0);
  EXPECT_EQ(ca.codes(), cb.codes());
}

}  // namespace
}  // namespace sam
