// The relational algebra the paper's query processor needs (§4, §5.2.1)
// — selection, projection, duplicate removal, products, equi-joins,
// grouping and aggregates — pinned through the one production path that
// runs it: SqlExecutor over a Database (and, for the ILS primitive, a
// QUEL session).

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "quel/quel_session.h"
#include "sql/sql_executor.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::ColumnText;
using testing_util::MakeRelation;

Relation Ships() {
  return MakeRelation("SHIP",
                      Schema({{"Id", ValueType::kString, true},
                              {"Class", ValueType::kString, false},
                              {"Displacement", ValueType::kInt, false}}),
                      {{"S1", "0101", "16600"},
                       {"S2", "0102", "7250"},
                       {"S3", "0201", "6000"},
                       {"S4", "0201", "6000"}});
}

Relation Classes() {
  return MakeRelation("CLS",
                      Schema({{"Class", ValueType::kString, true},
                              {"Type", ValueType::kString, false}}),
                      {{"0101", "SSBN"}, {"0102", "SSBN"}, {"0201", "SSN"}});
}

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_OK(db_->AddRelation(Ships()));
    ASSERT_OK(db_->AddRelation(Classes()));
  }

  void Add(Relation rel) { ASSERT_OK(db_->AddRelation(std::move(rel))); }

  Result<Relation> Sql(const std::string& sql) {
    return SqlExecutor(db_.get()).ExecuteSql(sql);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AlgebraTest, SelectFiltersRows) {
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Sql("SELECT Id FROM SHIP WHERE Displacement > 7000"));
  EXPECT_EQ(ColumnText(out, "Id"), (std::vector<std::string>{"S1", "S2"}));
}

TEST_F(AlgebraTest, SelectPropagatesEvalErrors) {
  // Comparing a string column with an integer column is a type error.
  EXPECT_EQ(Sql("SELECT Id FROM SHIP WHERE Class = Displacement")
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST_F(AlgebraTest, ProjectKeepsOrderAndRenames) {
  ASSERT_OK_AND_ASSIGN(Relation out, Sql("SELECT Class FROM SHIP"));
  EXPECT_EQ(out.size(), 4u);
  ASSERT_EQ(out.schema().size(), 1u);
  EXPECT_EQ(out.schema().attribute(0).name, "Class");
  EXPECT_EQ(ColumnText(out, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201", "0201"}));
}

TEST_F(AlgebraTest, ProjectDistinctCollapsesDuplicates) {
  ASSERT_OK_AND_ASSIGN(Relation out, Sql("SELECT DISTINCT Class FROM SHIP"));
  EXPECT_EQ(ColumnText(out, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201"}));
}

TEST_F(AlgebraTest, ProjectUnknownAttributeFails) {
  EXPECT_FALSE(Sql("SELECT Nope FROM SHIP").ok());
}

TEST_F(AlgebraTest, SortedUniqueProjectIsTheQuelPrimitive) {
  // `retrieve into S unique (r.Y, r.X) sort by r.Y` from §5.2.1 step 1.
  QuelSession session(db_.get());
  ASSERT_OK(session
                .ExecuteScript("range of r is SHIP\n"
                               "retrieve into S unique (r.Class, r.Id) "
                               "sort by r.Class")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s, db_->Get("S"));
  EXPECT_EQ(s->size(), 4u);
  EXPECT_EQ(ColumnText(*s, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201", "0201"}));
}

TEST_F(AlgebraTest, DistinctPreservesFirstOccurrence) {
  Add(MakeRelation("R", Schema({{"x", ValueType::kInt, false}}),
                   {{"2"}, {"1"}, {"2"}, {"1"}}));
  ASSERT_OK_AND_ASSIGN(Relation out, Sql("SELECT DISTINCT x FROM R"));
  EXPECT_EQ(ColumnText(out, "x"), (std::vector<std::string>{"2", "1"}));
}

TEST_F(AlgebraTest, CrossProductQualifiesColumns) {
  ASSERT_OK_AND_ASSIGN(Relation out, Sql("SELECT * FROM SHIP, CLS"));
  EXPECT_EQ(out.size(), 12u);
  EXPECT_TRUE(out.schema().Contains("SHIP.Class"));
  EXPECT_TRUE(out.schema().Contains("CLS.Class"));
}

TEST_F(AlgebraTest, EquiJoinMatchesOnKeys) {
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      Sql("SELECT SHIP.Id, CLS.Type FROM SHIP, CLS "
          "WHERE SHIP.Class = CLS.Class"));
  EXPECT_EQ(ColumnText(out, "Id"),
            (std::vector<std::string>{"S1", "S2", "S3", "S4"}));
  EXPECT_EQ(ColumnText(out, "Type"),
            (std::vector<std::string>{"SSBN", "SSBN", "SSN", "SSN"}));
}

TEST_F(AlgebraTest, EquiJoinDropsNullsAndNonMatches) {
  Add(MakeRelation("L", Schema({{"k", ValueType::kString, false}}),
                   {{"a"}, {""}, {"zz"}}));
  Add(MakeRelation("R", Schema({{"k", ValueType::kString, false}}),
                   {{"a"}, {"b"}}));
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Sql("SELECT * FROM L, R WHERE L.k = R.k"));
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(AlgebraTest, EquiJoinMatchesMixedIntRealKeys) {
  // Keys equal under Value::Compare meet even when their text differs.
  Add(MakeRelation("L", Schema({{"a", ValueType::kInt, false}}),
                   {{"12345678901"}, {"7"}, {"3"}}));
  Add(MakeRelation("R", Schema({{"b", ValueType::kReal, false}}),
                   {{"12345678901.0"}, {"7.0"}, {"4.5"}}));
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Sql("SELECT L.a FROM L, R WHERE L.a = R.b"));
  EXPECT_EQ(ColumnText(out, "a"),
            (std::vector<std::string>{"12345678901", "7"}));
}

TEST_F(AlgebraTest, Aggregates) {
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      Sql("SELECT MIN(Displacement), MAX(Displacement), COUNT(*) FROM SHIP"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value::Int(6000));
  EXPECT_EQ(out.row(0).at(1), Value::Int(16600));
  EXPECT_EQ(out.row(0).at(2), Value::Int(4));
}

TEST_F(AlgebraTest, AggregateCountSkipsNulls) {
  Add(MakeRelation("R", Schema({{"x", ValueType::kInt, false}}),
                   {{"1"}, {""}, {"3"}}));
  ASSERT_OK_AND_ASSIGN(Relation out, Sql("SELECT COUNT(x) FROM R"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.row(0).at(0), Value::Int(2));
}

TEST_F(AlgebraTest, GroupCountSortsByGroup) {
  ASSERT_OK_AND_ASSIGN(
      Relation out, Sql("SELECT Class, COUNT(*) FROM SHIP GROUP BY Class"));
  EXPECT_EQ(ColumnText(out, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201"}));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.row(0).at(1), Value::Int(1));
  EXPECT_EQ(out.row(1).at(1), Value::Int(1));
  EXPECT_EQ(out.row(2).at(1), Value::Int(2));
}

}  // namespace
}  // namespace iqs
