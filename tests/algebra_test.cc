#include "relational/algebra.h"

#include "gtest/gtest.h"
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

TEST(AlgebraTest, SelectFiltersRows) {
  Relation ships = Ships();
  ASSERT_OK_AND_ASSIGN(
      PredicatePtr pred,
      MakeColumnCompare(ships.schema(), "Displacement", CompareOp::kGt,
                        Value::Int(7000)));
  ASSERT_OK_AND_ASSIGN(Relation out, Select(ships, *pred));
  EXPECT_EQ(ColumnText(out, "Id"), (std::vector<std::string>{"S1", "S2"}));
}

TEST(AlgebraTest, SelectPropagatesEvalErrors) {
  Relation ships = Ships();
  // Comparing a string column with an integer constant is a type error.
  ASSERT_OK_AND_ASSIGN(
      PredicatePtr pred,
      MakeColumnCompare(ships.schema(), "Class", CompareOp::kEq,
                        Value::Int(101)));
  EXPECT_EQ(Select(ships, *pred).status().code(), StatusCode::kTypeError);
}

TEST(AlgebraTest, ProjectKeepsOrderAndRenames) {
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Project(Ships(), {"Class"}, /*distinct=*/false));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.schema().size(), 1u);
}

TEST(AlgebraTest, ProjectDistinctCollapsesDuplicates) {
  ASSERT_OK_AND_ASSIGN(Relation out,
                       Project(Ships(), {"Class"}, /*distinct=*/true));
  EXPECT_EQ(ColumnText(out, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201"}));
}

TEST(AlgebraTest, ProjectUnknownAttributeFails) {
  EXPECT_FALSE(Project(Ships(), {"Nope"}, false).ok());
}

TEST(AlgebraTest, SortedUniqueProjectIsTheQuelPrimitive) {
  // `retrieve into S unique (r.Y, r.X) sort by r.Y` from §5.2.1 step 1.
  ASSERT_OK_AND_ASSIGN(
      Relation s, SortedUniqueProject(Ships(), {"Class", "Id"}, {"Class"}));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(ColumnText(s, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201", "0201"}));
}

TEST(AlgebraTest, DistinctPreservesFirstOccurrence) {
  Relation dup = MakeRelation("R", Schema({{"x", ValueType::kInt, false}}),
                              {{"2"}, {"1"}, {"2"}, {"1"}});
  Relation out = Distinct(dup);
  EXPECT_EQ(ColumnText(out, "x"), (std::vector<std::string>{"2", "1"}));
}

TEST(AlgebraTest, CrossProductQualifiesColumns) {
  ASSERT_OK_AND_ASSIGN(Relation out, CrossProduct(Ships(), Classes()));
  EXPECT_EQ(out.size(), 12u);
  EXPECT_TRUE(out.schema().Contains("SHIP.Class"));
  EXPECT_TRUE(out.schema().Contains("CLS.Class"));
}

TEST(AlgebraTest, EquiJoinMatchesOnKeys) {
  ASSERT_OK_AND_ASSIGN(Relation out,
                       EquiJoin(Ships(), "Class", Classes(), "Class"));
  EXPECT_EQ(out.size(), 4u);
  ASSERT_OK_AND_ASSIGN(size_t type_idx, out.schema().IndexOf("CLS.Type"));
  EXPECT_EQ(out.row(0).at(type_idx), Value::String("SSBN"));
  EXPECT_EQ(out.row(3).at(type_idx), Value::String("SSN"));
}

TEST(AlgebraTest, EquiJoinDropsNullsAndNonMatches) {
  Relation left = MakeRelation("L", Schema({{"k", ValueType::kString, false}}),
                               {{"a"}, {""}, {"zz"}});
  Relation right = MakeRelation("R", Schema({{"k", ValueType::kString, false}}),
                                {{"a"}, {"b"}});
  ASSERT_OK_AND_ASSIGN(Relation out, EquiJoin(left, "k", right, "k"));
  EXPECT_EQ(out.size(), 1u);
}

TEST(AlgebraTest, EquiJoinMatchesMixedIntRealKeys) {
  // Keys equal under Value::Compare meet even when their text differs.
  Relation left = MakeRelation("L", Schema({{"a", ValueType::kInt, false}}),
                               {{"12345678901"}, {"7"}, {"3"}});
  Relation right = MakeRelation("R", Schema({{"b", ValueType::kReal, false}}),
                                {{"12345678901.0"}, {"7.0"}, {"4.5"}});
  ASSERT_OK_AND_ASSIGN(Relation out, EquiJoin(left, "a", right, "b"));
  EXPECT_EQ(ColumnText(out, "L.a"),
            (std::vector<std::string>{"12345678901", "7"}));
}

TEST(AlgebraTest, UnionDifferenceIntersect) {
  Relation a = MakeRelation("A", Schema({{"x", ValueType::kInt, false}}),
                            {{"1"}, {"2"}, {"2"}});
  Relation b = MakeRelation("B", Schema({{"y", ValueType::kInt, false}}),
                            {{"2"}, {"3"}});
  ASSERT_OK_AND_ASSIGN(Relation u, Union(a, b));
  EXPECT_EQ(ColumnText(u, "x"), (std::vector<std::string>{"1", "2", "3"}));
  ASSERT_OK_AND_ASSIGN(Relation d, Difference(a, b));
  EXPECT_EQ(ColumnText(d, "x"), (std::vector<std::string>{"1"}));
  ASSERT_OK_AND_ASSIGN(Relation i, Intersect(a, b));
  EXPECT_EQ(ColumnText(i, "x"), (std::vector<std::string>{"2"}));
}

TEST(AlgebraTest, SetOpsRequireCompatibleSchemas) {
  Relation a = MakeRelation("A", Schema({{"x", ValueType::kInt, false}}),
                            {{"1"}});
  Relation b = MakeRelation("B", Schema({{"y", ValueType::kString, false}}),
                            {{"1"}});
  EXPECT_EQ(Union(a, b).status().code(), StatusCode::kTypeError);
  Relation c = MakeRelation(
      "C", Schema({{"x", ValueType::kInt, false},
                   {"z", ValueType::kInt, false}}),
      {{"1", "2"}});
  EXPECT_EQ(Difference(a, c).status().code(), StatusCode::kTypeError);
}

TEST(AlgebraTest, Aggregates) {
  Relation ships = Ships();
  ASSERT_OK_AND_ASSIGN(Value min, AggregateMin(ships, "Displacement"));
  EXPECT_EQ(min, Value::Int(6000));
  ASSERT_OK_AND_ASSIGN(Value max, AggregateMax(ships, "Displacement"));
  EXPECT_EQ(max, Value::Int(16600));
  ASSERT_OK_AND_ASSIGN(int64_t count, AggregateCount(ships, "*"));
  EXPECT_EQ(count, 4);
}

TEST(AlgebraTest, AggregateCountSkipsNulls) {
  Relation rel = MakeRelation("R", Schema({{"x", ValueType::kInt, false}}),
                              {{"1"}, {""}, {"3"}});
  ASSERT_OK_AND_ASSIGN(int64_t count, AggregateCount(rel, "x"));
  EXPECT_EQ(count, 2);
}

TEST(AlgebraTest, GroupCountSortsByGroup) {
  ASSERT_OK_AND_ASSIGN(Relation out, GroupCount(Ships(), "Class"));
  EXPECT_EQ(ColumnText(out, "Class"),
            (std::vector<std::string>{"0101", "0102", "0201"}));
  EXPECT_EQ(ColumnText(out, "count"),
            (std::vector<std::string>{"1", "1", "2"}));
}

}  // namespace
}  // namespace iqs
