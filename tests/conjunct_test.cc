// Unit coverage for the one reading of a statement's WHERE clause
// (sql/conjunct.h): FROM-scope resolution, conjunct classification, and
// the classification-to-conditions step that feeds the batch scan its
// typed prefix. Labeled "sql".

#include "sql/conjunct.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sql/sql_parser.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::MakeRelation;

// R has typed columns; M's X column holds a string in an INT slot, so
// its snapshot column is demoted to kMixed.
std::unique_ptr<Database> ScanDatabase() {
  auto db = std::make_unique<Database>();
  EXPECT_OK(db->AddRelation(MakeRelation(
      "R",
      Schema({{"K", ValueType::kInt, false},
              {"S", ValueType::kString, false},
              {"D", ValueType::kReal, false}}),
      {{"1", "alpha", "1.5"}, {"2", "", "-0.25"}, {"3", "beta", "2.0"}})));
  Relation mixed("M", Schema({{"X", ValueType::kInt, false}}));
  mixed.AppendUnchecked(Tuple({Value::String("oops")}));
  EXPECT_OK(db->AddRelation(std::move(mixed)));
  return db;
}

// What ScanConditions makes of a one-table statement's WHERE.
struct ScanSplit {
  std::vector<ColumnCondition> conditions;
  size_t prefix = 0;     // conjuncts taken as typed conditions
  size_t conjuncts = 0;  // top-level conjuncts in all
};

ScanSplit SplitWhere(const Database& db, const std::string& sql) {
  ScanSplit out;
  Result<SelectStatement> stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
  if (!stmt.ok()) return out;
  Result<FromScope> scope = FromScope::Build(db, stmt->from);
  EXPECT_TRUE(scope.ok()) << sql << ": " << scope.status();
  if (!scope.ok()) return out;
  std::vector<ClassifiedConjunct> conjuncts;
  for (const SqlExpr* conjunct : TopLevelConjuncts(stmt->where.get())) {
    conjuncts.push_back(ClassifyConjunct(*scope, *conjunct));
  }
  auto snapshot = db.ColumnarSnapshot(stmt->from[0].name);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  if (!snapshot.ok()) return out;
  out.prefix = ScanConditions(conjuncts, **snapshot, &out.conditions);
  out.conjuncts = conjuncts.size();
  return out;
}

TEST(ExtractColumnConditionsTest, TakesTheAndPrefixLeavesTheResidual) {
  auto db = ScanDatabase();
  // The OR stops the prefix; it and everything after it stay residual.
  ScanSplit split = SplitWhere(
      *db, "SELECT K FROM R WHERE K > 1 AND S = 'beta' AND (K < 4 OR K = 4)");
  ASSERT_EQ(split.conditions.size(), 2u);
  EXPECT_EQ(split.conditions[0].column, 0u);
  EXPECT_EQ(split.conditions[0].op, CompareOp::kGt);
  EXPECT_EQ(split.conditions[0].constant, Value::Int(1));
  EXPECT_FALSE(split.conditions[0].constant_first);
  EXPECT_EQ(split.conditions[1].column, 1u);
  EXPECT_EQ(split.prefix, 2u);
  EXPECT_EQ(split.conjuncts, 3u);
  // A BETWEEN is two conditions, `>= low` and `<= high`.
  split = SplitWhere(*db, "SELECT K FROM R WHERE K BETWEEN 2 AND 3");
  ASSERT_EQ(split.conditions.size(), 2u);
  EXPECT_EQ(split.conditions[0].op, CompareOp::kGe);
  EXPECT_EQ(split.conditions[0].constant, Value::Int(2));
  EXPECT_EQ(split.conditions[1].op, CompareOp::kLe);
  EXPECT_EQ(split.conditions[1].constant, Value::Int(3));
  EXPECT_EQ(split.prefix, split.conjuncts);
}

TEST(ExtractColumnConditionsTest, MirrorsLiteralOnTheLeft) {
  auto db = ScanDatabase();
  // 2 < K is K > 2 with the orientation remembered for error text.
  ScanSplit split = SplitWhere(*db, "SELECT K FROM R WHERE 2 < K");
  ASSERT_EQ(split.conditions.size(), 1u);
  EXPECT_EQ(split.conditions[0].op, CompareOp::kGt);
  EXPECT_TRUE(split.conditions[0].constant_first);
  EXPECT_EQ(split.prefix, split.conjuncts);  // no residual
}

TEST(ExtractColumnConditionsTest, DeclinesMixedColumnsAndBadIndexes) {
  auto db = ScanDatabase();
  ScanSplit split = SplitWhere(*db, "SELECT X FROM M WHERE X = 1");
  EXPECT_TRUE(split.conditions.empty());
  EXPECT_EQ(split.prefix, 0u);
  EXPECT_EQ(split.conjuncts, 1u);
  // An unresolvable column is no restriction; binding reports it.
  split = SplitWhere(*db, "SELECT K FROM R WHERE Ghost = 1 AND K = 1");
  EXPECT_TRUE(split.conditions.empty());
  EXPECT_EQ(split.prefix, 0u);
}

TEST(FromScopeTest, ResolvesLikeTheBinderAndFailsLikeTheExecutor) {
  auto db = testing_util::ShipDatabaseOrFail();
  ASSERT_NE(db, nullptr);
  ASSERT_OK_AND_ASSIGN(SelectStatement stmt,
                       ParseSelect("SELECT Id FROM SUBMARINE s, CLASS"));
  ASSERT_OK_AND_ASSIGN(FromScope scope, FromScope::Build(*db, stmt.from));
  ASSERT_EQ(scope.entries().size(), 2u);
  EXPECT_EQ(scope.qualified().attribute(0).name, "s.Id");
  ASSERT_OK_AND_ASSIGN(ColumnSite displacement,
                       scope.Resolve(ColumnRef{"", "Displacement"}));
  EXPECT_EQ(displacement.table, 1u);
  EXPECT_EQ(scope.Attribute(displacement).name, "Displacement");
  // The alias wins: the base name of an aliased entry does not qualify.
  EXPECT_EQ(scope.Resolve(ColumnRef{"SUBMARINE", "Id"}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(scope.Resolve(ColumnRef{"", "Class"}).status().ToString(),
            "InvalidArgument: column 'Class' is ambiguous");
  EXPECT_EQ(scope.Resolve(ColumnRef{"", "Ghost"}).status().ToString(),
            "NotFound: no column named 'Ghost'");
  // A repeated effective name fails the build, as the executor does.
  ASSERT_OK_AND_ASSIGN(SelectStatement twice,
                       ParseSelect("SELECT Id FROM TYPE t, SONAR t"));
  EXPECT_EQ(FromScope::Build(*db, twice.from).status().ToString(),
            "InvalidArgument: duplicate table name/alias 't' in FROM");
}

TEST(ClassifyConjunctTest, RecordsRestrictionsAndJoinPairs) {
  auto db = testing_util::ShipDatabaseOrFail();
  ASSERT_NE(db, nullptr);
  ASSERT_OK_AND_ASSIGN(
      SelectStatement stmt,
      ParseSelect("SELECT Id FROM SUBMARINE s, CLASS c "
                  "WHERE s.Class = c.Class AND 8000 < c.Displacement "
                  "AND c.Displacement BETWEEN 9000 AND 100"));
  ASSERT_OK_AND_ASSIGN(FromScope scope, FromScope::Build(*db, stmt.from));
  std::vector<const SqlExpr*> where = TopLevelConjuncts(stmt.where.get());
  ASSERT_EQ(where.size(), 3u);
  ClassifiedConjunct join = ClassifyConjunct(scope, *where[0]);
  EXPECT_TRUE(join.safe);
  EXPECT_FALSE(join.restriction);
  ASSERT_TRUE(join.join.has_value());
  EXPECT_EQ(join.join->first.table, 0u);
  EXPECT_EQ(join.join->second.table, 1u);
  ClassifiedConjunct mirrored = ClassifyConjunct(scope, *where[1]);
  EXPECT_TRUE(mirrored.recognized);
  EXPECT_EQ(mirrored.site.table, 1u);
  EXPECT_EQ(mirrored.op, CompareOp::kGt);
  EXPECT_TRUE(mirrored.constant_first);
  EXPECT_EQ(mirrored.attribute, "Displacement");
  // An inverted BETWEEN is a restriction that admits no interval.
  ClassifiedConjunct inverted = ClassifyConjunct(scope, *where[2]);
  EXPECT_TRUE(inverted.safe);
  EXPECT_TRUE(inverted.restriction);
  EXPECT_FALSE(inverted.recognized);
  EXPECT_EQ(inverted.low, Value::Int(9000));
  EXPECT_EQ(inverted.high, Value::Int(100));
}

}  // namespace
}  // namespace iqs
