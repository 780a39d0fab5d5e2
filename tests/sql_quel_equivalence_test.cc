// Cross-validation of the two query front ends: the same
// selection/join/projection expressed in SQL and in QUEL must return
// the same multiset of tuples. Since the executors share nothing above
// the relational layer, agreement is strong evidence both are right.

#include <algorithm>
#include <ostream>

#include "gtest/gtest.h"
#include "quel/quel_session.h"
#include "sql/sql_executor.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

struct EquivalenceCase {
  const char* label;
  const char* sql;
  const char* quel;  // script; the last retrieve is the result
};

// Names each case by its label. Without this gtest prints the raw
// struct bytes, pointers included, and the ctest names registered by
// gtest_discover_tests change from build to build.
void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.label; }

class SqlQuelEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  static std::vector<std::string> SortedRows(const Relation& rel) {
    std::vector<std::string> out;
    out.reserve(rel.size());
    for (const Tuple& t : rel.rows()) out.push_back(t.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_P(SqlQuelEquivalence, SameRows) {
  const EquivalenceCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  SqlExecutor sql(db.get());
  ASSERT_OK_AND_ASSIGN(Relation sql_result, sql.ExecuteSql(c.sql));
  QuelSession quel(db.get());
  ASSERT_OK_AND_ASSIGN(auto quel_result, quel.ExecuteScript(c.quel));
  EXPECT_EQ(SortedRows(sql_result), SortedRows(quel_result.relation))
      << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, SqlQuelEquivalence,
    ::testing::Values(
        EquivalenceCase{
            "projection",
            "SELECT Id, Class FROM SUBMARINE",
            "range of r is SUBMARINE\nretrieve (r.Id, r.Class)"},
        EquivalenceCase{
            "selection",
            "SELECT Id FROM SUBMARINE WHERE Class = '0204'",
            "range of r is SUBMARINE\n"
            "retrieve (r.Id) where r.Class = \"0204\""},
        EquivalenceCase{
            "range-selection",
            "SELECT Class FROM CLASS WHERE Displacement >= 7250 AND "
            "Displacement <= 30000",
            "range of c is CLASS\nretrieve (c.Class) where c.Displacement "
            ">= 7250 and c.Displacement <= 30000"},
        EquivalenceCase{
            "two-way join",
            "SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS WHERE "
            "SUBMARINE.Class = CLASS.Class AND CLASS.Displacement > 8000",
            "range of s is SUBMARINE\nrange of c is CLASS\n"
            "retrieve (s.Name, c.Type) where s.Class = c.Class and "
            "c.Displacement > 8000"},
        EquivalenceCase{
            "three-way join",
            "SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS, "
            "INSTALL WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = "
            "INSTALL.SHIP AND INSTALL.SONAR = 'BQS-04'",
            "range of s is SUBMARINE\nrange of c is CLASS\n"
            "range of i is INSTALL\n"
            "retrieve (s.Name, c.Type) where s.Class = c.Class and s.Id = "
            "i.Ship and i.Sonar = \"BQS-04\""},
        EquivalenceCase{
            "distinct",
            "SELECT DISTINCT Class FROM SUBMARINE",
            "range of r is SUBMARINE\nretrieve unique (r.Class)"},
        EquivalenceCase{
            "disjunction",
            "SELECT Class FROM CLASS WHERE Type = 'SSBN' OR Displacement < "
            "3000",
            "range of c is CLASS\nretrieve (c.Class) where c.Type = "
            "\"SSBN\" or c.Displacement < 3000"},
        EquivalenceCase{
            "negation",
            "SELECT Sonar FROM SONAR WHERE NOT SonarType = 'BQQ'",
            "range of s is SONAR\nretrieve (s.Sonar) where not s.SonarType "
            "= \"BQQ\""},
        EquivalenceCase{
            "numeric literal against char column",
            "SELECT Id FROM SUBMARINE WHERE Class = 0204",
            "range of r is SUBMARINE\nretrieve (r.Id) where r.Class = "
            "0204"},
        EquivalenceCase{
            "self join",
            "SELECT b.Id FROM SUBMARINE a, SUBMARINE b WHERE a.Class = "
            "b.Class AND a.Id = 'SSN671'",
            "range of a is SUBMARINE\nrange of b is SUBMARINE\n"
            "retrieve (b.Id) where a.Class = b.Class and a.Id = "
            "\"SSN671\""}));

}  // namespace
}  // namespace iqs
