// Equivalence of the QUEL-driven reference induction (the paper's
// literal §5.2.1 statements) with the optimized native InduceScheme.

#include "induction/quel_induction.h"

#include <ostream>

#include "gtest/gtest.h"
#include "induction/rule_induction.h"
#include "testbed/fleet_generator.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

void ExpectSameRules(const std::vector<Rule>& a, const std::vector<Rule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Body(), b[i].Body()) << i;
    EXPECT_EQ(a[i].support, b[i].support) << a[i].Body();
  }
}

struct SchemeCase {
  const char* relation;
  const char* x;
  const char* y;
  int64_t nc;
};

// Names each case by its scheme and support threshold, e.g.
// "SUBMARINE Id-Class Nc3", so the registered ctest names are stable
// across builds rather than raw struct bytes with pointer values.
void PrintTo(const SchemeCase& c, std::ostream* os) {
  *os << c.relation << " " << c.x << "-" << c.y << " Nc" << c.nc;
}

class QuelEquivalence : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(QuelEquivalence, MatchesNativeInduction) {
  const SchemeCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  ASSERT_OK_AND_ASSIGN(const Relation* rel, db->Get(c.relation));
  InductionConfig config;
  config.min_support = c.nc;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> native,
                       InduceScheme(*rel, c.x, c.y, config));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Rule> via_quel,
      InduceSchemeViaQuel(db.get(), c.relation, c.x, c.y, config));
  ExpectSameRules(native, via_quel);
  // Temporaries cleaned up.
  EXPECT_FALSE(db->Contains("IQS_TMP_S"));
  EXPECT_FALSE(db->Contains("IQS_TMP_T"));
}

INSTANTIATE_TEST_SUITE_P(
    ShipSchemes, QuelEquivalence,
    ::testing::Values(SchemeCase{"SUBMARINE", "Id", "Class", 3},
                      SchemeCase{"SUBMARINE", "Id", "Class", 1},
                      SchemeCase{"SUBMARINE", "Name", "Class", 1},
                      SchemeCase{"CLASS", "Class", "Type", 3},
                      SchemeCase{"CLASS", "ClassName", "Type", 3},
                      SchemeCase{"CLASS", "Displacement", "Type", 3},
                      SchemeCase{"SONAR", "Sonar", "SonarType", 3},
                      SchemeCase{"SONAR", "Sonar", "SonarType", 1},
                      SchemeCase{"INSTALL", "Ship", "Sonar", 1}));

TEST(QuelInductionTest, EquivalentOnSyntheticFleet) {
  ASSERT_OK_AND_ASSIGN(auto db, GenerateFleet(15, 3));
  ASSERT_OK_AND_ASSIGN(const Relation* ships, db->Get("BATTLESHIP"));
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> native,
                       InduceScheme(*ships, "Displacement", "Type", config));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Rule> via_quel,
      InduceSchemeViaQuel(db.get(), "BATTLESHIP", "Displacement", "Type",
                          config));
  ExpectSameRules(native, via_quel);
}

TEST(QuelInductionTest, InputValidation) {
  ASSERT_OK_AND_ASSIGN(auto db, BuildShipDatabase());
  InductionConfig config;
  EXPECT_FALSE(
      InduceSchemeViaQuel(db.get(), "NOPE", "X", "Y", config).ok());
  EXPECT_FALSE(
      InduceSchemeViaQuel(db.get(), "CLASS", "Class", "Class", config).ok());
  EXPECT_FALSE(
      InduceSchemeViaQuel(db.get(), "CLASS", "Nope", "Type", config).ok());
  config.run_policy = RunPolicy::kRemainingDomain;
  EXPECT_FALSE(
      InduceSchemeViaQuel(db.get(), "CLASS", "Class", "Type", config).ok());
}

}  // namespace
}  // namespace iqs
