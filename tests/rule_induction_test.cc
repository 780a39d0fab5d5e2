#include "induction/rule_induction.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::MakeRelation;
using testing_util::RuleBodies;

// A toy relation exercising every step of the §5.2.1 algorithm:
//   X:  1  2  3  4  5  6  7
//   Y:  a  a  b  a  a  a  mixed(c/d)
Relation ToyRelation() {
  return MakeRelation("TOY",
                      Schema({{"X", ValueType::kInt, false},
                              {"Y", ValueType::kString, false}}),
                      {{"1", "a"},
                       {"2", "a"},
                       {"3", "b"},
                       {"4", "a"},
                       {"5", "a"},
                       {"6", "a"},
                       {"7", "c"},
                       {"7", "d"}});  // X=7 is inconsistent
}

TEST(RuleInductionTest, RunsSplitAtValueChanges) {
  InductionConfig config;
  config.prune = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(ToyRelation(), "X", "Y", config));
  EXPECT_EQ(RuleBodies(rules),
            (std::vector<std::string>{
                "if 1 <= X <= 2 then Y = a",
                "if X = 3 then Y = b",
                "if 4 <= X <= 6 then Y = a",
            }));
}

TEST(RuleInductionTest, SupportCountsInstancesNotDistinctValues) {
  Relation rel = MakeRelation("R",
                              Schema({{"X", ValueType::kInt, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"1", "a"},
                               {"1", "a"},
                               {"1", "a"},
                               {"2", "a"}});
  InductionConfig config;
  config.prune = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].support, 4);
}

TEST(RuleInductionTest, PruningDropsLowSupportRuns) {
  InductionConfig config;
  config.min_support = 2;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(ToyRelation(), "X", "Y", config));
  // The singleton X=3 run (support 1) is pruned.
  EXPECT_EQ(RuleBodies(rules),
            (std::vector<std::string>{"if 1 <= X <= 2 then Y = a",
                                      "if 4 <= X <= 6 then Y = a"}));
}

TEST(RuleInductionTest, BoundaryAuditExactlyNcSupportSurvivesPruning) {
  // PR 4 boundary audit: the Nc threshold prunes runs supported by
  // FEWER than Nc instances — a run supported by exactly Nc must
  // survive (`support < Nc` prunes, never `support <= Nc`).
  //   X: 1 1 1 | 2 2 | 3        support per run: a=3, b=2, c=1
  Relation rel = MakeRelation("R",
                              Schema({{"X", ValueType::kInt, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"1", "a"},
                               {"1", "a"},
                               {"1", "a"},
                               {"2", "b"},
                               {"2", "b"},
                               {"3", "c"}});
  InductionConfig config;
  config.min_support = 2;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  // b's run has support exactly Nc=2: it must be kept; only c (1) goes.
  EXPECT_EQ(RuleBodies(rules),
            (std::vector<std::string>{"if X = 1 then Y = a",
                                      "if X = 2 then Y = b"}));

  config.min_support = 3;
  ASSERT_OK_AND_ASSIGN(rules, InduceScheme(rel, "X", "Y", config));
  // Now a's run sits exactly at Nc=3 and must still survive.
  EXPECT_EQ(RuleBodies(rules),
            (std::vector<std::string>{"if X = 1 then Y = a"}));
}

TEST(RuleInductionTest, BoundaryAuditInducedIntervalsIncludeBothEndpoints) {
  // PR 4 boundary audit (§5.2.1): an induced range rule must fire for
  // the endpoint values x1 and x2 themselves.
  InductionConfig config;
  config.prune = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(ToyRelation(), "X", "Y", config));
  ASSERT_FALSE(rules.empty());
  // "if 1 <= X <= 2 then Y = a": both 1 and 2 satisfy the LHS clause.
  ASSERT_EQ(rules[0].lhs.size(), 1u);
  const Clause& lhs = rules[0].lhs[0];
  EXPECT_TRUE(lhs.Satisfies(Value::Int(1)));
  EXPECT_TRUE(lhs.Satisfies(Value::Int(2)));
  EXPECT_FALSE(lhs.Satisfies(Value::Int(0)));
  EXPECT_FALSE(lhs.Satisfies(Value::Int(3)));
}

TEST(RuleInductionTest, StatsAreReported) {
  InductionConfig config;
  config.min_support = 2;
  InductionStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceSchemeRowsWithStats(ToyRelation(), "X", "Y",
                                                 config, &stats));
  EXPECT_EQ(stats.distinct_pairs, 8u);       // (7,c) and (7,d) both count
  EXPECT_EQ(stats.inconsistent_values, 1u);  // X = 7
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.pruned, 1u);
  EXPECT_EQ(rules.size(), 2u);
}

TEST(RuleInductionTest, InconsistentValueBreaksRunUnderDatabaseDomain) {
  // X=3 maps to both 'a' and 'b': removed, and it splits the 'a' run.
  Relation rel = MakeRelation("R",
                              Schema({{"X", ValueType::kInt, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"1", "a"},
                               {"2", "a"},
                               {"3", "a"},
                               {"3", "b"},
                               {"4", "a"},
                               {"5", "a"}});
  InductionConfig config;
  config.prune = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  EXPECT_EQ(RuleBodies(rules),
            (std::vector<std::string>{"if 1 <= X <= 2 then Y = a",
                                      "if 4 <= X <= 5 then Y = a"}));
}

TEST(RuleInductionTest, RemainingDomainPolicyMergesAcrossRemovedValues) {
  Relation rel = MakeRelation("R",
                              Schema({{"X", ValueType::kInt, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"1", "a"},
                               {"2", "a"},
                               {"3", "a"},
                               {"3", "b"},
                               {"4", "a"},
                               {"5", "a"}});
  InductionConfig config;
  config.prune = false;
  config.run_policy = RunPolicy::kRemainingDomain;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].Body(), "if 1 <= X <= 5 then Y = a");
  // Honest support: the X=3 instances with Y=b do NOT satisfy the rule.
  EXPECT_EQ(rules[0].support, 5);
}

TEST(RuleInductionTest, NullsDoNotParticipate) {
  Relation rel("R", Schema({{"X", ValueType::kInt, false},
                            {"Y", ValueType::kString, false}}));
  ASSERT_OK(rel.Insert(Tuple({Value::Int(1), Value::String("a")})));
  ASSERT_OK(rel.Insert(Tuple({Value::Null(), Value::String("a")})));
  ASSERT_OK(rel.Insert(Tuple({Value::Int(2), Value::Null()})));
  ASSERT_OK(rel.Insert(Tuple({Value::Int(3), Value::String("a")})));
  InductionConfig config;
  config.prune = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  // X=2 contributes no (X, Y) pair (its Y is null), so it never enters S
  // and the run [1..3] forms across it.
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].Body(), "if 1 <= X <= 3 then Y = a");
  EXPECT_EQ(rules[0].support, 2);  // the null-Y row does not satisfy RHS
}

TEST(RuleInductionTest, PointRuleFormat) {
  Relation rel = MakeRelation("R",
                              Schema({{"X", ValueType::kString, false},
                                      {"Y", ValueType::kString, false}}),
                              {{"k", "v"}});
  InductionConfig config;
  config.prune = false;
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].Body(), "if X = k then Y = v");
  EXPECT_EQ(rules[0].scheme, "X->Y");
  EXPECT_EQ(rules[0].source_relation, "R");
}

TEST(RuleInductionTest, UnknownAttributesFail) {
  EXPECT_FALSE(InduceScheme(ToyRelation(), "Nope", "Y", {}).ok());
  EXPECT_FALSE(InduceScheme(ToyRelation(), "X", "Nope", {}).ok());
}

TEST(RuleInductionTest, EmptyRelationYieldsNoRules) {
  Relation rel("E", Schema({{"X", ValueType::kInt, false},
                            {"Y", ValueType::kInt, false}}));
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", {}));
  EXPECT_TRUE(rules.empty());
}

// Soundness property (kDatabaseDomain): every induced rule is satisfied
// by every instance whose X falls in its range.
class InductionSoundness : public ::testing::TestWithParam<int64_t> {};

TEST_P(InductionSoundness, RulesHoldOnTrainingData) {
  Relation rel = ToyRelation();
  InductionConfig config;
  config.min_support = GetParam();
  ASSERT_OK_AND_ASSIGN(std::vector<Rule> rules,
                       InduceScheme(rel, "X", "Y", config));
  for (const Rule& rule : rules) {
    int64_t matching = 0;
    for (const Tuple& t : rel.rows()) {
      if (!rule.lhs[0].Satisfies(t.at(0))) continue;
      ++matching;
      EXPECT_TRUE(rule.rhs.clause.Satisfies(t.at(1)))
          << rule.Body() << " violated by " << t.ToString();
    }
    EXPECT_EQ(matching, rule.support) << rule.Body();
    EXPECT_GE(rule.support, config.min_support);
  }
}

INSTANTIATE_TEST_SUITE_P(NcSweep, InductionSoundness,
                         ::testing::Values(1, 2, 3, 4, 10));

}  // namespace
}  // namespace iqs
