// Differential battery for the indexed, semi-naive inference engine: every
// answer, forward fact order, backward statement order, statement target,
// exactness flag and empty-result proof must match the naive reference
// evaluator (tests/reference_inference.*) byte for byte, over the
// Appendix C testbed, generated fleets, and a hostile hand-written rule
// set.

#include <algorithm>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/system.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "induction/induction_config.h"
#include "inference/engine.h"
#include "testbed/fleet_generator.h"
#include "tests/reference_inference.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::ReferenceInferenceEngine;

constexpr InferenceMode kModes[] = {InferenceMode::kForward,
                                    InferenceMode::kBackward,
                                    InferenceMode::kCombined};

std::string RenderFact(const Fact& f) {
  return f.ToString() + "  {kind " + std::to_string(static_cast<int>(f.kind)) +
         ", origin " + std::to_string(static_cast<int>(f.origin)) +
         ", root " + f.root_entity + "}";
}

std::string RenderFacts(const std::vector<Fact>& facts) {
  std::string out;
  for (const Fact& f : facts) out += RenderFact(f) + "\n";
  return out;
}

// Every statement with its facts (provenance included), target and
// exactness, after the answer's own rendering.
std::string RenderStatements(const std::vector<IntensionalStatement>& all) {
  std::string out;
  for (const IntensionalStatement& s : all) {
    out += s.ToString() + "\n";
    out += std::string("  direction ") + AnswerDirectionName(s.direction) +
           ", exact " + (s.exact ? "yes" : "no") + "\n";
    if (s.direction == AnswerDirection::kContainedIn) {
      out += "  target " + RenderFact(s.target) + "\n";
    }
    for (const Fact& f : s.facts) out += "  fact " + RenderFact(f) + "\n";
  }
  return out;
}

std::string RenderAnswer(const IntensionalAnswer& answer) {
  return answer.ToString() + "empty proof: " +
         answer.empty_proof().value_or("none") + "\n" +
         RenderStatements(answer.statements());
}

// Runs the indexed engine and the reference on `query` in every mode, plus
// Forward and the raw (undeduplicated) Backward over the forward facts,
// and expects identical renderings. Returns how many checks produced a
// nonempty answer, so callers can assert the cases exercise something.
int ExpectSameInference(const DataDictionary& dictionary,
                        const QueryDescription& query, const RuleSet& rules,
                        const std::string& label) {
  SCOPED_TRACE(label + ": " + query.ToString());
  InferenceEngine engine(&dictionary);
  ReferenceInferenceEngine reference(&dictionary);
  int nonempty = 0;

  auto facts = engine.Forward(query, rules);
  auto expected_facts = reference.Forward(query, rules);
  EXPECT_EQ(facts.ok(), expected_facts.ok());
  if (facts.ok() && expected_facts.ok()) {
    EXPECT_EQ(RenderFacts(*facts), RenderFacts(*expected_facts));
    auto statements = engine.Backward(query, *expected_facts, rules);
    auto expected_statements =
        reference.Backward(query, *expected_facts, rules);
    EXPECT_TRUE(statements.ok() && expected_statements.ok());
    if (statements.ok() && expected_statements.ok()) {
      EXPECT_EQ(RenderStatements(*statements),
                RenderStatements(*expected_statements));
    }
  }

  for (InferenceMode mode : kModes) {
    SCOPED_TRACE(InferenceModeName(mode));
    auto answer = engine.InferWith(query, mode, rules);
    auto expected = reference.InferWith(query, mode, rules);
    EXPECT_EQ(answer.ok(), expected.ok());
    if (!answer.ok() || !expected.ok()) continue;
    EXPECT_EQ(RenderAnswer(*answer), RenderAnswer(*expected));
    if (!expected->empty()) ++nonempty;
  }
  return nonempty;
}

// The description the query processor hands to inference for `sql`.
QueryDescription Describe(const IqsSystem& system, const std::string& sql) {
  QueryOptions options;
  options.use_cache = false;
  auto result = system.Query(sql, options);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
  return result.ok() ? result->description : QueryDescription{};
}

std::unique_ptr<IqsSystem> InducedSystem(std::unique_ptr<IqsSystem> system) {
  if (system == nullptr) return nullptr;
  InductionConfig config;
  config.min_support = 3;
  Status induced = system->Induce(config);
  EXPECT_TRUE(induced.ok()) << induced;
  return induced.ok() ? std::move(system) : nullptr;
}

// ---- Appendix C -----------------------------------------------------------

TEST(InferenceDifferentialTest, AppendixCExamplesAndGoldenQueries) {
  auto ship = InducedSystem(testing_util::ShipSystemOrFail());
  ASSERT_NE(ship, nullptr);
  const std::vector<std::string> ship_queries = {
      Example1Sql(),
      Example2Sql(),
      Example3Sql(),
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT ClassName, Type FROM CLASS WHERE Displacement >= 7250",
      "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type",
      "SELECT Sonar FROM SONAR WHERE SONAR.SonarType = 'BQQ'",
      "SELECT ClassName FROM CLASS WHERE Displacement > 90000",
      "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN 2000 AND 3000",
  };
  std::shared_ptr<const RuleSet> induced =
      ship->dictionary().induced_rules_snapshot();
  RuleSet all = ship->dictionary().AllRules();
  int nonempty = 0;
  for (const std::string& sql : ship_queries) {
    QueryDescription query = Describe(*ship, sql);
    nonempty += ExpectSameInference(ship->dictionary(), query, *induced,
                                    "ship induced");
    ExpectSameInference(ship->dictionary(), query, all, "ship all rules");
  }
  EXPECT_GT(nonempty, 10);

  auto employee = InducedSystem(testing_util::EmployeeSystemOrFail());
  ASSERT_NE(employee, nullptr);
  for (const char* sql :
       {"SELECT Name FROM EMPLOYEE WHERE Salary > 100000",
        "SELECT Name, Position FROM EMPLOYEE WHERE Age >= 40",
        "SELECT Position, COUNT(*) FROM EMPLOYEE GROUP BY Position "
        "ORDER BY Position"}) {
    ExpectSameInference(employee->dictionary(), Describe(*employee, sql),
                        *employee->dictionary().induced_rules_snapshot(),
                        "employee");
  }
}

// ---- generated fleets -----------------------------------------------------

// A few literals of each of the six fleet query shapes: point, narrow,
// range, empty, join and group-by.
std::vector<std::string> FleetQueries(const IqsSystem& system) {
  std::vector<std::string> out;
  auto ships = system.database().Get("BATTLESHIP");
  EXPECT_TRUE(ships.ok());
  if (ships.ok() && (*ships)->size() > 0) {
    const Relation& rel = **ships;
    for (size_t row : {size_t{0}, rel.size() / 2, rel.size() - 1}) {
      out.push_back(
          "SELECT Id, Name, Type, Displacement FROM BATTLESHIP WHERE Id = '" +
          rel.row(row).at(0).AsString() + "'");
    }
  }
  const std::vector<FleetTypeSpec>& specs = Table1Specs();
  for (size_t i : {size_t{0}, size_t{5}, specs.size() - 1}) {
    out.push_back("SELECT Id, Name, Displacement FROM BATTLESHIP WHERE Type = '" +
                  std::string(specs[i].type) + "' AND Displacement >= " +
                  std::to_string(specs[i].displacement_lo / 2));
  }
  for (auto [lo, hi] : {std::pair{1720, 2500}, std::pair{8000, 10500},
                        std::pair{60000, 81600}}) {
    out.push_back(
        "SELECT Id, Type, Displacement FROM BATTLESHIP WHERE Displacement "
        "BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi));
    out.push_back(
        "SELECT BATTLESHIP.Id, SHIPTYPE.TypeName FROM BATTLESHIP, SHIPTYPE "
        "WHERE BATTLESHIP.Type = SHIPTYPE.Type AND BATTLESHIP.Displacement "
        "BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi + 5000));
  }
  for (int v : {81601, 90000, 9999999}) {
    out.push_back("SELECT Id, Name FROM BATTLESHIP WHERE Displacement > " +
                  std::to_string(v));
  }
  for (int v : {1720, 30000, 81600}) {
    out.push_back(
        "SELECT Type, COUNT(*) FROM BATTLESHIP WHERE Displacement <= " +
        std::to_string(v) + " GROUP BY Type ORDER BY Type");
  }
  return out;
}

void ExpectFleetMatches(size_t ships_per_type) {
  auto db = GenerateFleet(ships_per_type, 7);
  ASSERT_TRUE(db.ok()) << db.status();
  auto catalog = BuildFleetCatalog();
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  auto created =
      IqsSystem::Create(std::move(db).value(), std::move(catalog).value());
  ASSERT_TRUE(created.ok()) << created.status();
  auto system = InducedSystem(std::move(created).value());
  ASSERT_NE(system, nullptr);
  std::shared_ptr<const RuleSet> rules =
      system->dictionary().induced_rules_snapshot();
  ASSERT_GT(rules->size(), 20u);
  int nonempty = 0;
  for (const std::string& sql : FleetQueries(*system)) {
    nonempty += ExpectSameInference(system->dictionary(),
                                    Describe(*system, sql), *rules,
                                    "fleet " + std::to_string(ships_per_type));
  }
  EXPECT_GT(nonempty, 20);
}

TEST(InferenceDifferentialTest, Fleet20ShipsPerType) { ExpectFleetMatches(20); }

TEST(InferenceDifferentialTest, Fleet200ShipsPerType) {
  ExpectFleetMatches(200);
}

// ---- hostile rule set -------------------------------------------------------

Rule MakeRule(std::vector<Clause> lhs, Clause rhs, std::string isa_type = "",
              std::string isa_variable = "x", int id = 0) {
  Rule r;
  r.id = id;
  r.lhs = std::move(lhs);
  r.rhs.clause = std::move(rhs);
  r.rhs.isa_type = std::move(isa_type);
  r.rhs.isa_variable = std::move(isa_variable);
  r.support = 3;
  return r;
}

Clause Between(const std::string& attribute, Value lo, Value hi) {
  auto c = Clause::Range(attribute, std::move(lo), std::move(hi));
  EXPECT_TRUE(c.ok()) << c.status();
  return c.ok() ? *c : Clause();
}

// One attribute under qualified, unqualified, role and mixed-case
// spellings; INT and REAL bounds on it; open intervals; empty-LHS rules;
// multi-clause LHSs (two clauses on one attribute included); rules with
// and without an isa reading, over both ship hierarchies; a DDL-style
// "isa(x)" consequent; chains that need several fixpoint passes; and two
// rules sharing one explicit id.
RuleSet HostileRules() {
  RuleSet rules;
  rules.Add(MakeRule({Between("Displacement", Value::Int(7250),
                              Value::Int(30000))},
                     Clause::Equals("CLASS.Type", Value::String("SSBN")),
                     "SSBN"));
  rules.Add(MakeRule({Between("CLASS.DISPLACEMENT", Value::Real(2000.5),
                              Value::Int(7000))},
                     Clause::Equals("Type", Value::String("SSN")), "SSN"));
  rules.Add(MakeRule({Clause("x.displacement",
                             Interval::AtLeast(Value::Real(8000.0), true))},
                     Clause::Equals("x.Class", Value::String("0101")),
                     "C0101"));
  rules.Add(MakeRule({}, Clause::Equals("Type", Value::String("SSBN")),
                     "SSBN"));
  rules.Add(MakeRule({Clause::Equals("CLASS.Type", Value::String("SSBN")),
                      Clause("Displacement",
                             Interval::AtMost(Value::Int(20000)))},
                     Clause::Equals("CLASS.Class", Value::String("1301"))));
  rules.Add(MakeRule({Clause::Equals("class.class", Value::String("0101"))},
                     Clause::Equals("SUBMARINE.Name", Value::String("Ohio"))));
  rules.Add(MakeRule({Clause::Equals("Name", Value::String("Ohio"))},
                     Clause::Equals("y.SonarType", Value::String("BQQ")),
                     "BQQ", "y"));
  rules.Add(MakeRule({Clause::Equals("y.Sonar", Value::String("BQS-04"))},
                     Clause::Equals("SONAR.SonarType", Value::String("BQS")),
                     "BQS", "y"));
  rules.Add(MakeRule({Between("Displacement", Value::Int(5000),
                              Value::Int(40000)),
                      Clause("DISPLACEMENT",
                             Interval::AtMost(Value::Real(35000.0), true))},
                     Clause::Equals("isa(x)", Value::String("SUBMARINE")),
                     "SUBMARINE"));
  rules.Add(MakeRule({Clause::Equals("Type", Value::String("SSN"))},
                     Clause("CLASS.Displacement",
                            Interval::AtMost(Value::Int(7000), true))));
  rules.Add(MakeRule({Between("Displacement", Value::Real(7000.5),
                              Value::Real(30000.0))},
                     Clause::Equals("Type", Value::String("SSBN")), "SSBN",
                     "x", 50));
  rules.Add(MakeRule({Between("SUBMARINE.Class", Value::String("0101"),
                              Value::String("0103"))},
                     Clause::Equals("Class", Value::String("0102")), "C0102",
                     "x", 50));
  rules.Add(MakeRule({Clause::Equals("SonarType", Value::String("BQQ"))},
                     Clause::Equals("INSTALL.Sonar", Value::String("BQQ-5"))));
  rules.Add(MakeRule({Clause("Displacement",
                             Interval::AtLeast(Value::Int(90000)))},
                     Clause::Equals("Type", Value::String("SSN")), "SSN"));
  return rules;
}

std::vector<QueryDescription> HostileQueries() {
  auto q = [](std::vector<Clause> conditions,
              std::vector<std::string> types = {"SUBMARINE", "CLASS"}) {
    QueryDescription d;
    d.conditions = std::move(conditions);
    d.object_types = std::move(types);
    return d;
  };
  return {
      q({Clause("CLASS.Displacement",
                Interval::AtLeast(Value::Int(8000), true))}),
      q({Clause("Displacement", Interval::AtLeast(Value::Real(7250.0)))}),
      q({Between("class.DISPLACEMENT", Value::Int(2500), Value::Real(6999.5))}),
      q({Clause("x.Displacement", Interval::AtMost(Value::Int(3000), true))}),
      q({Clause::Equals("CLASS.Type", Value::String("SSBN"))}),
      q({Clause::Equals("Class", Value::String("0101"))}),
      q({Clause::Equals("SONAR.SonarType", Value::String("BQS"))},
        {"SONAR"}),
      q({Clause::Equals("y.Sonar", Value::String("BQS-04"))},
        {"INSTALL", "SONAR"}),
      q({Clause::Equals("CLASS.Type", Value::String("SSN")),
         Clause("CLASS.Displacement",
                Interval::AtLeast(Value::Int(8000), true))}),
      q({Clause("Displacement", Interval::AtLeast(Value::Int(90000), true))}),
      q({Clause::Equals("SUBMARINE.Name", Value::String("Ohio")),
         Between("Displacement", Value::Int(16000), Value::Int(19000))}),
      q({Clause::Equals("Unknown.Attribute", Value::Int(1))}),
      q({}),
  };
}

TEST(InferenceDifferentialTest, HostileRuleSet) {
  auto ship = InducedSystem(testing_util::ShipSystemOrFail());
  ASSERT_NE(ship, nullptr);
  const DataDictionary& dictionary = ship->dictionary();
  RuleSet hostile = HostileRules();
  // The hostile rules after the induced ones, with fresh ids.
  RuleSet mixed;
  for (const Rule& r : dictionary.induced_rules_snapshot()->rules()) {
    mixed.Add(r);
  }
  for (Rule r : hostile.rules()) {
    if (r.id != 50) r.id = 0;
    mixed.Add(std::move(r));
  }
  // Pruned and renumbered copies exercise the index rebuild.
  RuleSet pruned = mixed;
  pruned.Prune(4);
  pruned.Renumber();

  int nonempty = 0;
  for (const QueryDescription& query : HostileQueries()) {
    nonempty += ExpectSameInference(dictionary, query, hostile, "hostile");
    ExpectSameInference(dictionary, query, mixed, "mixed");
    ExpectSameInference(dictionary, query, pruned, "pruned");
  }
  EXPECT_GT(nonempty, 15);
}

// A firing skipped by the infer.match failpoint leaves its rule pending:
// the next pass retries it, so the fixpoint still reaches every fact.
TEST(InferenceDifferentialTest, SkippedFiringIsRetriedNextPass) {
  auto ship = InducedSystem(testing_util::ShipSystemOrFail());
  ASSERT_NE(ship, nullptr);
  InferenceEngine engine(&ship->dictionary());
  RuleSet rules = HostileRules();
  QueryDescription query;
  query.object_types = {"CLASS"};
  // Rules 1, 9 and 50 match in the first pass; rule 1 is tested first.
  query.conditions.push_back(
      Between("Displacement", Value::Int(8000), Value::Int(19000)));
  ASSERT_OK_AND_ASSIGN(std::vector<Fact> clean, engine.Forward(query, rules));

  fault::ScopedFailpoint fp("infer.match", "times(1):error(internal,blip)");
  ASSERT_TRUE(fp.ok());
  std::vector<fault::DegradationEvent> degradations;
  ASSERT_OK_AND_ASSIGN(std::vector<Fact> retried,
                       engine.Forward(query, rules, &degradations));
  ASSERT_EQ(degradations.size(), 1u);
  EXPECT_NE(degradations[0].reason.find("skipped 1 rule firing: blip"),
            std::string::npos)
      << degradations[0].reason;
  // The same facts, though the retried rule's land one pass later, so a
  // fact both rules conclude now cites rule 50.
  auto contents = [](const std::vector<Fact>& facts) {
    std::vector<std::string> out;
    for (const Fact& f : facts) out.push_back(f.ContentString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(contents(retried), contents(clean));
  EXPECT_NE(RenderFacts(retried), RenderFacts(clean));
  EXPECT_TRUE(std::any_of(retried.begin(), retried.end(), [](const Fact& f) {
    return f.rule_ids == std::vector<int>{1};
  }));
}

// The RuleSet index answers exactly what a linear scan over the rules
// would, through Add, Prune and Renumber.
TEST(InferenceDifferentialTest, RuleIndexAgreesWithLinearScan) {
  RuleSet rules = HostileRules();
  auto check = [](const RuleSet& set) {
    for (const char* key : {"displacement", "type", "class", "name", "sonar",
                            "sonartype", "isa(x)", "missing"}) {
      std::vector<size_t> lhs, rhs;
      for (size_t p = 0; p < set.size(); ++p) {
        for (const Clause& c : set.rule(p).lhs) {
          if (AttributeKey(c.attribute()) == key) {
            lhs.push_back(p);
            break;
          }
        }
        if (AttributeKey(set.rule(p).rhs.clause.attribute()) == key) {
          rhs.push_back(p);
        }
      }
      EXPECT_EQ(set.LhsPositions(key), lhs) << key;
      EXPECT_EQ(set.RhsPositions(key), rhs) << key;
    }
    for (const char* type : {"SSBN", "ssn", "C0101", "bqq", "BQS", "none"}) {
      std::vector<const Rule*> expected;
      for (const Rule& r : set.rules()) {
        if (ToLower(r.rhs.isa_type) == ToLower(type)) expected.push_back(&r);
      }
      EXPECT_EQ(set.WithRhsType(type), expected) << type;
    }
    for (const char* attribute : {"Displacement", "CLASS.Type", "class.class",
                                  "Type", "x.Class"}) {
      std::vector<const Rule*> lhs, rhs;
      for (const Rule& r : set.rules()) {
        for (const Clause& c : r.lhs) {
          if (EqualsIgnoreCase(c.attribute(), attribute)) {
            lhs.push_back(&r);
            break;
          }
        }
        if (EqualsIgnoreCase(r.rhs.clause.attribute(), attribute)) {
          rhs.push_back(&r);
        }
      }
      EXPECT_EQ(set.WithLhsAttribute(attribute), lhs) << attribute;
      EXPECT_EQ(set.WithRhsAttribute(attribute), rhs) << attribute;
    }
  };
  check(rules);
  // Support 3 everywhere: bump a few, then prune the rest away.
  RuleSet varied;
  for (size_t p = 0; p < rules.size(); ++p) {
    Rule r = rules.rule(p);
    r.support = p % 3 == 0 ? 10 : 3;
    varied.Add(std::move(r));
  }
  EXPECT_GT(varied.Prune(5), 0u);
  check(varied);
  varied.Renumber();
  check(varied);
  varied.Add(rules.rule(0));
  check(varied);
}

}  // namespace
}  // namespace iqs
