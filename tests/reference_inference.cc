#include "tests/reference_inference.h"

#include "common/string_util.h"
#include "rules/subsumption.h"

namespace iqs {
namespace testing_util {

namespace {

std::string VariableFor(const Clause& clause) {
  std::string qualifier = clause.Qualifier();
  return (!qualifier.empty() && qualifier.size() <= 2) ? qualifier : "x";
}

Fact TypeFactFor(const TypeHierarchy& hierarchy, std::string variable,
                 const std::string& type_name, std::vector<int> rule_ids,
                 Fact::Origin origin) {
  Fact f = Fact::Type(std::move(variable), type_name, std::move(rule_ids),
                      origin);
  auto root = hierarchy.RootOf(type_name);
  if (root.ok()) f.root_entity = *root;
  return f;
}

bool RhsImplies(const Rule& rule, const Fact& target,
                const TypeHierarchy& hierarchy) {
  if (target.kind == Fact::Kind::kType) {
    if (!rule.rhs.HasIsaReading()) return false;
    return hierarchy.IsAOrSubtypeOf(rule.rhs.isa_type, target.type_name);
  }
  if (!SameAttribute(rule.rhs.clause.attribute(), target.clause.attribute(),
                     AttributeMatch::kBaseName)) {
    return false;
  }
  return target.clause.interval().ContainsInterval(
      rule.rhs.clause.interval());
}

}  // namespace

std::vector<Fact> ReferenceInferenceEngine::SeedFacts(
    const QueryDescription& query) const {
  std::vector<Fact> facts;
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  for (const Clause& condition : query.conditions) {
    AddFact(&facts, Fact::Range(condition));
    auto type_name = hierarchy.FindByDerivation(condition);
    if (type_name.ok()) {
      AddFact(&facts, TypeFactFor(hierarchy, VariableFor(condition),
                                  *type_name, {}, Fact::Origin::kSeed));
    }
  }
  return facts;
}

bool ReferenceInferenceEngine::ExpandTypeFacts(std::vector<Fact>* facts) const {
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  bool changed = false;
  for (size_t i = 0; i < facts->size(); ++i) {
    if ((*facts)[i].kind != Fact::Kind::kType) continue;
    const std::string variable = (*facts)[i].variable;
    const std::string type_name = (*facts)[i].type_name;
    const std::vector<int> provenance = (*facts)[i].rule_ids;
    auto supers = hierarchy.SupertypesOf(type_name);
    if (supers.ok()) {
      for (const std::string& super : *supers) {
        changed |= AddFact(facts,
                           TypeFactFor(hierarchy, variable, super, provenance,
                                       Fact::Origin::kHierarchy));
      }
    }
    auto node = hierarchy.Get(type_name);
    if (node.ok() && (*node)->derivation.has_value()) {
      changed |= AddFact(facts, Fact::Range(*(*node)->derivation, provenance,
                                            Fact::Origin::kHierarchy));
    }
  }
  return changed;
}

Result<std::vector<Fact>> ReferenceInferenceEngine::Forward(
    const QueryDescription& query, const RuleSet& rules) const {
  std::vector<Fact> facts = SeedFacts(query);
  ExpandTypeFacts(&facts);
  const std::vector<AttributeDomain>& domains =
      dictionary_->active_domains();
  bool changed = true;
  int iterations = 0;
  while (changed) {
    if (++iterations > 64) {
      return Status::Internal("forward inference did not reach a fixpoint");
    }
    changed = false;
    // Every rule is matched against the range facts known at the start of
    // the pass, then every match fires in rule order.
    std::vector<Clause> known;
    for (const Fact& f : facts) {
      if (f.kind == Fact::Kind::kRange) known.push_back(f.clause);
    }
    std::vector<char> matched(rules.size(), 0);
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules.rule(i);
      matched[i] = !rule.lhs.empty() &&
                   LhsSubsumesConditions(rule, known, domains,
                                         AttributeMatch::kBaseName);
    }
    for (size_t i = 0; i < rules.size(); ++i) {
      if (!matched[i]) continue;
      const Rule& rule = rules.rule(i);
      if (!StartsWith(rule.rhs.clause.attribute(), "isa(")) {
        changed |= AddFact(&facts, Fact::Range(rule.rhs.clause, {rule.id},
                                               Fact::Origin::kRule));
      }
      if (rule.rhs.HasIsaReading()) {
        changed |= AddFact(
            &facts,
            TypeFactFor(dictionary_->catalog().hierarchy(),
                        rule.rhs.isa_variable, rule.rhs.isa_type, {rule.id},
                        Fact::Origin::kRule));
      }
    }
    changed |= ExpandTypeFacts(&facts);
  }
  return facts;
}

Result<std::vector<IntensionalStatement>> ReferenceInferenceEngine::Backward(
    const QueryDescription& query, const std::vector<Fact>& targets,
    const RuleSet& rules) const {
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  std::vector<Fact> seeds = SeedFacts(query);
  auto is_seed = [&seeds](const Fact& f) {
    for (const Fact& s : seeds) {
      if (s.SameContent(f)) return true;
    }
    return false;
  };
  bool single_condition = query.conditions.size() == 1;

  std::vector<IntensionalStatement> out;
  for (const Fact& target : targets) {
    for (const Rule& rule : rules.rules()) {
      if (rule.lhs.empty()) continue;
      if (!RhsImplies(rule, target, hierarchy)) continue;
      IntensionalStatement statement;
      statement.direction = AnswerDirection::kContainedIn;
      for (const Clause& c : rule.lhs) {
        statement.facts.push_back(Fact::Range(c, {rule.id}));
      }
      statement.rule_ids = {rule.id};
      statement.target = target;
      statement.exact = single_condition && is_seed(target);
      out.push_back(std::move(statement));
    }
  }
  return out;
}

Result<IntensionalAnswer> ReferenceInferenceEngine::InferWith(
    const QueryDescription& query, InferenceMode mode,
    const RuleSet& rules) const {
  IntensionalAnswer answer;
  std::vector<Fact> forward_facts;
  if (mode == InferenceMode::kForward || mode == InferenceMode::kCombined) {
    IQS_ASSIGN_OR_RETURN(forward_facts, Forward(query, rules));
    if (auto contradiction = engine_.DetectContradiction(forward_facts);
        contradiction.has_value()) {
      answer.set_empty_proof(std::move(*contradiction));
    }
    IntensionalStatement statement;
    statement.direction = AnswerDirection::kContains;
    for (const Fact& f : forward_facts) {
      if (f.rule_ids.empty() && f.kind == Fact::Kind::kRange) continue;
      statement.facts.push_back(f);
      for (int id : f.rule_ids) {
        bool seen = false;
        for (int existing : statement.rule_ids) {
          if (existing == id) {
            seen = true;
            break;
          }
        }
        if (!seen) statement.rule_ids.push_back(id);
      }
    }
    if (!statement.facts.empty()) answer.Add(std::move(statement));
  }
  if (mode == InferenceMode::kBackward || mode == InferenceMode::kCombined) {
    std::vector<Fact> targets;
    if (mode == InferenceMode::kBackward) {
      targets = SeedFacts(query);
    } else {
      for (const Fact& f : forward_facts) {
        if (f.origin != Fact::Origin::kHierarchy) targets.push_back(f);
      }
    }
    IQS_ASSIGN_OR_RETURN(std::vector<IntensionalStatement> statements,
                         Backward(query, targets, rules));
    // One statement per rule, first-seen position, preferring an exact
    // target, then a type-fact target.
    std::vector<IntensionalStatement> deduped;
    auto better_target = [](const IntensionalStatement& a,
                            const IntensionalStatement& b) {
      if (a.exact != b.exact) return a.exact;
      if (a.target.kind != b.target.kind) {
        return a.target.kind == Fact::Kind::kType;
      }
      return false;
    };
    for (IntensionalStatement& s : statements) {
      bool replaced = false;
      for (IntensionalStatement& existing : deduped) {
        if (existing.rule_ids == s.rule_ids) {
          if (better_target(s, existing)) existing = std::move(s);
          replaced = true;
          break;
        }
      }
      if (!replaced) deduped.push_back(std::move(s));
    }
    for (IntensionalStatement& s : deduped) {
      answer.Add(std::move(s));
    }
  }
  return answer;
}

}  // namespace testing_util
}  // namespace iqs
