#include "inference/engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/subsumption.h"

namespace iqs {

const char* InferenceModeName(InferenceMode mode) {
  switch (mode) {
    case InferenceMode::kForward:
      return "forward";
    case InferenceMode::kBackward:
      return "backward";
    case InferenceMode::kCombined:
      return "combined";
  }
  return "unknown";
}

std::string QueryDescription::ToString() const {
  std::string out = "over {" + Join(object_types, ", ") + "} where ";
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i > 0) out += " and ";
    out += conditions[i].ToConditionString();
  }
  if (conditions.empty()) out += "true";
  return out;
}

namespace {

// Role variable for a fact derived from a clause: the qualifier when it
// looks like a role variable ("y.Sonar"), else the generic "x".
std::string VariableFor(const Clause& clause) {
  std::string qualifier = clause.Qualifier();
  return (!qualifier.empty() && qualifier.size() <= 2) ? qualifier : "x";
}

// A type fact with the role identified by its hierarchy root.
Fact TypeFactFor(const TypeHierarchy& hierarchy, std::string variable,
                 const std::string& type_name, std::vector<int> rule_ids,
                 Fact::Origin origin) {
  Fact f = Fact::Type(std::move(variable), type_name, std::move(rule_ids),
                      origin);
  auto root = hierarchy.RootOf(type_name);
  if (root.ok()) f.root_entity = *root;
  return f;
}

}  // namespace

std::vector<Fact> InferenceEngine::SeedFacts(
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

bool InferenceEngine::ExpandTypeFacts(std::vector<Fact>* facts,
                                      size_t from) const {
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  bool changed = false;
  // Iterate over indices: AddFact may grow the vector.
  for (size_t i = from; i < facts->size(); ++i) {
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

namespace {

// The range facts forward inference matches rule LHSs against, grouped by
// attribute key. Each is clipped to its attribute's active domain once,
// when it is added.
class KnownRanges {
 public:
  explicit KnownRanges(const std::vector<AttributeDomain>& domains)
      : domains_(domains) {}

  // Adds the range facts at index `from` and later, and appends the key of
  // each attribute that gained one to `gained` (once per key).
  void AddFrom(const std::vector<Fact>& facts, size_t from,
               std::vector<std::string>* gained) {
    for (size_t i = from; i < facts.size(); ++i) {
      if (facts[i].kind != Fact::Kind::kRange) continue;
      const Clause& clause = facts[i].clause;
      Interval interval = clause.interval();
      if (const AttributeDomain* domain =
              FindDomain(domains_, clause.attribute())) {
        interval = interval.ClipTo(domain->lo, domain->hi);
      }
      std::string key = AttributeKey(clause.attribute());
      if (std::find(gained->begin(), gained->end(), key) == gained->end()) {
        gained->push_back(key);
      }
      by_key_[std::move(key)].push_back(std::move(interval));
    }
  }

  // True when every LHS clause of `rule` contains some known interval over
  // the same attribute (LhsSubsumesConditions under kBaseName matching).
  bool Subsumes(const Rule& rule) const {
    for (const Clause& clause : rule.lhs) {
      auto it = by_key_.find(AttributeKey(clause.attribute()));
      if (it == by_key_.end()) return false;
      bool matched = false;
      for (const Interval& known : it->second) {
        if (clause.interval().ContainsInterval(known)) {
          matched = true;
          break;
        }
      }
      if (!matched) return false;
    }
    return true;
  }

 private:
  const std::vector<AttributeDomain>& domains_;
  std::unordered_map<std::string, std::vector<Interval>> by_key_;
};

}  // namespace

Result<std::vector<Fact>> InferenceEngine::Forward(
    const QueryDescription& query, const RuleSet& rules,
    std::vector<fault::DegradationEvent>* degradations) const {
  IQS_SPAN("infer.forward");
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  std::vector<Fact> facts = SeedFacts(query);
  ExpandTypeFacts(&facts, 0);
  KnownRanges known(dictionary_->active_domains());
  std::vector<std::string> gained;  // attribute keys that gained a fact
  known.AddFrom(facts, 0, &gained);

  // A fired rule is never tested again: its consequents are already
  // facts, so firing it again would add nothing.
  std::vector<char> fired(rules.size(), 0);
  std::vector<size_t> candidates;
  std::vector<size_t> retry;  // matched, but the firing faulted
  std::string pass_candidates;
  bool changed = true;
  int iterations = 0;
  uint64_t skipped_firings = 0;
  std::string skip_reason;
  while (changed) {
    if (++iterations > 64) {
      return Status::Internal("forward inference did not reach a fixpoint");
    }
    // One governance checkpoint per fixpoint pass; a cancelled inference
    // unwinds here and QueryProcessor degrades the answer to
    // extensional-only rather than failing the query.
    IQS_GOV_CHECKPOINT("infer.fire");
    changed = false;
    // Semi-naive step: only an unfired rule with an LHS attribute that
    // gained a fact last pass can have started to match (matching is
    // monotone in the known facts). Rules are tested and fired in rule
    // order, so facts land in the order a full re-match of every rule
    // would produce.
    candidates.swap(retry);
    retry.clear();
    for (const std::string& key : gained) {
      for (size_t p : rules.LhsPositions(key)) {
        if (!fired[p]) candidates.push_back(p);
      }
    }
    gained.clear();
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    IQS_COUNTER_ADD("infer.forward.candidates",
                    static_cast<int64_t>(candidates.size()));
    if (!pass_candidates.empty()) pass_candidates += ",";
    pass_candidates += std::to_string(candidates.size());
    // Facts fired in this pass join `known` only after it, so every
    // candidate is matched against the facts as of the start of the pass.
    const size_t first_new = facts.size();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((i & 63) == 0) IQS_GOV_CHECKPOINT("infer.match");
      const Rule& rule = rules.rule(candidates[i]);
      if (!known.Subsumes(rule)) continue;
      // Skip-and-log: a faulting rule firing is dropped and the rule stays
      // pending; the rest of the fixpoint continues.
      if (Status fp = fault::Hit("infer.match"); !fp.ok()) {
        ++skipped_firings;
        skip_reason = fp.message();
        retry.push_back(candidates[i]);
        IQS_COUNTER_INC("infer.forward.skipped_firings");
        continue;
      }
      fired[candidates[i]] = 1;
      IQS_COUNTER_INC("infer.forward.firings");
      // Modus ponens: the consequent holds of every answer tuple.
      if (!StartsWith(rule.rhs.clause.attribute(), "isa(")) {
        changed |= AddFact(&facts, Fact::Range(rule.rhs.clause, {rule.id},
                                               Fact::Origin::kRule));
      }
      if (rule.rhs.HasIsaReading()) {
        changed |= AddFact(
            &facts, TypeFactFor(hierarchy, rule.rhs.isa_variable,
                                rule.rhs.isa_type, {rule.id},
                                Fact::Origin::kRule));
      }
    }
    changed |= ExpandTypeFacts(&facts, first_new);
    known.AddFrom(facts, first_new, &gained);
  }
  IQS_COUNTER_ADD("infer.forward.iterations", iterations);
  IQS_SPAN_ANNOTATE("facts", static_cast<int64_t>(facts.size()));
  IQS_SPAN_ANNOTATE("iterations", static_cast<int64_t>(iterations));
  IQS_SPAN_ANNOTATE("candidates", pass_candidates);
  if (skipped_firings > 0) {
    fault::DegradationEvent event{
        "rule-match", fault::DegradeAction::kSkipRule,
        "skipped " + std::to_string(skipped_firings) + " rule firing" +
            (skipped_firings == 1 ? "" : "s") + ": " + skip_reason};
    fault::RecordDegradation(event);
    if (degradations != nullptr) degradations->push_back(std::move(event));
  }
  return facts;
}

Result<std::vector<InferenceEngine::BackwardMatch>>
InferenceEngine::MatchBackward(const QueryDescription& query,
                               const std::vector<Fact>& targets,
                               const RuleSet& rules) const {
  IQS_SPAN("infer.backward");
  const TypeHierarchy& hierarchy = dictionary_->catalog().hierarchy();
  // Facts read directly off the query (used to decide exactness).
  const std::vector<Fact> seeds = SeedFacts(query);
  // A backward statement is exact when its target covers the whole query
  // restriction: the target is a seed fact and the query has a single
  // restriction condition.
  const bool single_condition = query.conditions.size() == 1;

  std::vector<BackwardMatch> out;
  std::vector<size_t> candidates;
  for (size_t t = 0; t < targets.size(); ++t) {
    IQS_GOV_CHECKPOINT("infer.match");
    const Fact& target = targets[t];
    candidates.clear();
    if (target.kind == Fact::Kind::kType) {
      // A rule's isa reading implies the target when its type is the
      // target or a subtype of it. Role letters are context-local;
      // membership in the target's hierarchy identifies the role. A type
      // outside the hierarchy is implied by nothing.
      auto types = hierarchy.SubtypesOf(target.type_name);
      if (types.ok()) {
        types->push_back(target.type_name);
        for (const std::string& type : *types) {
          const std::vector<size_t>& ps = rules.TypePositions(ToLower(type));
          candidates.insert(candidates.end(), ps.begin(), ps.end());
        }
        std::sort(candidates.begin(), candidates.end());
      }
    } else {
      const std::vector<size_t>& ps =
          rules.RhsPositions(AttributeKey(target.clause.attribute()));
      candidates.assign(ps.begin(), ps.end());
    }
    IQS_COUNTER_ADD("infer.backward.candidates",
                    static_cast<int64_t>(candidates.size()));
    const bool exact =
        single_condition &&
        std::any_of(seeds.begin(), seeds.end(),
                    [&target](const Fact& s) { return s.SameContent(target); });
    for (size_t p : candidates) {
      const Rule& rule = rules.rule(p);
      if (rule.lhs.empty()) continue;
      if (target.kind == Fact::Kind::kRange &&
          !target.clause.interval().ContainsInterval(
              rule.rhs.clause.interval())) {
        continue;
      }
      out.push_back({t, p, exact});
      IQS_COUNTER_INC("infer.backward.firings");
    }
  }
  IQS_SPAN_ANNOTATE("statements", static_cast<int64_t>(out.size()));
  return out;
}

IntensionalStatement InferenceEngine::BackwardStatement(
    const BackwardMatch& match, const std::vector<Fact>& targets,
    const RuleSet& rules) {
  const Rule& rule = rules.rule(match.rule);
  IntensionalStatement statement;
  statement.direction = AnswerDirection::kContainedIn;
  for (const Clause& c : rule.lhs) {
    statement.facts.push_back(Fact::Range(c, {rule.id}));
  }
  statement.rule_ids = {rule.id};
  statement.target = targets[match.target];
  statement.exact = match.exact;
  return statement;
}

Result<std::vector<IntensionalStatement>> InferenceEngine::Backward(
    const QueryDescription& query, const std::vector<Fact>& targets,
    const RuleSet& rules) const {
  IQS_ASSIGN_OR_RETURN(std::vector<BackwardMatch> matches,
                       MatchBackward(query, targets, rules));
  std::vector<IntensionalStatement> out;
  out.reserve(matches.size());
  for (const BackwardMatch& m : matches) {
    out.push_back(BackwardStatement(m, targets, rules));
  }
  return out;
}

std::optional<std::string> InferenceEngine::DetectContradiction(
    const std::vector<Fact>& facts) const {
  for (size_t i = 0; i < facts.size(); ++i) {
    if (facts[i].kind != Fact::Kind::kRange) continue;
    for (size_t j = i + 1; j < facts.size(); ++j) {
      if (facts[j].kind != Fact::Kind::kRange) continue;
      const Clause& a = facts[i].clause;
      const Clause& b = facts[j].clause;
      if (!SameAttribute(a.attribute(), b.attribute(),
                         AttributeMatch::kBaseName)) {
        continue;
      }
      // Only comparable domains can conflict.
      bool comparable = true;
      for (const std::optional<Value>* bound :
           {&a.interval().lo(), &a.interval().hi()}) {
        if (!bound->has_value()) continue;
        for (const std::optional<Value>* other :
             {&b.interval().lo(), &b.interval().hi()}) {
          if (other->has_value() && !(*bound)->ComparableWith(**other)) {
            comparable = false;
          }
        }
      }
      if (!comparable) continue;
      if (!a.interval().Intersects(b.interval())) {
        return "facts '" + facts[i].ToString() + "' and '" +
               facts[j].ToString() +
               "' cannot hold together; the answer is provably empty";
      }
    }
  }
  return std::nullopt;
}

Result<IntensionalAnswer> InferenceEngine::Infer(
    const QueryDescription& query, InferenceMode mode,
    std::vector<fault::DegradationEvent>* degradations) const {
  // Hold a snapshot so a concurrent re-induction cannot swap the rule
  // base out from under the inference pass.
  std::shared_ptr<const RuleSet> rules = dictionary_->induced_rules_snapshot();
  return InferWith(query, mode, *rules, degradations);
}

Result<IntensionalAnswer> InferenceEngine::InferWith(
    const QueryDescription& query, InferenceMode mode, const RuleSet& rules,
    std::vector<fault::DegradationEvent>* degradations) const {
  IQS_SPAN("infer");
  IQS_FAILPOINT("infer.fire");
  IQS_SPAN_ANNOTATE("mode", std::string(InferenceModeName(mode)));
  IQS_COUNTER_INC("infer.count");
  auto start = std::chrono::steady_clock::now();
  IntensionalAnswer answer;
  std::vector<Fact> forward_facts;
  if (mode == InferenceMode::kForward || mode == InferenceMode::kCombined) {
    IQS_ASSIGN_OR_RETURN(forward_facts, Forward(query, rules, degradations));
    if (auto contradiction = DetectContradiction(forward_facts);
        contradiction.has_value()) {
      answer.set_empty_proof(std::move(*contradiction));
    }
    // Report only derived facts (with provenance) or seeded type facts —
    // echoing the query's own range conditions back is not informative.
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
      // Hierarchy-closure facts (e.g. "x isa SUBMARINE") hold of every
      // answer but are too weak to back-chain from: any rule about any
      // submarine would spuriously "characterize a subset".
      for (const Fact& f : forward_facts) {
        if (f.origin != Fact::Origin::kHierarchy) targets.push_back(f);
      }
    }
    IQS_ASSIGN_OR_RETURN(std::vector<BackwardMatch> matches,
                         MatchBackward(query, targets, rules));
    // The same rule often matches several targets (a type fact and its
    // derivation range fact); keep one statement per rule id, at the
    // position of its first match, preferring an exact target, then a
    // type-fact target (more informative than the equivalent range fact).
    auto better_target = [&targets](const BackwardMatch& a,
                                    const BackwardMatch& b) {
      if (a.exact != b.exact) return a.exact;
      const Fact::Kind ka = targets[a.target].kind;
      const Fact::Kind kb = targets[b.target].kind;
      if (ka != kb) return ka == Fact::Kind::kType;
      return false;
    };
    std::vector<BackwardMatch> kept;
    std::unordered_map<int, size_t> slot_of_rule;
    slot_of_rule.reserve(matches.size());
    for (const BackwardMatch& m : matches) {
      auto [slot, fresh] =
          slot_of_rule.try_emplace(rules.rule(m.rule).id, kept.size());
      if (fresh) {
        kept.push_back(m);
        continue;
      }
      IQS_COUNTER_INC("infer.backward.subsumption_eliminated");
      if (better_target(m, kept[slot->second])) kept[slot->second] = m;
    }
    for (const BackwardMatch& m : kept) {
      answer.Add(BackwardStatement(m, targets, rules));
    }
  }
  if (answer.empty_proof().has_value()) {
    IQS_COUNTER_INC("infer.contradictions");
  }
  IQS_HISTOGRAM_OBSERVE(
      "infer.micros",
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return answer;
}

}  // namespace iqs
