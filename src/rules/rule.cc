#include "rules/rule.h"

#include <algorithm>

#include "common/string_util.h"

namespace iqs {

namespace {

const std::vector<size_t>& Probe(
    const std::unordered_map<std::string, std::vector<size_t>>& index,
    const std::string& key) {
  static const std::vector<size_t> kNone;
  auto it = index.find(key);
  return it == index.end() ? kNone : it->second;
}

}  // namespace

std::string Consequent::ToString() const {
  if (HasIsaReading()) {
    return isa_variable + " isa " + isa_type;
  }
  return clause.ToConditionString();
}

std::string Rule::Body() const {
  std::string out = "if ";
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) out += " and ";
    out += lhs[i].ToConditionString();
  }
  out += " then ";
  out += rhs.ToString();
  return out;
}

std::string Rule::ToString() const {
  std::string out = "R" + std::to_string(id) + ": " + Body();
  out += "  [support " + std::to_string(support) + "]";
  return out;
}

void RuleSet::Add(Rule rule) {
  if (rule.id <= 0) {
    rule.id = next_id_;
  }
  next_id_ = std::max(next_id_, rule.id + 1);
  rules_.push_back(std::move(rule));
  IndexRule(rules_.size() - 1);
}

void RuleSet::AddAll(std::vector<Rule> rules) {
  for (Rule& r : rules) Add(std::move(r));
}

void RuleSet::IndexRule(size_t position) {
  const Rule& r = rules_[position];
  for (const Clause& c : r.lhs) {
    std::vector<size_t>& list = by_lhs_[AttributeKey(c.attribute())];
    // A rule with two clauses over one attribute is listed once.
    if (list.empty() || list.back() != position) list.push_back(position);
  }
  by_rhs_[AttributeKey(r.rhs.clause.attribute())].push_back(position);
  by_type_[ToLower(r.rhs.isa_type)].push_back(position);
}

const std::vector<size_t>& RuleSet::LhsPositions(const std::string& key) const {
  return Probe(by_lhs_, key);
}

const std::vector<size_t>& RuleSet::RhsPositions(const std::string& key) const {
  return Probe(by_rhs_, key);
}

const std::vector<size_t>& RuleSet::TypePositions(
    const std::string& type_key) const {
  return Probe(by_type_, type_key);
}

std::vector<const Rule*> RuleSet::WithRhsType(
    const std::string& type_name) const {
  std::vector<const Rule*> out;
  for (size_t p : TypePositions(ToLower(type_name))) out.push_back(&rules_[p]);
  return out;
}

std::vector<const Rule*> RuleSet::WithRhsAttribute(
    const std::string& attribute) const {
  // The index is keyed by base name; keep the full-name matches.
  std::vector<const Rule*> out;
  for (size_t p : RhsPositions(AttributeKey(attribute))) {
    if (EqualsIgnoreCase(rules_[p].rhs.clause.attribute(), attribute)) {
      out.push_back(&rules_[p]);
    }
  }
  return out;
}

std::vector<const Rule*> RuleSet::WithLhsAttribute(
    const std::string& attribute) const {
  std::vector<const Rule*> out;
  for (size_t p : LhsPositions(AttributeKey(attribute))) {
    for (const Clause& c : rules_[p].lhs) {
      if (EqualsIgnoreCase(c.attribute(), attribute)) {
        out.push_back(&rules_[p]);
        break;
      }
    }
  }
  return out;
}

size_t RuleSet::Prune(int64_t min_support) {
  size_t before = rules_.size();
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [min_support](const Rule& r) {
                                return r.support < min_support;
                              }),
               rules_.end());
  if (rules_.size() != before) {
    // Positions shifted: rebuild.
    by_lhs_.clear();
    by_rhs_.clear();
    by_type_.clear();
    for (size_t p = 0; p < rules_.size(); ++p) IndexRule(p);
  }
  return before - rules_.size();
}

void RuleSet::Renumber() {
  // The index holds positions, not ids, so it stays valid.
  int id = 1;
  for (Rule& r : rules_) r.id = id++;
  next_id_ = id;
}

std::string RuleSet::ToString() const {
  std::string out;
  for (const Rule& r : rules_) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace iqs
