#include "inference/intensional_answer.h"

namespace iqs {

const char* AnswerDirectionName(AnswerDirection direction) {
  switch (direction) {
    case AnswerDirection::kContains:
      return "contains";
    case AnswerDirection::kContainedIn:
      return "contained-in";
  }
  return "unknown";
}

std::string IntensionalStatement::ToString() const {
  std::string out =
      direction == AnswerDirection::kContains ? "answers ⊆ { " : "answers ⊇ { ";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out += " and ";
    out += facts[i].ContentString();  // provenance shown once, below
  }
  out += " }";
  if (!rule_ids.empty()) {
    out += "  (by ";
    for (size_t i = 0; i < rule_ids.size(); ++i) {
      if (i > 0) out += ", ";
      out += "R" + std::to_string(rule_ids[i]);
    }
    out += ")";
  }
  return out;
}

std::vector<const IntensionalStatement*> IntensionalAnswer::InDirection(
    AnswerDirection direction) const {
  std::vector<const IntensionalStatement*> out;
  for (const IntensionalStatement& s : statements_) {
    if (s.direction == direction) out.push_back(&s);
  }
  return out;
}

std::vector<std::string> IntensionalAnswer::ForwardTypes() const {
  std::vector<std::string> out;
  for (const IntensionalStatement& s : statements_) {
    if (s.direction != AnswerDirection::kContains) continue;
    for (const Fact& f : s.facts) {
      if (f.kind != Fact::Kind::kType) continue;
      bool seen = false;
      for (const std::string& existing : out) {
        if (existing == f.type_name) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(f.type_name);
    }
  }
  return out;
}

std::string IntensionalAnswer::ToString() const {
  std::string out;
  for (const IntensionalStatement& s : statements_) {
    out += s.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace iqs
