#ifndef IQS_RULES_CLAUSE_H_
#define IQS_RULES_CLAUSE_H_

#include <string>
#include <string_view>

#include "rules/interval.h"

namespace iqs {

// A clause restricts one attribute to an interval; the paper (§5.2.2)
// writes it as the triple (lvalue, attribute, uvalue) meaning
// "lvalue <= attribute <= uvalue", with point clauses for equality.
//
// Attribute names are either relation-qualified ("CLASS.Displacement") or
// role-qualified for inter-object rules ("x.Class", "y.Sonar" — roles bind
// to entity types through the relationship, paper §6 rules R12–R17).
class Clause {
 public:
  Clause() = default;
  Clause(std::string attribute, Interval interval)
      : attribute_(std::move(attribute)), interval_(std::move(interval)) {}

  // Point clause: attribute = value.
  static Clause Equals(std::string attribute, Value value);
  // Range clause: lo <= attribute <= hi. Asserts lo <= hi.
  static Result<Clause> Range(std::string attribute, Value lo, Value hi);

  const std::string& attribute() const { return attribute_; }
  const Interval& interval() const { return interval_; }

  bool IsPoint() const { return interval_.IsPoint(); }

  bool Satisfies(const Value& v) const { return interval_.Contains(v); }

  // Unqualified attribute name ("Displacement" from "CLASS.Displacement").
  std::string BaseAttribute() const;
  // Qualifier ("CLASS" from "CLASS.Displacement", "" when unqualified).
  std::string Qualifier() const;

  // The paper's triple form: "(7250, Displacement, 30000)".
  std::string ToTripleString() const;
  // Condition form: "7250 <= Displacement <= 30000" or "Type = SSBN".
  std::string ToConditionString() const;

  friend bool operator==(const Clause& a, const Clause& b) {
    return a.attribute_ == b.attribute_ && a.interval_ == b.interval_;
  }

 private:
  std::string attribute_;
  Interval interval_;
};

// The lower-cased base name of an attribute ("displacement" from
// "CLASS.Displacement", "x.displacement" or "DISPLACEMENT"). Two attribute
// names match under AttributeMatch::kBaseName exactly when their keys are
// equal; RuleSet indexes its rules by these keys.
std::string AttributeKey(std::string_view attribute);

}  // namespace iqs

#endif  // IQS_RULES_CLAUSE_H_
