#include "rules/clause.h"

#include "common/string_util.h"

namespace iqs {

Clause Clause::Equals(std::string attribute, Value value) {
  return Clause(std::move(attribute), Interval::Point(std::move(value)));
}

Result<Clause> Clause::Range(std::string attribute, Value lo, Value hi) {
  IQS_ASSIGN_OR_RETURN(Interval interval,
                       Interval::Closed(std::move(lo), std::move(hi)));
  return Clause(std::move(attribute), std::move(interval));
}

std::string Clause::BaseAttribute() const {
  size_t pos = attribute_.rfind('.');
  if (pos == std::string::npos) return attribute_;
  return attribute_.substr(pos + 1);
}

std::string Clause::Qualifier() const {
  size_t pos = attribute_.rfind('.');
  if (pos == std::string::npos) return "";
  return attribute_.substr(0, pos);
}

std::string Clause::ToTripleString() const {
  std::string lo =
      interval_.lo().has_value() ? interval_.lo()->ToString() : "-inf";
  std::string hi =
      interval_.hi().has_value() ? interval_.hi()->ToString() : "+inf";
  return "(" + lo + ", " + attribute_ + ", " + hi + ")";
}

std::string Clause::ToConditionString() const {
  const Interval& iv = interval_;
  if (iv.IsPoint()) {
    return attribute_ + " = " + iv.lo()->ToString();
  }
  std::string out;
  if (iv.lo().has_value() && iv.hi().has_value()) {
    out = iv.lo()->ToString() + (iv.lo_open() ? " < " : " <= ") + attribute_ +
          (iv.hi_open() ? " < " : " <= ") + iv.hi()->ToString();
  } else if (iv.lo().has_value()) {
    out = attribute_ + (iv.lo_open() ? " > " : " >= ") + iv.lo()->ToString();
  } else if (iv.hi().has_value()) {
    out = attribute_ + (iv.hi_open() ? " < " : " <= ") + iv.hi()->ToString();
  } else {
    out = attribute_ + " unrestricted";
  }
  return out;
}

std::string AttributeKey(std::string_view attribute) {
  size_t pos = attribute.rfind('.');
  return ToLower(pos == std::string_view::npos ? attribute
                                               : attribute.substr(pos + 1));
}

}  // namespace iqs
