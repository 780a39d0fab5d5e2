#include "sql/conjunct.h"

#include "common/string_util.h"

namespace iqs {

namespace {

struct ColumnSite {
  size_t table = 0;
  size_t column = 0;
};

std::optional<ColumnSite> ResolveSite(const Database& db,
                                      const std::vector<TableRef>& from,
                                      const ColumnRef& ref) {
  std::optional<ColumnSite> found;
  for (size_t i = 0; i < from.size(); ++i) {
    if (!ref.qualifier.empty() &&
        !EqualsIgnoreCase(ref.qualifier, from[i].effective_name())) {
      continue;
    }
    Result<const Relation*> rel = db.Get(from[i].name);
    if (!rel.ok()) return std::nullopt;  // executor will error identically
    Result<size_t> idx = (*rel)->schema().IndexOf(ref.name);
    if (!idx.ok()) continue;
    if (found.has_value()) return std::nullopt;  // ambiguous
    found = ColumnSite{i, *idx};
  }
  return found;
}

const AttributeDef& SiteDef(const Database& db,
                            const std::vector<TableRef>& from,
                            const ColumnSite& site) {
  return (*db.Get(from[site.table].name))->schema().attribute(site.column);
}

bool NumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kReal;
}

}  // namespace

Result<Value> CoerceLiteral(const Value& literal, const std::string& raw,
                            ValueType type) {
  if (literal.is_null()) return literal;
  if (literal.type() == type) return literal;
  switch (type) {
    case ValueType::kString:
      // Numeric literal against a CHAR column: keep the spelling.
      return Value::String(raw.empty() ? literal.ToString() : raw);
    case ValueType::kReal:
      if (literal.type() == ValueType::kInt) {
        return Value::Real(static_cast<double>(literal.AsInt()));
      }
      break;
    case ValueType::kInt:
      if (literal.type() == ValueType::kReal) return literal;  // numeric cmp ok
      if (literal.type() == ValueType::kString) {
        return Value::FromText(ValueType::kInt, literal.AsString());
      }
      break;
    case ValueType::kDate:
      if (literal.type() == ValueType::kString) {
        return Value::FromText(ValueType::kDate, literal.AsString());
      }
      break;
    default:
      break;
  }
  return Status::TypeError("cannot compare a " +
                           std::string(ValueTypeName(literal.type())) +
                           " literal with a " + ValueTypeName(type) +
                           " column");
}

Result<std::pair<Value, Value>> LiteralRestriction::Coerce(
    ValueType type) const {
  IQS_ASSIGN_OR_RETURN(Value lo, CoerceLiteral(low->literal, low->raw, type));
  if (!between) return std::make_pair(lo, lo);
  IQS_ASSIGN_OR_RETURN(Value hi,
                       CoerceLiteral(high->literal, high->raw, type));
  return std::make_pair(std::move(lo), std::move(hi));
}

Result<Interval> LiteralRestriction::ToInterval(
    const std::pair<Value, Value>& bounds) const {
  if (between) return Interval::Closed(bounds.first, bounds.second);
  return Interval::FromCompare(op, bounds.first);
}

std::optional<LiteralRestriction> MatchLiteralRestriction(
    const SqlExpr& expr) {
  LiteralRestriction r;
  if (expr.kind == SqlExpr::Kind::kBetween) {
    if (expr.lhs.kind != SqlOperand::Kind::kColumn ||
        expr.low.kind != SqlOperand::Kind::kLiteral ||
        expr.high.kind != SqlOperand::Kind::kLiteral) {
      return std::nullopt;
    }
    r.column = &expr.lhs.column;
    r.between = true;
    r.low = &expr.low;
    r.high = &expr.high;
    return r;
  }
  if (expr.kind != SqlExpr::Kind::kComparison) return std::nullopt;
  if (expr.lhs.kind == SqlOperand::Kind::kColumn &&
      expr.rhs.kind == SqlOperand::Kind::kLiteral) {
    r.column = &expr.lhs.column;
    r.op = expr.op;
    r.low = &expr.rhs;
    return r;
  }
  if (expr.lhs.kind == SqlOperand::Kind::kLiteral &&
      expr.rhs.kind == SqlOperand::Kind::kColumn) {
    r.column = &expr.rhs.column;
    r.op = MirrorCompareOp(expr.op);
    r.low = &expr.lhs;
    return r;
  }
  return std::nullopt;
}

ClassifiedConjunct ClassifyConjunct(const Database& db,
                                    const std::vector<TableRef>& from,
                                    const SqlExpr& expr) {
  ClassifiedConjunct c;
  c.expr = &expr;
  if (expr.kind == SqlExpr::Kind::kComparison &&
      expr.lhs.kind == SqlOperand::Kind::kColumn &&
      expr.rhs.kind == SqlOperand::Kind::kColumn) {
    // Join / column-column comparison: safe when both sides resolve to
    // comparable domains (ApplyCompare never errors then).
    std::optional<ColumnSite> l = ResolveSite(db, from, expr.lhs.column);
    std::optional<ColumnSite> r = ResolveSite(db, from, expr.rhs.column);
    if (!l.has_value() || !r.has_value()) return c;
    ValueType lt = SiteDef(db, from, *l).type;
    ValueType rt = SiteDef(db, from, *r).type;
    c.safe = lt == rt || (NumericType(lt) && NumericType(rt));
    return c;
  }
  // Literal-literal comparisons, OR and NOT subtrees are not analyzed and
  // may error at eval.
  std::optional<LiteralRestriction> restriction = MatchLiteralRestriction(expr);
  if (!restriction.has_value()) return c;
  std::optional<ColumnSite> site =
      ResolveSite(db, from, *restriction->column);
  if (!site.has_value()) return c;
  const AttributeDef& def = SiteDef(db, from, *site);
  Result<std::pair<Value, Value>> bounds = restriction->Coerce(def.type);
  if (!bounds.ok()) return c;
  c.safe = true;
  const auto& [lo, hi] = *bounds;
  // Null comparisons are false, never an error; so is an inverted BETWEEN.
  if (lo.is_null() || hi.is_null()) return c;
  if (restriction->between && lo > hi) return c;
  Result<Interval> interval = restriction->ToInterval(*bounds);
  if (!interval.ok()) return c;  // total but not one interval (!=, LIKE)
  c.recognized = true;
  c.column = restriction->column;
  c.table = site->table;
  c.attribute = def.name;
  c.interval = std::move(interval).value();
  return c;
}

}  // namespace iqs
