#include "sql/conjunct.h"

#include "common/string_util.h"
#include "sql/sql_executor.h"

namespace iqs {

namespace {

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

Result<FromScope> FromScope::Build(const Database& db,
                                   const std::vector<TableRef>& from) {
  FromScope scope;
  std::vector<AttributeDef> qualified;
  for (const TableRef& ref : from) {
    FromEntry entry;
    entry.ref = &ref;
    if (db.IsVirtual(ref.name)) {
      IQS_ASSIGN_OR_RETURN(Relation snapshot, db.MaterializeVirtual(ref.name));
      entry.snapshot = std::make_shared<const Relation>(std::move(snapshot));
      entry.relation = entry.snapshot.get();
    } else {
      IQS_ASSIGN_OR_RETURN(entry.relation, db.Get(ref.name));
    }
    const std::string& effective = ref.effective_name();
    for (const FromEntry& prior : scope.entries_) {
      if (EqualsIgnoreCase(prior.ref->effective_name(), effective)) {
        return Status::InvalidArgument("duplicate table name/alias '" +
                                       effective + "' in FROM");
      }
    }
    entry.first = qualified.size();
    for (const AttributeDef& a : entry.relation->schema().attributes()) {
      qualified.push_back(AttributeDef{effective + "." + a.name, a.type});
    }
    scope.entries_.push_back(std::move(entry));
  }
  scope.qualified_ = Schema(std::move(qualified));
  return scope;
}

Schema FromScope::QualifiedSchema(size_t table) const {
  const std::vector<AttributeDef>& all = qualified_.attributes();
  auto begin = all.begin() + entries_[table].first;
  return Schema(std::vector<AttributeDef>(
      begin, begin + entries_[table].relation->schema().size()));
}

Result<ColumnSite> FromScope::Resolve(const ColumnRef& ref) const {
  IQS_ASSIGN_OR_RETURN(size_t index,
                       SqlExecutor::ResolveColumn(qualified_, ref));
  // The last entry starting at or before `index` holds it (an entry with
  // no attributes shares its start with the next one).
  size_t table = entries_.size() - 1;
  while (entries_[table].first > index) --table;
  return ColumnSite{table, index - entries_[table].first};
}

const AttributeDef& FromScope::Attribute(const ColumnSite& site) const {
  return entries_[site.table].relation->schema().attribute(site.column);
}

ClassifiedConjunct ClassifyConjunct(const FromScope& scope,
                                    const SqlExpr& expr) {
  using Kind = SqlOperand::Kind;
  ClassifiedConjunct c;
  c.expr = &expr;
  if (expr.kind == SqlExpr::Kind::kComparison &&
      expr.lhs.kind == Kind::kColumn && expr.rhs.kind == Kind::kColumn) {
    // Column-column comparison: safe when both sides resolve to
    // comparable domains (ApplyCompare never errors then).
    Result<ColumnSite> l = scope.Resolve(expr.lhs.column);
    Result<ColumnSite> r = scope.Resolve(expr.rhs.column);
    if (!l.ok() || !r.ok()) return c;
    ValueType lt = scope.Attribute(*l).type;
    ValueType rt = scope.Attribute(*r).type;
    c.safe = lt == rt || (NumericType(lt) && NumericType(rt));
    if (expr.op == CompareOp::kEq && l->table != r->table) {
      c.join = std::make_pair(*l, *r);
    }
    return c;
  }
  // A literal restriction: `column op literal` in either orientation, or
  // `column BETWEEN literal AND literal`. Literal-literal comparisons, OR
  // and NOT subtrees are not analyzed and may error at eval.
  const ColumnRef* column = nullptr;
  CompareOp op = CompareOp::kEq;
  bool constant_first = false;
  const SqlOperand* low = nullptr;
  const SqlOperand* high = nullptr;  // BETWEEN only
  if (expr.kind == SqlExpr::Kind::kBetween) {
    if (expr.lhs.kind != Kind::kColumn || expr.low.kind != Kind::kLiteral ||
        expr.high.kind != Kind::kLiteral) {
      return c;
    }
    column = &expr.lhs.column;
    low = &expr.low;
    high = &expr.high;
  } else if (expr.kind != SqlExpr::Kind::kComparison) {
    return c;
  } else if (expr.lhs.kind == Kind::kColumn &&
             expr.rhs.kind == Kind::kLiteral) {
    column = &expr.lhs.column;
    op = expr.op;
    low = &expr.rhs;
  } else if (expr.lhs.kind == Kind::kLiteral &&
             expr.rhs.kind == Kind::kColumn) {
    column = &expr.rhs.column;
    op = MirrorCompareOp(expr.op);
    constant_first = true;
    low = &expr.lhs;
  } else {
    return c;
  }
  Result<ColumnSite> site = scope.Resolve(*column);
  if (!site.ok()) return c;
  const AttributeDef& def = scope.Attribute(*site);
  Result<Value> low_value = CoerceLiteral(low->literal, low->raw, def.type);
  if (!low_value.ok()) return c;
  Result<Value> high_value = *low_value;
  if (high != nullptr) {
    high_value = CoerceLiteral(high->literal, high->raw, def.type);
    if (!high_value.ok()) return c;
  }
  c.safe = true;
  c.restriction = true;
  c.column = column;
  c.site = *site;
  c.attribute = def.name;
  c.between = high != nullptr;
  c.op = op;
  c.constant_first = constant_first;
  c.low = std::move(low_value).value();
  c.high = std::move(high_value).value();
  // Null comparisons are false, never an error; so is an inverted BETWEEN.
  if (c.low.is_null() || c.high.is_null()) return c;
  if (c.between && c.low > c.high) return c;
  Result<Interval> interval = c.between ? Interval::Closed(c.low, c.high)
                                        : Interval::FromCompare(c.op, c.low);
  if (!interval.ok()) return c;  // total but not one interval (!=, LIKE)
  c.recognized = true;
  c.interval = std::move(interval).value();
  return c;
}

size_t ScanConditions(const std::vector<ClassifiedConjunct>& conjuncts,
                      const ColumnarRelation& snapshot,
                      std::vector<ColumnCondition>* out) {
  size_t taken = 0;
  for (const ClassifiedConjunct& c : conjuncts) {
    if (!c.restriction) break;
    size_t column = c.site.column;
    if (snapshot.column(column).storage() == Column::Storage::kMixed) break;
    if (c.between) {
      out->push_back(ColumnCondition{column, CompareOp::kGe, c.low, false});
      out->push_back(ColumnCondition{column, CompareOp::kLe, c.high, false});
    } else {
      out->push_back(ColumnCondition{column, c.op, c.low, c.constant_first});
    }
    ++taken;
  }
  return taken;
}

}  // namespace iqs
