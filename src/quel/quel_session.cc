#include "quel/quel_session.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "quel/quel_parser.h"
#include "relational/algebra.h"

namespace iqs {

Result<QuelSession::ExecutionResult> QuelSession::ExecuteText(
    const std::string& text) {
  IQS_ASSIGN_OR_RETURN(QuelStatement stmt, ParseQuelStatement(text));
  return Execute(stmt);
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteScript(
    const std::string& text) {
  IQS_ASSIGN_OR_RETURN(std::vector<QuelStatement> statements,
                       ParseQuelScript(text));
  if (statements.empty()) {
    return Status::InvalidArgument("empty QUEL script");
  }
  ExecutionResult last;
  for (const QuelStatement& stmt : statements) {
    IQS_ASSIGN_OR_RETURN(last, Execute(stmt));
  }
  return last;
}

Result<QuelSession::ExecutionResult> QuelSession::Execute(
    const QuelStatement& statement) {
  switch (statement.kind) {
    case QuelStatement::Kind::kRange:
      return ExecuteRange(statement.range);
    case QuelStatement::Kind::kRetrieve:
      return ExecuteRetrieve(statement.retrieve);
    case QuelStatement::Kind::kDelete:
      return ExecuteDelete(statement.del);
    case QuelStatement::Kind::kAppend:
      return ExecuteAppend(statement.append);
  }
  return Status::Internal("unreachable QUEL statement kind");
}

Result<std::string> QuelSession::RelationOf(
    const std::string& variable) const {
  auto it = ranges_.find(ToLower(variable));
  if (it == ranges_.end()) {
    return Status::NotFound("no range declaration for tuple variable '" +
                            variable + "'");
  }
  return it->second;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteRange(
    const QuelRangeStatement& stmt) {
  if (db_->IsVirtual(stmt.relation)) {
    // Materialize once to validate the name and learn its registered
    // spelling; the snapshot itself is discarded — each retrieve takes a
    // fresh one.
    IQS_ASSIGN_OR_RETURN(Relation snapshot,
                         db_->MaterializeVirtual(stmt.relation));
    ranges_[ToLower(stmt.variable)] = snapshot.name();
    return ExecutionResult{};
  }
  IQS_ASSIGN_OR_RETURN(const Relation* rel, db_->Get(stmt.relation));
  ranges_[ToLower(stmt.variable)] = rel->name();
  return ExecutionResult{};
}

void QuelSession::AddVariable(const std::string& variable,
                              std::vector<std::string>* out) {
  for (const std::string& existing : *out) {
    if (EqualsIgnoreCase(existing, variable)) return;
  }
  out->push_back(variable);
}

void QuelSession::CollectVariables(const QuelExprPtr& expr,
                                   std::vector<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind == QuelExpr::Kind::kComparison) {
    if (expr->lhs.is_attr) AddVariable(expr->lhs.attr.variable, out);
    if (expr->rhs.is_attr) AddVariable(expr->rhs.attr.variable, out);
    return;
  }
  CollectVariables(expr->left, out);
  CollectVariables(expr->right, out);
}

Result<const Relation*> QuelSession::ResolveVariable(
    const std::string& variable) const {
  IQS_ASSIGN_OR_RETURN(std::string relation, RelationOf(variable));
  if (db_->IsVirtual(relation)) {
    std::string key = ToLower(relation);
    auto it = virtual_snapshots_.find(key);
    if (it == virtual_snapshots_.end()) {
      IQS_ASSIGN_OR_RETURN(Relation snapshot,
                           db_->MaterializeVirtual(relation));
      it = virtual_snapshots_.emplace(key, std::move(snapshot)).first;
    }
    return &it->second;
  }
  return db_->Get(relation);
}

Result<Value> QuelSession::EvalOperand(const QuelExpr::Operand& operand,
                                       const std::vector<Binding>& bindings,
                                       const QuelExpr::Operand& other) {
  if (operand.is_attr) {
    for (const Binding& b : bindings) {
      if (!EqualsIgnoreCase(b.variable, operand.attr.variable)) continue;
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           b.relation->schema().IndexOf(
                               operand.attr.attribute));
      return b.current->at(idx);
    }
    return Status::NotFound("tuple variable '" + operand.attr.variable +
                            "' is not bound in this statement");
  }
  // Constant: coerce numeric spellings against a string attribute on the
  // other side (the paper compares CHAR class codes with 0101-style
  // literals).
  if (other.is_attr && operand.constant.type() != ValueType::kString) {
    for (const Binding& b : bindings) {
      if (!EqualsIgnoreCase(b.variable, other.attr.variable)) continue;
      auto idx = b.relation->schema().IndexOf(other.attr.attribute);
      if (idx.ok() &&
          b.relation->schema().attribute(*idx).type == ValueType::kString) {
        return Value::String(operand.raw.empty()
                                 ? operand.constant.ToString()
                                 : operand.raw);
      }
    }
  }
  return operand.constant;
}

Result<bool> QuelSession::Eval(const QuelExpr& expr,
                               const std::vector<Binding>& bindings) {
  switch (expr.kind) {
    case QuelExpr::Kind::kComparison: {
      IQS_ASSIGN_OR_RETURN(Value lhs,
                           EvalOperand(expr.lhs, bindings, expr.rhs));
      IQS_ASSIGN_OR_RETURN(Value rhs,
                           EvalOperand(expr.rhs, bindings, expr.lhs));
      return ApplyCompare(expr.op, lhs, rhs);
    }
    case QuelExpr::Kind::kAnd: {
      IQS_ASSIGN_OR_RETURN(bool l, Eval(*expr.left, bindings));
      if (!l) return false;
      return Eval(*expr.right, bindings);
    }
    case QuelExpr::Kind::kOr: {
      IQS_ASSIGN_OR_RETURN(bool l, Eval(*expr.left, bindings));
      if (l) return true;
      return Eval(*expr.right, bindings);
    }
    case QuelExpr::Kind::kNot: {
      IQS_ASSIGN_OR_RETURN(bool v, Eval(*expr.left, bindings));
      return !v;
    }
  }
  return Status::Internal("unreachable QUEL expression kind");
}

bool QuelSession::TryConvertOperand(const QuelExpr::Operand& operand,
                                    const Binding& binding,
                                    const QuelExpr::Operand& other,
                                    ExprPtr* out) {
  if (operand.is_attr) {
    if (!EqualsIgnoreCase(operand.attr.variable, binding.variable)) {
      return false;
    }
    auto idx = binding.relation->schema().IndexOf(operand.attr.attribute);
    // An unknown attribute is a PER-ROW error in the row path (an empty
    // relation yields an empty answer, not an error) — fall back so the
    // row path reproduces that behavior exactly.
    if (!idx.ok()) return false;
    *out = MakeColumn(*idx);
    return true;
  }
  // Mirror EvalOperand's coercion: a non-string constant compared with a
  // string attribute keeps its raw spelling.
  Value v = operand.constant;
  if (other.is_attr && v.type() != ValueType::kString &&
      EqualsIgnoreCase(other.attr.variable, binding.variable)) {
    auto idx = binding.relation->schema().IndexOf(other.attr.attribute);
    if (idx.ok() &&
        binding.relation->schema().attribute(*idx).type ==
            ValueType::kString) {
      v = Value::String(operand.raw.empty() ? v.ToString() : operand.raw);
    }
  }
  *out = MakeConstant(std::move(v));
  return true;
}

bool QuelSession::TryConvertExpr(const QuelExpr& expr, const Binding& binding,
                                 PredicatePtr* out) {
  switch (expr.kind) {
    case QuelExpr::Kind::kComparison: {
      ExprPtr lhs, rhs;
      if (!TryConvertOperand(expr.lhs, binding, expr.rhs, &lhs) ||
          !TryConvertOperand(expr.rhs, binding, expr.lhs, &rhs)) {
        return false;
      }
      *out = MakeCompare(expr.op, std::move(lhs), std::move(rhs));
      return true;
    }
    case QuelExpr::Kind::kAnd:
    case QuelExpr::Kind::kOr: {
      PredicatePtr l, r;
      if (!TryConvertExpr(*expr.left, binding, &l) ||
          !TryConvertExpr(*expr.right, binding, &r)) {
        return false;
      }
      *out = expr.kind == QuelExpr::Kind::kAnd
                 ? MakeAnd(std::move(l), std::move(r))
                 : MakeOr(std::move(l), std::move(r));
      return true;
    }
    case QuelExpr::Kind::kNot: {
      PredicatePtr inner;
      if (!TryConvertExpr(*expr.left, binding, &inner)) return false;
      *out = MakeNot(std::move(inner));
      return true;
    }
  }
  return false;
}

Result<bool> QuelSession::TryColumnarRetrieve(
    const QuelRetrieveStatement& stmt, const Binding& binding,
    const std::vector<std::pair<size_t, size_t>>& sources, Relation* result,
    ExecutionResult* counters) const {
  IQS_ASSIGN_OR_RETURN(std::string relation, RelationOf(binding.variable));
  if (db_->IsVirtual(relation)) return false;
  PredicatePtr pred;
  if (!TryConvertExpr(*stmt.where, binding, &pred)) return false;
  Result<std::shared_ptr<const ColumnarRelation>> snap =
      db_->ColumnarSnapshot(relation);
  if (!snap.ok()) return false;
  ExtractedConjuncts split = ExtractColumnConditions(pred, **snap);
  if (split.conditions.empty()) return false;
  ColumnarScanStats scan_stats;
  IQS_ASSIGN_OR_RETURN(std::vector<uint32_t> admitted,
                       ColumnarScan(**snap, split.conditions,
                                    split.residual.get(), &scan_stats));
  std::set<Tuple> seen;
  for (uint32_t r : admitted) {
    Tuple row;
    for (const auto& [which, column] : sources) {
      (void)which;  // single binding: always 0
      row.Append((*snap)->column(column).Get(r));
    }
    if (stmt.unique && !seen.insert(row).second) continue;
    result->AppendUnchecked(std::move(row));
  }
  counters->columnar_blocks_total += scan_stats.blocks_total;
  counters->columnar_blocks_pruned += scan_stats.blocks_pruned;
  return true;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteRetrieve(
    const QuelRetrieveStatement& stmt) {
  if (stmt.targets.empty()) {
    return Status::InvalidArgument("retrieve needs a target list");
  }
  virtual_snapshots_.clear();
  // Variables in first-use order: targets, then qualification.
  std::vector<std::string> variables;
  for (const QuelTarget& t : stmt.targets) {
    AddVariable(t.ref.variable, &variables);
  }
  CollectVariables(stmt.where, &variables);
  for (const QuelAttrRef& ref : stmt.sort_by) {
    AddVariable(ref.variable, &variables);
  }
  std::vector<Binding> bindings;
  for (const std::string& variable : variables) {
    IQS_ASSIGN_OR_RETURN(const Relation* rel, ResolveVariable(variable));
    bindings.push_back(Binding{variable, rel, nullptr});
  }

  // Result schema from the targets.
  std::vector<AttributeDef> attrs;
  std::vector<std::pair<size_t, size_t>> sources;  // (binding, column)
  for (const QuelTarget& target : stmt.targets) {
    size_t which = 0;
    while (!EqualsIgnoreCase(bindings[which].variable, target.ref.variable)) {
      ++which;
    }
    IQS_ASSIGN_OR_RETURN(size_t column,
                         bindings[which].relation->schema().IndexOf(
                             target.ref.attribute));
    AttributeDef def =
        bindings[which].relation->schema().attribute(column);
    def.name = target.effective_name();
    def.is_key = false;
    attrs.push_back(std::move(def));
    sources.emplace_back(which, column);
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation result(stmt.into.empty() ? "retrieve" : stmt.into,
                  std::move(schema));

  // Columnar fast path: a qualified single-variable retrieve over a
  // stored relation runs as a batch scan over the columnar snapshot.
  ExecutionResult out;
  bool scanned = false;
  if (bindings.size() == 1 && stmt.where != nullptr) {
    IQS_ASSIGN_OR_RETURN(
        scanned,
        TryColumnarRetrieve(stmt, bindings[0], sources, &result, &out));
  }

  if (!scanned) {
    // Iterate the cross product of the bindings. Governed per 1024
    // candidate combinations, with the freshly kept rows charged — a
    // multi-variable retrieve is QUEL's runaway shape.
    std::set<Tuple> seen;
    size_t visited = 0;
    size_t charged_rows = 0;
    auto emit = [&]() -> Status {
      if ((visited++ & 1023) == 0) {
        IQS_RETURN_IF_ERROR(exec::ChargeRows(
            "quel.scan", result.size() - charged_rows, sources.size()));
        charged_rows = result.size();
      }
      if (stmt.where != nullptr) {
        IQS_ASSIGN_OR_RETURN(bool keep, Eval(*stmt.where, bindings));
        if (!keep) return Status::Ok();
      }
      Tuple row;
      for (const auto& [which, column] : sources) {
        row.Append(bindings[which].current->at(column));
      }
      if (stmt.unique && !seen.insert(row).second) return Status::Ok();
      result.AppendUnchecked(std::move(row));
      return Status::Ok();
    };
    auto recurse = [&](auto&& self, size_t depth) -> Status {
      if (depth == bindings.size()) return emit();
      for (const Tuple& t : bindings[depth].relation->rows()) {
        bindings[depth].current = &t;
        IQS_RETURN_IF_ERROR(self(self, depth + 1));
      }
      return Status::Ok();
    };
    IQS_RETURN_IF_ERROR(recurse(recurse, 0));
  }

  // sort by: each ref must correspond to a target column.
  if (!stmt.sort_by.empty()) {
    std::vector<std::string> keys;
    for (const QuelAttrRef& ref : stmt.sort_by) {
      bool found = false;
      for (size_t i = 0; i < stmt.targets.size(); ++i) {
        if (EqualsIgnoreCase(stmt.targets[i].ref.variable, ref.variable) &&
            EqualsIgnoreCase(stmt.targets[i].ref.attribute, ref.attribute)) {
          keys.push_back(stmt.targets[i].effective_name());
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("sort attribute " + ref.ToString() +
                                       " is not in the target list");
      }
    }
    IQS_RETURN_IF_ERROR(result.SortBy(keys));
  }

  if (!stmt.into.empty()) {
    if (db_->Contains(stmt.into)) {
      IQS_RETURN_IF_ERROR(db_->Drop(stmt.into));
    }
    IQS_RETURN_IF_ERROR(db_->AddRelation(result));
  }
  out.relation = std::move(result);
  return out;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteDelete(
    const QuelDeleteStatement& stmt) {
  virtual_snapshots_.clear();
  IQS_ASSIGN_OR_RETURN(std::string target_name, RelationOf(stmt.variable));
  if (db_->IsVirtual(target_name)) {
    return Status::InvalidArgument("relation '" + target_name +
                                   "' is a virtual catalog relation and is "
                                   "read-only");
  }
  IQS_ASSIGN_OR_RETURN(Relation * target, db_->GetMutable(target_name));

  // Other variables mentioned by the qualification.
  std::vector<std::string> variables;
  AddVariable(stmt.variable, &variables);
  CollectVariables(stmt.where, &variables);
  std::vector<Binding> bindings;
  for (const std::string& variable : variables) {
    IQS_ASSIGN_OR_RETURN(const Relation* rel, ResolveVariable(variable));
    bindings.push_back(Binding{variable, rel, nullptr});
  }

  // For each target tuple: does SOME combination of the other variables
  // satisfy the qualification?
  std::vector<bool> doomed(target->size(), false);
  for (size_t row = 0; row < target->size(); ++row) {
    if ((row & 1023) == 0) IQS_GOV_CHECKPOINT("quel.scan");
    bindings[0].current = &target->row(row);
    if (stmt.where == nullptr) {
      doomed[row] = true;
      continue;
    }
    bool exists = false;
    auto recurse = [&](auto&& self, size_t depth) -> Status {
      if (exists) return Status::Ok();
      if (depth == bindings.size()) {
        IQS_ASSIGN_OR_RETURN(bool match, Eval(*stmt.where, bindings));
        if (match) exists = true;
        return Status::Ok();
      }
      for (const Tuple& t : bindings[depth].relation->rows()) {
        bindings[depth].current = &t;
        IQS_RETURN_IF_ERROR(self(self, depth + 1));
        if (exists) break;
      }
      return Status::Ok();
    };
    IQS_RETURN_IF_ERROR(recurse(recurse, 1));
    doomed[row] = exists;
  }
  size_t index = 0;
  size_t removed = target->DeleteWhere(
      [&doomed, &index](const Tuple&) { return doomed[index++]; });
  ExecutionResult out;
  out.affected = removed;
  return out;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteAppend(
    const QuelAppendStatement& stmt) {
  if (db_->IsVirtual(stmt.relation)) {
    return Status::InvalidArgument("relation '" + stmt.relation +
                                   "' is a virtual catalog relation and is "
                                   "read-only");
  }
  IQS_ASSIGN_OR_RETURN(Relation * target, db_->GetMutable(stmt.relation));
  const Schema& schema = target->schema();
  std::vector<Value> row(schema.size(), Value::Null());
  for (size_t i = 0; i < stmt.attributes.size(); ++i) {
    IQS_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(stmt.attributes[i]));
    Value v = stmt.values[i];
    if (schema.attribute(idx).type == ValueType::kString &&
        v.type() != ValueType::kString && !v.is_null()) {
      v = Value::String(stmt.raw[i].empty() ? v.ToString() : stmt.raw[i]);
    }
    row[idx] = std::move(v);
  }
  IQS_RETURN_IF_ERROR(target->Insert(Tuple(std::move(row))));
  ExecutionResult out;
  out.affected = 1;
  return out;
}

}  // namespace iqs
