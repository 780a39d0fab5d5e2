#include "quel/quel_session.h"

#include <algorithm>

#include "common/string_util.h"
#include "quel/quel_parser.h"
#include "sql/conjunct.h"
#include "sql/sql_executor.h"

namespace iqs {

namespace {

SqlOperand LowerOperand(const QuelExpr::Operand& operand) {
  if (operand.is_attr) {
    return SqlOperand::Column(
        ColumnRef{operand.attr.variable, operand.attr.attribute});
  }
  return SqlOperand::Literal(operand.constant, operand.raw);
}

// The qualification as a WHERE tree, node for node; null stays null.
SqlExprPtr Lower(const QuelExprPtr& expr) {
  if (expr == nullptr) return nullptr;
  auto out = std::make_shared<SqlExpr>();
  switch (expr->kind) {
    case QuelExpr::Kind::kComparison:
      out->kind = SqlExpr::Kind::kComparison;
      out->op = expr->op;
      out->lhs = LowerOperand(expr->lhs);
      out->rhs = LowerOperand(expr->rhs);
      return out;
    case QuelExpr::Kind::kAnd:
      out->kind = SqlExpr::Kind::kAnd;
      break;
    case QuelExpr::Kind::kOr:
      out->kind = SqlExpr::Kind::kOr;
      break;
    case QuelExpr::Kind::kNot:
      out->kind = SqlExpr::Kind::kNot;
      break;
  }
  out->left = Lower(expr->left);
  out->right = Lower(expr->right);
  return out;
}

// The first target naming `ref`, or targets.size() when none does.
size_t FindTarget(const std::vector<QuelTarget>& targets,
                  const QuelAttrRef& ref) {
  for (size_t i = 0; i < targets.size(); ++i) {
    if (EqualsIgnoreCase(targets[i].ref.variable, ref.variable) &&
        EqualsIgnoreCase(targets[i].ref.attribute, ref.attribute)) {
      return i;
    }
  }
  return targets.size();
}

// Orders tuples by type, then value, column by column: two tuples are
// equivalent only when identical, so INT 1 and REAL 1.0 (equal under
// Value::Compare) stay apart.
bool IdenticalLess(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.at(i).type() != b.at(i).type()) {
      return a.at(i).type() < b.at(i).type();
    }
    int c = a.at(i).Compare(b.at(i));
    if (c != 0) return c < 0;
  }
  return false;
}

// Runs a lowered statement, recording its batch-scan accounting.
Result<Relation> RunSelect(const Database* db, const SelectStatement& select,
                           QuelSession::ExecutionResult* out) {
  SqlExecutor executor(db);
  Result<Relation> answer = executor.Execute(select);
  out->columnar_blocks_total = executor.last_stats().columnar_blocks_total;
  out->columnar_blocks_pruned = executor.last_stats().columnar_blocks_pruned;
  return answer;
}

}  // namespace

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

Result<std::vector<TableRef>> QuelSession::FromList(
    const std::vector<std::string>& variables) const {
  std::vector<TableRef> from;
  for (const std::string& variable : variables) {
    IQS_ASSIGN_OR_RETURN(std::string relation, RelationOf(variable));
    from.push_back(TableRef{std::move(relation), variable});
  }
  return from;
}

Result<QuelSession::ExecutionResult> QuelSession::ExecuteRetrieve(
    const QuelRetrieveStatement& stmt) {
  if (stmt.targets.empty()) {
    return Status::InvalidArgument("retrieve needs a target list");
  }
  // Variables in first-use order: targets, then qualification, then
  // sort by.
  std::vector<std::string> variables;
  for (const QuelTarget& t : stmt.targets) {
    AddVariable(t.ref.variable, &variables);
  }
  CollectVariables(stmt.where, &variables);
  for (const QuelAttrRef& ref : stmt.sort_by) {
    AddVariable(ref.variable, &variables);
  }
  SelectStatement select;
  IQS_ASSIGN_OR_RETURN(select.from, FromList(variables));
  select.distinct = stmt.unique;
  select.where = Lower(stmt.where);
  // Each target attribute is selected once; column[i] is target i's
  // column of the answer (two names may project one attribute).
  std::vector<size_t> column;
  for (size_t i = 0; i < stmt.targets.size(); ++i) {
    size_t first = FindTarget(stmt.targets, stmt.targets[i].ref);
    if (first < i) {
      column.push_back(column[first]);
      continue;
    }
    column.push_back(select.select_list.size());
    SelectItem item;
    item.column =
        ColumnRef{stmt.targets[i].ref.variable, stmt.targets[i].ref.attribute};
    select.select_list.push_back(std::move(item));
  }
  for (const QuelAttrRef& ref : stmt.sort_by) {
    if (FindTarget(stmt.targets, ref) == stmt.targets.size()) {
      return Status::InvalidArgument("sort attribute " + ref.ToString() +
                                     " is not in the target list");
    }
    select.order_by.push_back(
        OrderItem{ColumnRef{ref.variable, ref.attribute}, false});
  }

  ExecutionResult out;
  IQS_ASSIGN_OR_RETURN(Relation answer, RunSelect(db_, select, &out));
  std::vector<AttributeDef> attrs;
  for (size_t i = 0; i < stmt.targets.size(); ++i) {
    AttributeDef def = answer.schema().attribute(column[i]);
    def.name = stmt.targets[i].effective_name();
    def.is_key = false;
    attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation result(stmt.into.empty() ? "retrieve" : stmt.into,
                  std::move(schema));
  for (const Tuple& row : answer.rows()) {
    Tuple named;
    for (size_t c : column) named.Append(row.at(c));
    result.AppendUnchecked(std::move(named));
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
  IQS_ASSIGN_OR_RETURN(std::string target_name, RelationOf(stmt.variable));
  if (db_->IsVirtual(target_name)) {
    return Status::InvalidArgument("relation '" + target_name +
                                   "' is a virtual catalog relation and is "
                                   "read-only");
  }
  ExecutionResult out;
  if (stmt.where == nullptr) {
    IQS_ASSIGN_OR_RETURN(Relation * target, db_->GetMutable(target_name));
    out.affected = target->size();
    target->Clear();
    return out;
  }

  // Every attribute of the deleted variable, over the variables the
  // qualification mentions: the target tuples some combination of the
  // others satisfies. Identical tuples share a fate, so a row goes
  // exactly when an identical tuple is returned. No DISTINCT: it would
  // collapse INT 1 and REAL 1.0 into whichever came first and leave the
  // other behind.
  std::vector<std::string> variables;
  AddVariable(stmt.variable, &variables);
  CollectVariables(stmt.where, &variables);
  SelectStatement select;
  IQS_ASSIGN_OR_RETURN(select.from, FromList(variables));
  IQS_ASSIGN_OR_RETURN(const Relation* target, db_->Get(target_name));
  for (const AttributeDef& attr : target->schema().attributes()) {
    SelectItem item;
    item.column = ColumnRef{stmt.variable, attr.name};
    select.select_list.push_back(std::move(item));
  }
  select.where = Lower(stmt.where);
  IQS_ASSIGN_OR_RETURN(Relation qualifying, RunSelect(db_, select, &out));
  std::vector<Tuple> doomed = qualifying.rows();
  std::sort(doomed.begin(), doomed.end(), IdenticalLess);

  IQS_ASSIGN_OR_RETURN(Relation * mutable_target,
                       db_->GetMutable(target_name));
  out.affected = mutable_target->DeleteWhere([&doomed](const Tuple& row) {
    return std::binary_search(doomed.begin(), doomed.end(), row,
                              IdenticalLess);
  });
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
    IQS_ASSIGN_OR_RETURN(row[idx],
                         CoerceLiteral(stmt.values[i], stmt.raw[i],
                                       schema.attribute(idx).type));
  }
  IQS_RETURN_IF_ERROR(target->Insert(Tuple(std::move(row))));
  ExecutionResult out;
  out.affected = 1;
  return out;
}

}  // namespace iqs
