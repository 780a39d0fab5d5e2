#include "tests/reference_sql.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "relational/predicate.h"
#include "sql/conjunct.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"

namespace iqs {
namespace testing_util {

namespace {

std::string BaseName(const std::string& attribute) {
  size_t pos = attribute.rfind('.');
  return pos == std::string::npos ? attribute : attribute.substr(pos + 1);
}

// A bound WHERE operand: a column slot of the working row, or a literal
// already coerced against the column it is compared with.
struct Operand {
  bool is_column = false;
  size_t index = 0;
  Value value;

  const Value& Of(const Tuple& row) const {
    return is_column ? row.at(index) : value;
  }
};

struct Node {
  SqlExpr::Kind kind = SqlExpr::Kind::kComparison;
  CompareOp op = CompareOp::kEq;
  Operand lhs, rhs;                // kComparison
  Operand col1, low, col2, high;   // kBetween
  std::unique_ptr<Node> left, right;
};

// Same resolution order as the executor's binder, so the first bind
// error is the same one.
Result<Operand> BindOperand(const Schema& schema, const SqlOperand& operand,
                            const SqlOperand& other) {
  if (operand.kind == SqlOperand::Kind::kColumn) {
    IQS_ASSIGN_OR_RETURN(size_t idx,
                         SqlExecutor::ResolveColumn(schema, operand.column));
    return Operand{true, idx, Value()};
  }
  Value v = operand.literal;
  if (other.kind == SqlOperand::Kind::kColumn) {
    IQS_ASSIGN_OR_RETURN(size_t idx,
                         SqlExecutor::ResolveColumn(schema, other.column));
    IQS_ASSIGN_OR_RETURN(
        v, CoerceLiteral(v, operand.raw, schema.attribute(idx).type));
  }
  return Operand{false, 0, std::move(v)};
}

Result<std::unique_ptr<Node>> Bind(const Schema& schema, const SqlExpr& expr) {
  auto node = std::make_unique<Node>();
  node->kind = expr.kind;
  node->op = expr.op;
  switch (expr.kind) {
    case SqlExpr::Kind::kComparison: {
      IQS_ASSIGN_OR_RETURN(node->lhs, BindOperand(schema, expr.lhs, expr.rhs));
      IQS_ASSIGN_OR_RETURN(node->rhs, BindOperand(schema, expr.rhs, expr.lhs));
      break;
    }
    case SqlExpr::Kind::kBetween: {
      IQS_ASSIGN_OR_RETURN(node->col1, BindOperand(schema, expr.lhs, expr.low));
      IQS_ASSIGN_OR_RETURN(node->low, BindOperand(schema, expr.low, expr.lhs));
      IQS_ASSIGN_OR_RETURN(node->col2,
                           BindOperand(schema, expr.lhs, expr.high));
      IQS_ASSIGN_OR_RETURN(node->high,
                           BindOperand(schema, expr.high, expr.lhs));
      break;
    }
    case SqlExpr::Kind::kAnd:
    case SqlExpr::Kind::kOr: {
      IQS_ASSIGN_OR_RETURN(node->left, Bind(schema, *expr.left));
      IQS_ASSIGN_OR_RETURN(node->right, Bind(schema, *expr.right));
      break;
    }
    case SqlExpr::Kind::kNot: {
      IQS_ASSIGN_OR_RETURN(node->left, Bind(schema, *expr.left));
      break;
    }
  }
  return node;
}

Result<bool> Eval(const Node& node, const Tuple& row) {
  switch (node.kind) {
    case SqlExpr::Kind::kComparison:
      return ApplyCompare(node.op, node.lhs.Of(row), node.rhs.Of(row));
    case SqlExpr::Kind::kBetween: {
      IQS_ASSIGN_OR_RETURN(bool ge, ApplyCompare(CompareOp::kGe,
                                                 node.col1.Of(row),
                                                 node.low.Of(row)));
      if (!ge) return false;
      return ApplyCompare(CompareOp::kLe, node.col2.Of(row),
                          node.high.Of(row));
    }
    case SqlExpr::Kind::kAnd: {
      IQS_ASSIGN_OR_RETURN(bool l, Eval(*node.left, row));
      if (!l) return false;
      return Eval(*node.right, row);
    }
    case SqlExpr::Kind::kOr: {
      IQS_ASSIGN_OR_RETURN(bool l, Eval(*node.left, row));
      if (l) return true;
      return Eval(*node.right, row);
    }
    case SqlExpr::Kind::kNot: {
      IQS_ASSIGN_OR_RETURN(bool v, Eval(*node.left, row));
      return !v;
    }
  }
  return Status::Internal("unreachable SQL expression kind");
}

using SortKeys = std::vector<std::pair<size_t, bool>>;

void StableSortRows(const SortKeys& keys, std::vector<Tuple>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&keys](const Tuple& a, const Tuple& b) {
                     for (const auto& [idx, desc] : keys) {
                       int c = a.at(idx).Compare(b.at(idx));
                       if (c != 0) return desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
}

Result<Relation> Aggregate(const Schema& schema, const std::vector<Tuple>& rows,
                           const SelectStatement& stmt) {
  if (stmt.having != nullptr) {
    return Status::Internal("reference evaluator: no HAVING");
  }
  if (stmt.select_all) {
    return Status::InvalidArgument("SELECT * cannot be combined with "
                                   "aggregates or GROUP BY");
  }
  std::vector<size_t> group_cols;
  for (const ColumnRef& ref : stmt.group_by) {
    IQS_ASSIGN_OR_RETURN(size_t idx, SqlExecutor::ResolveColumn(schema, ref));
    group_cols.push_back(idx);
  }
  std::vector<size_t> item_cols;
  std::vector<AttributeDef> attrs;
  for (const SelectItem& item : stmt.select_list) {
    size_t col = 0;
    if (!(item.is_aggregate() && item.star)) {
      IQS_ASSIGN_OR_RETURN(col,
                           SqlExecutor::ResolveColumn(schema, item.column));
    }
    if (!item.is_aggregate() &&
        std::find(group_cols.begin(), group_cols.end(), col) ==
            group_cols.end()) {
      return Status::InvalidArgument(
          "column '" + item.column.ToString() +
          "' must appear in GROUP BY or inside an aggregate");
    }
    AttributeDef def{item.ToString(), ValueType::kInt, false};
    if (!item.is_aggregate()) def.name = BaseName(schema.attribute(col).name);
    item_cols.push_back(col);
    attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(attrs)));
  Relation out("result", std::move(out_schema));

  std::map<Tuple, std::vector<size_t>> groups;
  for (size_t r = 0; r < rows.size(); ++r) {
    Tuple key;
    for (size_t g : group_cols) key.Append(rows[r].at(g));
    groups[std::move(key)].push_back(r);
  }
  if (group_cols.empty() && groups.empty()) groups[Tuple()] = {};
  for (const auto& [key, members] : groups) {
    Tuple row;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      const SelectItem& item = stmt.select_list[i];
      size_t col = item_cols[i];
      if (!item.is_aggregate()) {
        row.Append(members.empty() ? Value::Null()
                                   : rows[members[0]].at(col));
        continue;
      }
      if (item.fn == AggregateFn::kCount && item.star) {
        row.Append(Value::Int(static_cast<int64_t>(members.size())));
        continue;
      }
      int64_t count = 0;
      int64_t int_sum = 0;
      double sum = 0.0;
      Value min, max;
      for (size_t r : members) {
        const Value& v = rows[r].at(col);
        if (v.is_null()) continue;
        ++count;
        if (min.is_null() || v < min) min = v;
        if (max.is_null() || v > max) max = v;
        if (item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg) {
          IQS_ASSIGN_OR_RETURN(double numeric, v.AsNumeric());
          sum += numeric;
          if (v.type() == ValueType::kInt) int_sum += v.AsInt();
        }
      }
      switch (item.fn) {
        case AggregateFn::kCount:
          row.Append(Value::Int(count));
          break;
        case AggregateFn::kMin:
          row.Append(min);
          break;
        case AggregateFn::kMax:
          row.Append(max);
          break;
        case AggregateFn::kSum:
          row.Append(count == 0 ? Value::Null()
                     : schema.attribute(col).type == ValueType::kInt
                         ? Value::Int(int_sum)
                         : Value::Real(sum));
          break;
        case AggregateFn::kAvg:
          row.Append(count == 0 ? Value::Null()
                                : Value::Real(sum / static_cast<double>(count)));
          break;
        case AggregateFn::kNone:
          break;
      }
    }
    out.AppendUnchecked(std::move(row));
  }
  if (stmt.order_by.empty()) return out;
  SortKeys keys;
  for (const OrderItem& item : stmt.order_by) {
    auto idx = SqlExecutor::ResolveColumn(out.schema(), item.column);
    if (!idx.ok() && !item.column.qualifier.empty()) {
      idx = SqlExecutor::ResolveColumn(out.schema(),
                                       ColumnRef{"", item.column.name});
    }
    if (!idx.ok()) return idx.status();
    keys.emplace_back(*idx, item.descending);
  }
  std::vector<Tuple> sorted = out.rows();
  StableSortRows(keys, &sorted);
  Relation result("result", out.schema());
  for (Tuple& t : sorted) result.AppendUnchecked(std::move(t));
  return result;
}

}  // namespace

Result<Relation> ReferenceExecute(const Database& db, const std::string& sql) {
  IQS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list must not be empty");
  }
  if (stmt.from.size() > 2) {
    return Status::Internal("reference evaluator: at most two tables");
  }
  std::vector<const Relation*> tables;
  std::vector<AttributeDef> attrs;
  std::set<std::string> names;
  for (const TableRef& ref : stmt.from) {
    if (db.IsVirtual(ref.name)) {
      return Status::Internal("reference evaluator: stored tables only");
    }
    IQS_ASSIGN_OR_RETURN(const Relation* rel, db.Get(ref.name));
    if (!names.insert(ToLower(ref.effective_name())).second) {
      return Status::InvalidArgument("duplicate table name/alias '" +
                                     ref.effective_name() + "' in FROM");
    }
    for (AttributeDef a : rel->schema().attributes()) {
      a.name = ref.effective_name() + "." + a.name;
      a.is_key = false;
      attrs.push_back(std::move(a));
    }
    tables.push_back(rel);
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));

  std::unique_ptr<Node> where;
  if (stmt.where != nullptr) {
    IQS_ASSIGN_OR_RETURN(where, Bind(schema, *stmt.where));
  }
  std::vector<Tuple> kept;
  auto consider = [&](Tuple row) -> Status {
    if (where != nullptr) {
      IQS_ASSIGN_OR_RETURN(bool keep, Eval(*where, row));
      if (!keep) return Status::Ok();
    }
    kept.push_back(std::move(row));
    return Status::Ok();
  };
  for (const Tuple& a : tables[0]->rows()) {
    if (tables.size() == 1) {
      IQS_RETURN_IF_ERROR(consider(a));
      continue;
    }
    for (const Tuple& b : tables[1]->rows()) {
      IQS_RETURN_IF_ERROR(consider(Tuple::Concat(a, b)));
    }
  }

  if (stmt.has_aggregates() || !stmt.group_by.empty() ||
      stmt.having != nullptr) {
    return Aggregate(schema, kept, stmt);
  }
  if (!stmt.order_by.empty()) {
    SortKeys keys;
    for (const OrderItem& item : stmt.order_by) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           SqlExecutor::ResolveColumn(schema, item.column));
      keys.emplace_back(idx, item.descending);
    }
    StableSortRows(keys, &kept);
  }
  std::vector<size_t> indices;
  if (stmt.select_all) {
    for (size_t i = 0; i < schema.size(); ++i) indices.push_back(i);
  } else {
    for (const SelectItem& item : stmt.select_list) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           SqlExecutor::ResolveColumn(schema, item.column));
      if (std::find(indices.begin(), indices.end(), idx) != indices.end()) {
        return Status::InvalidArgument("column '" + item.column.ToString() +
                                       "' is selected twice");
      }
      indices.push_back(idx);
    }
  }
  // Output columns keep their base name unless it would collide.
  std::map<std::string, int> base_counts;
  for (size_t idx : indices) {
    base_counts[ToLower(BaseName(schema.attribute(idx).name))] += 1;
  }
  std::vector<AttributeDef> out_attrs;
  for (size_t idx : indices) {
    AttributeDef def = schema.attribute(idx);
    if (base_counts[ToLower(BaseName(def.name))] == 1) {
      def.name = BaseName(def.name);
    }
    out_attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Relation result("result", std::move(out_schema));
  std::set<Tuple> seen;
  for (const Tuple& t : kept) {
    Tuple projected;
    for (size_t idx : indices) projected.Append(t.at(idx));
    if (stmt.distinct && !seen.insert(projected).second) continue;
    result.AppendUnchecked(std::move(projected));
  }
  return result;
}

}  // namespace testing_util
}  // namespace iqs
