#include "sql/sql_executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "fault/failpoint.h"
#include "exec/exec_context.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/algebra.h"
#include "sql/sql_parser.h"

namespace iqs {

thread_local SqlExecutor::ExecutionStats SqlExecutor::stats_;

namespace {

std::string BaseName(const std::string& attribute) {
  size_t pos = attribute.rfind('.');
  return pos == std::string::npos ? attribute : attribute.substr(pos + 1);
}

// Coerces `literal` for comparison against a column of type `type`.
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

}  // namespace

Result<size_t> SqlExecutor::ResolveColumn(const Schema& schema,
                                          const ColumnRef& ref) {
  if (!ref.qualifier.empty()) {
    std::string full = ref.qualifier + "." + ref.name;
    return schema.IndexOf(full);
  }
  size_t found = schema.size();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (EqualsIgnoreCase(BaseName(schema.attribute(i).name), ref.name)) {
      if (found != schema.size()) {
        return Status::InvalidArgument("column '" + ref.name +
                                       "' is ambiguous");
      }
      found = i;
    }
  }
  if (found == schema.size()) {
    return Status::NotFound("no column named '" + ref.name + "'");
  }
  return found;
}

Relation SqlExecutor::QualifyFor(const Relation& relation,
                                 const std::string& effective_name) {
  std::vector<AttributeDef> attrs = relation.schema().attributes();
  for (AttributeDef& a : attrs) {
    a.name = effective_name + "." + a.name;
    a.is_key = false;
  }
  Relation out(effective_name, Schema(std::move(attrs)));
  for (const Tuple& t : relation.rows()) out.AppendUnchecked(t);
  return out;
}

Result<Relation> SqlExecutor::JoinOn(const Relation& left,
                                     const std::string& left_col,
                                     const Relation& right,
                                     const std::string& right_col) {
  IQS_ASSIGN_OR_RETURN(size_t li, left.schema().IndexOf(left_col));
  IQS_ASSIGN_OR_RETURN(size_t ri, right.schema().IndexOf(right_col));
  std::vector<AttributeDef> attrs = left.schema().attributes();
  attrs.insert(attrs.end(), right.schema().attributes().begin(),
               right.schema().attributes().end());
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out(left.name() + "*" + right.name(), std::move(schema));
  std::multimap<Value, size_t, ValueKeyLess> index;
  for (size_t r = 0; r < right.size(); ++r) {
    const Value& v = right.row(r).at(ri);
    if (!v.is_null()) index.emplace(v, r);
  }
  // Governed at probe-batch granularity: every 256 probe rows the join
  // charges its freshly materialized output and re-checks the context,
  // so a runaway many-to-many join unwinds instead of filling memory.
  size_t width = out.schema().size();
  size_t last_size = 0;
  for (size_t l = 0; l < left.size(); ++l) {
    if ((l & 255) == 0) {
      IQS_RETURN_IF_ERROR(
          exec::ChargeRows("sql.join", out.size() - last_size, width));
      last_size = out.size();
    }
    const Tuple& lt = left.row(l);
    const Value& v = lt.at(li);
    if (v.is_null()) continue;
    auto [begin, end] = index.equal_range(v);
    for (auto it = begin; it != end; ++it) {
      if (right.row(it->second).at(ri) != v) continue;
      out.AppendUnchecked(Tuple::Concat(lt, right.row(it->second)));
    }
  }
  IQS_RETURN_IF_ERROR(
      exec::ChargeRows("sql.join", out.size() - last_size, width));
  return out;
}

Result<ExprPtr> SqlExecutor::BindOperand(const Schema& schema,
                                         const SqlOperand& operand,
                                         const SqlOperand& other) {
  if (operand.kind == SqlOperand::Kind::kColumn) {
    IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(schema, operand.column));
    return MakeColumn(idx);
  }
  // Literal: coerce to the other side's column type when applicable.
  Value v = operand.literal;
  if (other.kind == SqlOperand::Kind::kColumn) {
    IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(schema, other.column));
    IQS_ASSIGN_OR_RETURN(
        v, CoerceLiteral(v, operand.raw, schema.attribute(idx).type));
  }
  return MakeConstant(std::move(v));
}

Result<PredicatePtr> SqlExecutor::BindExpr(const Schema& schema,
                                           const SqlExpr& expr) {
  switch (expr.kind) {
    case SqlExpr::Kind::kComparison: {
      IQS_ASSIGN_OR_RETURN(ExprPtr lhs,
                           BindOperand(schema, expr.lhs, expr.rhs));
      IQS_ASSIGN_OR_RETURN(ExprPtr rhs,
                           BindOperand(schema, expr.rhs, expr.lhs));
      return MakeCompare(expr.op, std::move(lhs), std::move(rhs));
    }
    case SqlExpr::Kind::kBetween: {
      IQS_ASSIGN_OR_RETURN(ExprPtr col1,
                           BindOperand(schema, expr.lhs, expr.low));
      IQS_ASSIGN_OR_RETURN(ExprPtr lo, BindOperand(schema, expr.low, expr.lhs));
      IQS_ASSIGN_OR_RETURN(ExprPtr col2,
                           BindOperand(schema, expr.lhs, expr.high));
      IQS_ASSIGN_OR_RETURN(ExprPtr hi,
                           BindOperand(schema, expr.high, expr.lhs));
      return MakeAnd(MakeCompare(CompareOp::kGe, std::move(col1), std::move(lo)),
                     MakeCompare(CompareOp::kLe, std::move(col2),
                                 std::move(hi)));
    }
    case SqlExpr::Kind::kAnd: {
      IQS_ASSIGN_OR_RETURN(PredicatePtr l, BindExpr(schema, *expr.left));
      IQS_ASSIGN_OR_RETURN(PredicatePtr r, BindExpr(schema, *expr.right));
      return MakeAnd(std::move(l), std::move(r));
    }
    case SqlExpr::Kind::kOr: {
      IQS_ASSIGN_OR_RETURN(PredicatePtr l, BindExpr(schema, *expr.left));
      IQS_ASSIGN_OR_RETURN(PredicatePtr r, BindExpr(schema, *expr.right));
      return MakeOr(std::move(l), std::move(r));
    }
    case SqlExpr::Kind::kNot: {
      IQS_ASSIGN_OR_RETURN(PredicatePtr inner, BindExpr(schema, *expr.left));
      return MakeNot(std::move(inner));
    }
  }
  return Status::Internal("unreachable SQL expression kind");
}

Result<Relation> SqlExecutor::Execute(const SelectStatement& stmt) const {
  return ExecuteMeasured(stmt, /*schema_only=*/false);
}

Result<Relation> SqlExecutor::ExecuteSchemaOnly(
    const SelectStatement& stmt) const {
  IQS_COUNTER_INC("sql.execute.schema_only");
  return ExecuteMeasured(stmt, /*schema_only=*/true);
}

Result<Relation> SqlExecutor::ExecuteMeasured(const SelectStatement& stmt,
                                              bool schema_only) const {
  IQS_SPAN("sql.execute");
  IQS_COUNTER_INC("sql.execute.count");
  IQS_FAILPOINT("exec.scan");
  auto start = std::chrono::steady_clock::now();
  stats_ = ExecutionStats();
  Result<Relation> result = ExecuteInternal(stmt, schema_only);
  int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  IQS_HISTOGRAM_OBSERVE("sql.execute.micros", micros);
  if (!result.ok()) {
    IQS_COUNTER_INC("sql.execute.errors");
    return result;
  }
  stats_.rows_returned = result->size();
  IQS_COUNTER_ADD("sql.execute.rows_scanned", stats_.base_rows_loaded);
  IQS_COUNTER_ADD("sql.execute.rows_returned", stats_.rows_returned);
  if (stats_.index_prefiltered_tables > 0) {
    IQS_COUNTER_INC("sql.execute.index_path");
  } else {
    IQS_COUNTER_INC("sql.execute.scan_path");
  }
  IQS_SPAN_ANNOTATE("rows_scanned",
                    static_cast<int64_t>(stats_.base_rows_loaded));
  IQS_SPAN_ANNOTATE("rows_returned",
                    static_cast<int64_t>(stats_.rows_returned));
  IQS_SPAN_ANNOTATE("index_tables",
                    static_cast<int64_t>(stats_.index_prefiltered_tables));
  return result;
}

Result<bool> SqlExecutor::TryColumnarScan(const TableRef& ref,
                                          const SelectStatement& stmt,
                                          Relation* qualified) const {
  Result<std::shared_ptr<const ColumnarRelation>> snap =
      db_->ColumnarSnapshot(ref.name);
  if (!snap.ok()) return false;  // relation vanished: let the row path report
  // Single-table binding happens against the qualified schema, whose
  // attribute order matches the base relation — so bound column indexes
  // address the snapshot's columns directly. A bind error here is the
  // same error the row path would surface (nothing can fail in between
  // for a one-table FROM).
  IQS_ASSIGN_OR_RETURN(PredicatePtr pred,
                       BindExpr(qualified->schema(), *stmt.where));
  ExtractedConjuncts split = ExtractColumnConditions(pred, **snap);
  if (split.conditions.empty()) return false;
  ColumnarScanStats scan_stats;
  IQS_ASSIGN_OR_RETURN(std::vector<uint32_t> admitted,
                       ColumnarScan(**snap, split.conditions,
                                    split.residual.get(), &scan_stats));
  size_t materialized = 0;
  for (uint32_t r : admitted) {
    if ((materialized & 1023) == 0) {
      IQS_RETURN_IF_ERROR(exec::ChargeRows(
          "columnar.scan", std::min<size_t>(1024, admitted.size() - materialized),
          qualified->schema().size()));
    }
    qualified->AppendUnchecked((*snap)->MaterializeRow(r));
    ++materialized;
  }
  ++stats_.columnar_tables;
  stats_.columnar_blocks_total += scan_stats.blocks_total;
  stats_.columnar_blocks_pruned += scan_stats.blocks_pruned;
  IQS_COUNTER_INC("sql.execute.columnar_path");
  IQS_COUNTER_ADD("sql.execute.columnar_blocks_pruned",
                  scan_stats.blocks_pruned);
  return true;
}

Result<Relation> SqlExecutor::ExecuteInternal(const SelectStatement& stmt,
                                              bool schema_only) const {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list must not be empty");
  }
  // Index fast path: a conjunct `col op literal` (or `col BETWEEN lit AND
  // lit` — the shape the semantic optimizer's narrowing emits) over an
  // indexed column of a FROM table lets us materialize only the admitted
  // rows. The full WHERE is re-applied later, so over-approximating
  // (closed hull of an open interval) is safe. Admitted row ids come back
  // ascending, so the filtered table keeps base-relation row order.
  auto index_rows = [&](const TableRef& ref, const Relation& rel)
      -> std::optional<std::vector<size_t>> {
    for (const SqlExpr* conjunct : TopLevelConjuncts(stmt.where.get())) {
      if (conjunct->kind == SqlExpr::Kind::kBetween) {
        if (conjunct->lhs.kind != SqlOperand::Kind::kColumn ||
            conjunct->low.kind != SqlOperand::Kind::kLiteral ||
            conjunct->high.kind != SqlOperand::Kind::kLiteral) {
          continue;
        }
        const ColumnRef& column = conjunct->lhs.column;
        if (!column.qualifier.empty()) {
          if (!EqualsIgnoreCase(column.qualifier, ref.effective_name()) &&
              !EqualsIgnoreCase(column.qualifier, ref.name)) {
            continue;
          }
        } else if (stmt.from.size() != 1) {
          continue;
        }
        auto attr_idx = rel.schema().IndexOf(column.name);
        if (!attr_idx.ok()) continue;
        const SortedIndex* index = db_->GetIndex(ref.name, column.name);
        if (index == nullptr) continue;
        ValueType type = rel.schema().attribute(*attr_idx).type;
        auto lo = CoerceLiteral(conjunct->low.literal, conjunct->low.raw, type);
        auto hi =
            CoerceLiteral(conjunct->high.literal, conjunct->high.raw, type);
        if (!lo.ok() || !hi.ok()) continue;
        if (!lo->ComparableWith(*hi)) continue;
        if (*lo > *hi) return std::vector<size_t>{};
        return index->Range(*lo, *hi);
      }
      if (conjunct->kind != SqlExpr::Kind::kComparison) continue;
      if (conjunct->op == CompareOp::kNe) continue;
      const SqlOperand* col = nullptr;
      const SqlOperand* lit = nullptr;
      CompareOp op = conjunct->op;
      if (conjunct->lhs.kind == SqlOperand::Kind::kColumn &&
          conjunct->rhs.kind == SqlOperand::Kind::kLiteral) {
        col = &conjunct->lhs;
        lit = &conjunct->rhs;
      } else if (conjunct->rhs.kind == SqlOperand::Kind::kColumn &&
                 conjunct->lhs.kind == SqlOperand::Kind::kLiteral) {
        col = &conjunct->rhs;
        lit = &conjunct->lhs;
        switch (op) {  // mirror
          case CompareOp::kLt: op = CompareOp::kGt; break;
          case CompareOp::kLe: op = CompareOp::kGe; break;
          case CompareOp::kGt: op = CompareOp::kLt; break;
          case CompareOp::kGe: op = CompareOp::kLe; break;
          default: break;
        }
      } else {
        continue;
      }
      // The column must belong to this table. Qualified refs must match
      // the table; unqualified refs only qualify with a single-table FROM.
      if (!col->column.qualifier.empty()) {
        if (!EqualsIgnoreCase(col->column.qualifier, ref.effective_name()) &&
            !EqualsIgnoreCase(col->column.qualifier, ref.name)) {
          continue;
        }
      } else if (stmt.from.size() != 1) {
        continue;
      }
      auto attr_idx = rel.schema().IndexOf(col->column.name);
      if (!attr_idx.ok()) continue;
      const SortedIndex* index = db_->GetIndex(ref.name, col->column.name);
      if (index == nullptr) continue;
      auto coerced = CoerceLiteral(lit->literal, lit->raw,
                                   rel.schema().attribute(*attr_idx).type);
      if (!coerced.ok()) continue;
      auto lo = index->Min();
      auto hi = index->Max();
      if (!lo.ok() || !hi.ok()) {
        return std::vector<size_t>{};  // empty index: nothing matches
      }
      Value range_lo = *lo;
      Value range_hi = *hi;
      switch (op) {
        case CompareOp::kEq:
          range_lo = range_hi = *coerced;
          break;
        case CompareOp::kLt:
        case CompareOp::kLe:
          range_hi = *coerced;
          break;
        case CompareOp::kGt:
        case CompareOp::kGe:
          range_lo = *coerced;
          break;
        default:
          continue;
      }
      if (!range_lo.ComparableWith(range_hi)) continue;
      if (range_lo > range_hi) return std::vector<size_t>{};
      return index->Range(range_lo, range_hi);
    }
    return std::nullopt;
  };

  // Load and qualify each table. Virtual (sys.*) relations are
  // materialized from live registries per scan; they have no indexes, so
  // the fast path only applies to stored relations.
  std::vector<Relation> tables;
  std::set<std::string> names;
  bool where_filtered = false;
  for (const TableRef& ref : stmt.from) {
    std::optional<Relation> materialized;
    const Relation* rel = nullptr;
    if (db_->IsVirtual(ref.name)) {
      IQS_ASSIGN_OR_RETURN(Relation snapshot,
                           db_->MaterializeVirtual(ref.name));
      materialized = std::move(snapshot);
      rel = &*materialized;
    } else {
      IQS_ASSIGN_OR_RETURN(rel, db_->Get(ref.name));
    }
    std::string effective = ref.effective_name();
    if (!names.insert(ToLower(effective)).second) {
      return Status::InvalidArgument("duplicate table name/alias '" +
                                     effective + "' in FROM");
    }
    if (schema_only) {
      // Proven-empty scan skip: only the schema participates; joins,
      // WHERE binding, aggregation, and projection all still run so the
      // output shape (and any error) matches a real scan of zero rows.
      Relation empty(rel->name(), rel->schema());
      tables.push_back(QualifyFor(empty, effective));
      continue;
    }
    std::optional<std::vector<size_t>> admitted =
        materialized.has_value() ? std::nullopt : index_rows(ref, *rel);
    if (admitted.has_value()) {
      ++stats_.index_prefiltered_tables;
      Relation filtered(rel->name(), rel->schema());
      for (size_t r : *admitted) filtered.AppendUnchecked(rel->row(r));
      stats_.base_rows_loaded += filtered.size();
      tables.push_back(QualifyFor(filtered, effective));
      IQS_RETURN_IF_ERROR(exec::ChargeRows("sql.scan", tables.back().size(),
                                           tables.back().schema().size()));
      continue;
    }
    stats_.base_rows_loaded += rel->size();
    // Columnar fast path: a one-table restriction with no usable index
    // runs as a zone-map-pruned batch scan over the columnar snapshot
    // and arrives here already WHERE-filtered.
    if (stmt.from.size() == 1 && stmt.where != nullptr &&
        !materialized.has_value() && ColumnarEnabled()) {
      Relation empty(rel->name(), rel->schema());
      Relation qualified = QualifyFor(empty, effective);
      IQS_ASSIGN_OR_RETURN(bool scanned,
                           TryColumnarScan(ref, stmt, &qualified));
      if (scanned) {
        tables.push_back(std::move(qualified));
        where_filtered = true;
        continue;
      }
    }
    tables.push_back(QualifyFor(*rel, effective));
    // The qualified copy is the scan stage's big materialization — the
    // whole base relation duplicated under qualified names.
    IQS_RETURN_IF_ERROR(exec::ChargeRows("sql.scan", tables.back().size(),
                                         tables.back().schema().size()));
  }

  // Collect equi-join conditions (column = column across two tables).
  struct JoinCond {
    ColumnRef left;
    ColumnRef right;
    bool used = false;
  };
  std::vector<JoinCond> join_conds;
  for (const SqlExpr* conjunct : TopLevelConjuncts(stmt.where.get())) {
    if (conjunct->kind != SqlExpr::Kind::kComparison) continue;
    if (conjunct->op != CompareOp::kEq) continue;
    if (conjunct->lhs.kind != SqlOperand::Kind::kColumn ||
        conjunct->rhs.kind != SqlOperand::Kind::kColumn) {
      continue;
    }
    join_conds.push_back(JoinCond{conjunct->lhs.column, conjunct->rhs.column});
  }

  // Greedy join plan: start with the first table; repeatedly attach a
  // table linked by a join condition, else cross-product the next one.
  std::vector<bool> joined(tables.size(), false);
  Relation working = tables[0];
  joined[0] = true;
  size_t remaining = tables.size() - 1;
  auto resolves_in = [](const Relation& rel, const ColumnRef& ref) {
    return ResolveColumn(rel.schema(), ref).ok();
  };
  while (remaining > 0) {
    bool attached = false;
    for (JoinCond& cond : join_conds) {
      if (cond.used) continue;
      for (size_t t = 0; t < tables.size(); ++t) {
        if (joined[t]) continue;
        // One side must resolve in `working`, the other in table t.
        const ColumnRef* in_working = nullptr;
        const ColumnRef* in_table = nullptr;
        if (resolves_in(working, cond.left) &&
            resolves_in(tables[t], cond.right)) {
          in_working = &cond.left;
          in_table = &cond.right;
        } else if (resolves_in(working, cond.right) &&
                   resolves_in(tables[t], cond.left)) {
          in_working = &cond.right;
          in_table = &cond.left;
        } else {
          continue;
        }
        IQS_ASSIGN_OR_RETURN(size_t wi,
                             ResolveColumn(working.schema(), *in_working));
        IQS_ASSIGN_OR_RETURN(size_t ti,
                             ResolveColumn(tables[t].schema(), *in_table));
        IQS_ASSIGN_OR_RETURN(
            working, JoinOn(working, working.schema().attribute(wi).name,
                            tables[t], tables[t].schema().attribute(ti).name));
        joined[t] = true;
        cond.used = true;
        --remaining;
        attached = true;
        break;
      }
      if (attached) break;
    }
    if (!attached) {
      // No join condition reaches an unjoined table: cross product.
      for (size_t t = 0; t < tables.size(); ++t) {
        if (joined[t]) continue;
        std::vector<AttributeDef> attrs = working.schema().attributes();
        attrs.insert(attrs.end(), tables[t].schema().attributes().begin(),
                     tables[t].schema().attributes().end());
        IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
        Relation crossed(working.name() + "x" + tables[t].name(),
                         std::move(schema));
        // Cross products are the canonical runaway materialization; one
        // governance charge per outer row bounds the damage to a single
        // inner sweep.
        size_t crossed_width = crossed.schema().size();
        for (const Tuple& lt : working.rows()) {
          IQS_RETURN_IF_ERROR(exec::ChargeRows("sql.join", tables[t].size(),
                                               crossed_width));
          for (const Tuple& rt : tables[t].rows()) {
            crossed.AppendUnchecked(Tuple::Concat(lt, rt));
          }
        }
        working = std::move(crossed);
        joined[t] = true;
        --remaining;
        break;
      }
    }
  }

  // Filter with the full WHERE clause (unless the columnar scan already
  // applied it). Partitioned scan: chunks keep local row vectors
  // concatenated in chunk order, so row order and the first reported
  // error match the serial scan.
  if (stmt.where != nullptr && !where_filtered) {
    IQS_ASSIGN_OR_RETURN(PredicatePtr pred,
                         BindExpr(working.schema(), *stmt.where));
    const std::vector<Tuple>& rows = working.rows();
    using Part = Result<std::vector<Tuple>>;
    Part kept = exec::ParallelReduce<Part>(
        "exec.scan", rows.size(), 256, std::vector<Tuple>{},
        [&rows, &pred](size_t begin, size_t end) -> Part {
          std::vector<Tuple> local;
          for (size_t i = begin; i < end; ++i) {
            if (((i - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("sql.scan");
            IQS_ASSIGN_OR_RETURN(bool keep, pred->Eval(rows[i]));
            if (keep) local.push_back(rows[i]);
          }
          return local;
        },
        [](Part* acc, Part&& part) {
          if (!acc->ok()) return;
          if (!part.ok()) {
            *acc = std::move(part);
            return;
          }
          std::vector<Tuple>& dst = **acc;
          for (Tuple& t : *part) dst.push_back(std::move(t));
        });
    if (!kept.ok()) return kept.status();
    Relation filtered(working.name(), working.schema());
    for (Tuple& t : *kept) filtered.AppendUnchecked(std::move(t));
    working = std::move(filtered);
  }

  // Aggregation path: grouping replaces plain projection.
  if (stmt.has_aggregates() || !stmt.group_by.empty() ||
      stmt.having != nullptr) {
    IQS_ASSIGN_OR_RETURN(Relation aggregated,
                         ExecuteAggregate(working, stmt));
    if (stmt.having != nullptr) {
      // HAVING references select-list aggregates by their rendered name
      // and group columns by their base name — both resolve against the
      // aggregated schema.
      IQS_ASSIGN_OR_RETURN(PredicatePtr having,
                           BindExpr(aggregated.schema(), *stmt.having));
      Relation filtered(aggregated.name(), aggregated.schema());
      for (const Tuple& row : aggregated.rows()) {
        IQS_ASSIGN_OR_RETURN(bool keep, having->Eval(row));
        if (keep) filtered.AppendUnchecked(row);
      }
      aggregated = std::move(filtered);
    }
    // ORDER BY applies to the aggregated output (group columns). Output
    // columns carry base names, so a qualified sort key falls back to
    // its base name.
    if (!stmt.order_by.empty()) {
      std::vector<std::pair<size_t, bool>> keys;
      for (const OrderItem& item : stmt.order_by) {
        auto idx = ResolveColumn(aggregated.schema(), item.column);
        if (!idx.ok() && !item.column.qualifier.empty()) {
          idx = ResolveColumn(aggregated.schema(),
                              ColumnRef{"", item.column.name});
        }
        if (!idx.ok()) return idx.status();
        keys.emplace_back(*idx, item.descending);
      }
      std::vector<Tuple> rows = aggregated.rows();
      std::stable_sort(rows.begin(), rows.end(),
                       [&keys](const Tuple& a, const Tuple& b) {
                         for (const auto& [idx, desc] : keys) {
                           int c = a.at(idx).Compare(b.at(idx));
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
      Relation sorted(aggregated.name(), aggregated.schema());
      for (Tuple& t : rows) sorted.AppendUnchecked(std::move(t));
      return sorted;
    }
    return aggregated;
  }

  // ORDER BY before projection so sort keys need not be selected.
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;
    for (const OrderItem& item : stmt.order_by) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           ResolveColumn(working.schema(), item.column));
      keys.emplace_back(idx, item.descending);
    }
    std::vector<Tuple> rows = working.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [&keys](const Tuple& a, const Tuple& b) {
                       for (const auto& [idx, desc] : keys) {
                         int c = a.at(idx).Compare(b.at(idx));
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    Relation sorted(working.name(), working.schema());
    for (Tuple& t : rows) sorted.AppendUnchecked(std::move(t));
    working = std::move(sorted);
  }

  // Projection. Output columns are named by their base name unless that
  // would collide, in which case the qualified name is kept.
  std::vector<size_t> indices;
  if (stmt.select_all) {
    for (size_t i = 0; i < working.schema().size(); ++i) indices.push_back(i);
  } else {
    for (const SelectItem& item : stmt.select_list) {
      IQS_ASSIGN_OR_RETURN(size_t idx,
                           ResolveColumn(working.schema(), item.column));
      indices.push_back(idx);
    }
  }
  std::map<std::string, int> base_counts;
  for (size_t idx : indices) {
    base_counts[ToLower(BaseName(working.schema().attribute(idx).name))] += 1;
  }
  std::vector<AttributeDef> out_attrs;
  for (size_t idx : indices) {
    AttributeDef def = working.schema().attribute(idx);
    std::string base = BaseName(def.name);
    if (base_counts[ToLower(base)] == 1) def.name = base;
    out_attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Relation result("result", std::move(out_schema));
  std::set<Tuple> seen;
  for (const Tuple& t : working.rows()) {
    Tuple projected;
    for (size_t idx : indices) projected.Append(t.at(idx));
    if (stmt.distinct && !seen.insert(projected).second) continue;
    result.AppendUnchecked(std::move(projected));
  }
  return result;
}

Result<Relation> SqlExecutor::ExecuteAggregate(const Relation& working,
                                               const SelectStatement& stmt) {
  if (stmt.select_all) {
    return Status::InvalidArgument("SELECT * cannot be combined with "
                                   "aggregates or GROUP BY");
  }
  // Resolve group columns.
  std::vector<size_t> group_cols;
  for (const ColumnRef& ref : stmt.group_by) {
    IQS_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(working.schema(), ref));
    group_cols.push_back(idx);
  }
  // Resolve select items; plain items must be grouped.
  struct BoundItem {
    const SelectItem* item;
    size_t column = 0;  // unused for COUNT(*)
  };
  std::vector<BoundItem> items;
  for (const SelectItem& item : stmt.select_list) {
    BoundItem bound{&item, 0};
    if (!(item.is_aggregate() && item.star)) {
      IQS_ASSIGN_OR_RETURN(bound.column,
                           ResolveColumn(working.schema(), item.column));
    }
    if (!item.is_aggregate()) {
      bool grouped = false;
      for (size_t g : group_cols) {
        if (g == bound.column) grouped = true;
      }
      if (!grouped) {
        return Status::InvalidArgument(
            "column '" + item.column.ToString() +
            "' must appear in GROUP BY or inside an aggregate");
      }
    }
    items.push_back(bound);
  }

  // Output schema.
  std::vector<AttributeDef> attrs;
  for (const BoundItem& bound : items) {
    const SelectItem& item = *bound.item;
    AttributeDef def;
    def.name = item.ToString();
    if (!item.is_aggregate()) {
      def = working.schema().attribute(bound.column);
      def.name = BaseName(def.name);
      def.is_key = false;
    } else {
      switch (item.fn) {
        case AggregateFn::kCount:
          def.type = ValueType::kInt;
          break;
        case AggregateFn::kMin:
        case AggregateFn::kMax:
          def.type = working.schema().attribute(bound.column).type;
          break;
        case AggregateFn::kSum:
          def.type =
              working.schema().attribute(bound.column).type == ValueType::kInt
                  ? ValueType::kInt
                  : ValueType::kReal;
          break;
        case AggregateFn::kAvg:
          def.type = ValueType::kReal;
          break;
        case AggregateFn::kNone:
          break;
      }
      if (item.fn == AggregateFn::kSum || item.fn == AggregateFn::kAvg) {
        ValueType source = working.schema().attribute(bound.column).type;
        if (source != ValueType::kInt && source != ValueType::kReal) {
          return Status::TypeError(std::string(AggregateFnName(item.fn)) +
                                   " requires a numeric column");
        }
      }
    }
    attrs.push_back(std::move(def));
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out("result", std::move(schema));

  // Group rows (group key compares by Tuple order). Without GROUP BY,
  // everything is one group — present even for empty input. Partitioned
  // grouping: chunks build local key -> row-index maps, merged in chunk
  // order so each group's index list stays ascending; the per-group
  // accumulation below then visits rows in exactly the serial order
  // (which keeps even float SUM/AVG byte-identical).
  using GroupMap = Result<std::map<Tuple, std::vector<size_t>>>;
  GroupMap grouped = exec::ParallelReduce<GroupMap>(
      "exec.aggregate", working.size(), 512,
      std::map<Tuple, std::vector<size_t>>{},
      [&working, &group_cols](size_t begin, size_t end) -> GroupMap {
        std::map<Tuple, std::vector<size_t>> local;
        for (size_t r = begin; r < end; ++r) {
          if (((r - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("sql.aggregate");
          Tuple key;
          for (size_t g : group_cols) key.Append(working.row(r).at(g));
          local[std::move(key)].push_back(r);
        }
        return local;
      },
      [](GroupMap* acc, GroupMap&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        for (auto& [key, rows] : *part) {
          std::vector<size_t>& dst = (**acc)[key];
          dst.insert(dst.end(), rows.begin(), rows.end());
        }
      });
  if (!grouped.ok()) return grouped.status();
  std::map<Tuple, std::vector<size_t>>& groups = *grouped;
  if (group_cols.empty() && groups.empty()) groups[Tuple()] = {};

  size_t emitted_groups = 0;
  for (const auto& [key, rows] : groups) {
    if ((emitted_groups++ & 255) == 0) IQS_GOV_CHECKPOINT("sql.aggregate");
    Tuple result_row;
    for (const BoundItem& bound : items) {
      const SelectItem& item = *bound.item;
      if (!item.is_aggregate()) {
        // Group column: take the value from any member row.
        result_row.Append(rows.empty() ? Value::Null()
                                       : working.row(rows[0]).at(bound.column));
        continue;
      }
      if (item.fn == AggregateFn::kCount && item.star) {
        result_row.Append(Value::Int(static_cast<int64_t>(rows.size())));
        continue;
      }
      int64_t count = 0;
      Value min, max;
      double sum = 0.0;
      bool sum_is_int =
          working.schema().attribute(bound.column).type == ValueType::kInt;
      int64_t int_sum = 0;
      for (size_t r : rows) {
        const Value& v = working.row(r).at(bound.column);
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
          result_row.Append(Value::Int(count));
          break;
        case AggregateFn::kMin:
          result_row.Append(min);
          break;
        case AggregateFn::kMax:
          result_row.Append(max);
          break;
        case AggregateFn::kSum:
          result_row.Append(count == 0 ? Value::Null()
                            : sum_is_int ? Value::Int(int_sum)
                                         : Value::Real(sum));
          break;
        case AggregateFn::kAvg:
          result_row.Append(count == 0
                                ? Value::Null()
                                : Value::Real(sum / static_cast<double>(
                                                        count)));
          break;
        case AggregateFn::kNone:
          break;
      }
    }
    out.AppendUnchecked(std::move(result_row));
  }
  return out;
}

Result<Relation> SqlExecutor::ExecuteSql(const std::string& sql) const {
  IQS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return Execute(stmt);
}

}  // namespace iqs
