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
#include "sql/conjunct.h"
#include "sql/sql_parser.h"

namespace iqs {

thread_local SqlExecutor::ExecutionStats SqlExecutor::stats_;

// Defined here, beside stats_, rather than inline in the header: UBSan's
// null check rejected the inline accessor's reference to the
// thread_local when it was called from other translation units.
const SqlExecutor::ExecutionStats& SqlExecutor::last_stats() const {
  return stats_;
}

namespace {

std::string BaseName(const std::string& attribute) {
  size_t pos = attribute.rfind('.');
  return pos == std::string::npos ? attribute : attribute.substr(pos + 1);
}

// Appends rows `ids` of `rel` (every row when null) to `out`, charging
// the governance context at `site` per 1024 rows materialized.
template <typename Id>
Status AppendRows(const Relation& rel, const std::vector<Id>* ids,
                  const char* site, Relation* out) {
  size_t count = ids != nullptr ? ids->size() : rel.size();
  size_t width = out->schema().size();
  for (size_t i = 0; i < count; ++i) {
    if ((i & 1023) == 0) {
      IQS_RETURN_IF_ERROR(exec::ChargeRows(
          site, std::min<size_t>(1024, count - i), width));
    }
    out->AppendUnchecked(rel.row(ids != nullptr ? (*ids)[i] : i));
  }
  return Status::Ok();
}

// The working-schema name of a resolved column.
const std::string& QualifiedName(const FromScope& scope,
                                 const ColumnSite& site) {
  return scope.qualified()
      .attribute(scope.entries()[site.table].first + site.column)
      .name;
}

// The ascending row ids of stored FROM entry `table` that its index
// admits, or nullopt to read every row. The seed column is the first
// indexed one, in WHERE order, with a recognized interval; the range is
// the intersection of every recognized interval on it.
std::optional<std::vector<size_t>> IndexSeed(
    const Database& db, const SelectStatement& stmt, size_t table,
    const std::vector<ClassifiedConjunct>& conjuncts) {
  const std::string& relation = stmt.from[table].name;
  const SortedIndex* index = nullptr;
  std::string attribute;
  Interval range;
  for (const ClassifiedConjunct& c : conjuncts) {
    if (!c.recognized || c.site.table != table) continue;
    // An unqualified column seeds only a one-table FROM, so a join's
    // post-join filter sees the rows (and raises the errors) it always
    // has.
    if (c.column->qualifier.empty() && stmt.from.size() != 1) continue;
    if (index == nullptr) {
      index = db.GetIndex(relation, c.attribute);
      if (index == nullptr) continue;
      attribute = c.attribute;
    } else if (!EqualsIgnoreCase(c.attribute, attribute)) {
      continue;
    }
    range = range.Intersection(c.interval);
  }
  if (index == nullptr) return std::nullopt;
  if (range.IsEmpty()) return std::vector<size_t>{};
  // The closed hull of an open or half-bounded range: the WHERE still
  // applies in full, so admitting its endpoints is safe.
  Result<Value> lo = range.lo().has_value() ? *range.lo() : index->Min();
  Result<Value> hi = range.hi().has_value() ? *range.hi() : index->Max();
  if (!lo.ok() || !hi.ok() || *lo > *hi) {
    return std::vector<size_t>{};  // empty index, or a range off its end
  }
  return index->Range(*lo, *hi);
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
    std::string_view base = schema.attribute(i).name;
    size_t dot = base.rfind('.');
    if (dot != std::string_view::npos) base.remove_prefix(dot + 1);
    if (EqualsIgnoreCase(base, ref.name)) {
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

Result<Relation> SqlExecutor::ExecuteInternal(const SelectStatement& stmt,
                                              bool schema_only) const {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list must not be empty");
  }
  // Every stored FROM table is read the same way: the index, when one
  // covers a recognized restriction, picks the candidate row ids; a
  // single-table WHERE then runs as the batch scan over those candidates
  // (zone maps, typed sieve, residual) and is fully applied there. The
  // survivors are materialized once, straight into the qualified
  // relation. Virtual (sys.*) relations are live snapshots with no index
  // or columnar form; joins filter after joining.
  IQS_ASSIGN_OR_RETURN(FromScope scope, FromScope::Build(*db_, stmt.from));
  std::vector<ClassifiedConjunct> conjuncts;
  for (const SqlExpr* conjunct : TopLevelConjuncts(stmt.where.get())) {
    conjuncts.push_back(ClassifyConjunct(scope, *conjunct));
  }
  std::vector<Relation> tables;
  bool where_filtered = false;
  for (size_t t = 0; t < scope.entries().size(); ++t) {
    const FromEntry& entry = scope.entries()[t];
    const Relation& rel = *entry.relation;
    tables.emplace_back(entry.ref->effective_name(),
                        scope.QualifiedSchema(t));
    Relation& qualified = tables.back();
    // Proven-empty scan skip: only the schema participates; joins, WHERE
    // binding, aggregation, and projection all still run so the output
    // shape (and any error) matches a real scan of zero rows.
    if (schema_only) continue;
    std::optional<std::vector<size_t>> seed;
    if (!entry.is_virtual()) seed = IndexSeed(*db_, stmt, t, conjuncts);
    if (seed.has_value()) ++stats_.index_prefiltered_tables;
    stats_.base_rows_loaded += seed.has_value() ? seed->size() : rel.size();
    if (stmt.from.size() == 1 && stmt.where != nullptr &&
        !entry.is_virtual()) {
      // The qualified schema keeps the base relation's attribute order,
      // so its column indexes address the snapshot's columns directly.
      IQS_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> snap,
                           db_->ColumnarSnapshot(entry.ref->name));
      std::vector<ColumnCondition> conditions;
      size_t prefix = ScanConditions(conjuncts, *snap, &conditions);
      // The prefix binds cleanly by construction, so the first bind error
      // here is the one binding the whole WHERE would report.
      PredicatePtr residual;
      for (size_t i = prefix; i < conjuncts.size(); ++i) {
        IQS_ASSIGN_OR_RETURN(PredicatePtr pred,
                             BindExpr(qualified.schema(), *conjuncts[i].expr));
        residual = residual == nullptr ? std::move(pred)
                                       : MakeAnd(std::move(residual),
                                                 std::move(pred));
      }
      ColumnarScanStats scan_stats;
      IQS_ASSIGN_OR_RETURN(
          std::vector<uint32_t> admitted,
          ColumnarScan(*snap, conditions, residual.get(), &scan_stats,
                       seed.has_value() ? &*seed : nullptr));
      IQS_RETURN_IF_ERROR(
          AppendRows(rel, &admitted, "columnar.scan", &qualified));
      where_filtered = true;
      ++stats_.columnar_tables;
      stats_.columnar_blocks_total += scan_stats.blocks_total;
      stats_.columnar_blocks_pruned += scan_stats.blocks_pruned;
      IQS_COUNTER_INC("sql.execute.columnar_path");
      IQS_COUNTER_ADD("sql.execute.columnar_blocks_pruned",
                      scan_stats.blocks_pruned);
      continue;
    }
    IQS_RETURN_IF_ERROR(AppendRows(
        rel, seed.has_value() ? &*seed : nullptr, "sql.scan", &qualified));
  }

  // Greedy join plan: start with the first table; repeatedly attach a
  // table reached by the first join pair (in WHERE order) with one side
  // joined and the other not, else cross-product the next table.
  std::vector<bool> joined(tables.size(), false);
  Relation working = std::move(tables[0]);  // never read again
  joined[0] = true;
  size_t remaining = tables.size() - 1;
  while (remaining > 0) {
    bool attached = false;
    for (const ClassifiedConjunct& c : conjuncts) {
      if (!c.join.has_value()) continue;
      const auto& [a, b] = *c.join;
      if (joined[a.table] == joined[b.table]) continue;
      const ColumnSite& in_working = joined[a.table] ? a : b;
      const ColumnSite& in_table = joined[a.table] ? b : a;
      IQS_ASSIGN_OR_RETURN(
          working, JoinOn(working, QualifiedName(scope, in_working),
                          tables[in_table.table],
                          QualifiedName(scope, in_table)));
      joined[in_table.table] = true;
      --remaining;
      attached = true;
      break;
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
      aggregated.SortBy(keys);
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
    working.SortBy(keys);
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
      // Output columns would share a name, and SQL has no select aliases.
      if (std::find(indices.begin(), indices.end(), idx) != indices.end()) {
        return Status::InvalidArgument("column '" + item.column.ToString() +
                                       "' is selected twice");
      }
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
