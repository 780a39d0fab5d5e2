#ifndef IQS_SQL_SQL_EXECUTOR_H_
#define IQS_SQL_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "relational/database.h"
#include "sql/sql_ast.h"

namespace iqs {

// Executes SELECT statements against a Database, producing the
// extensional answer (paper §4). Each stored FROM table is read through
// one access path: its index, if one covers a WHERE restriction, seeds
// the candidate rows, and a single-table WHERE runs as the batch scan
// over them. Multi-table FROMs join the loaded tables — the join pairs
// of the WHERE clause's classification drive a greedy hash-join plan;
// remaining tables fall back to cross products — and filter the result
// by the full WHERE predicate. Then the working relation is projected /
// deduplicated / sorted.
class SqlExecutor {
 public:
  // `db` must outlive the executor.
  explicit SqlExecutor(const Database* db) : db_(db) {}

  Result<Relation> Execute(const SelectStatement& stmt) const;

  // Runs the full pipeline with every FROM table materialized as its
  // schema over ZERO rows. Used by the semantic optimizer when the WHERE
  // clause is provably unsatisfiable: the result has exactly the schema,
  // aggregate, and ordering shape a real scan of an empty answer would
  // produce (an aggregate query without GROUP BY still yields its single
  // group row), but no base rows are read and rows_scanned stays 0.
  Result<Relation> ExecuteSchemaOnly(const SelectStatement& stmt) const;

  // Parses and executes.
  Result<Relation> ExecuteSql(const std::string& sql) const;

  // Observability for the table-access path. An index covering a
  // recognized `column op literal` restriction seeds the candidate row
  // ids, and only those are loaded (the full WHERE still applies, so
  // open bounds may over-approximate safely).
  struct ExecutionStats {
    size_t index_prefiltered_tables = 0;  // index-seeded FROM tables
    size_t base_rows_loaded = 0;  // candidate rows across FROM tables
    size_t rows_returned = 0;     // result cardinality
    // Single-table WHEREs run as the batch scan over the columnar
    // snapshot (DESIGN.md §14): tables scanned so, and the zone-map block
    // accounting. Pruning shows up here, not in base_rows_loaded.
    size_t columnar_tables = 0;
    size_t columnar_blocks_total = 0;
    size_t columnar_blocks_pruned = 0;
  };
  // Stats of the last query executed ON THE CALLING THREAD. The slot is
  // thread-local so one executor can serve concurrent queries without the
  // bookkeeping of one racing the reporting of another.
  const ExecutionStats& last_stats() const;

  // Resolves `ref` against a working schema whose attributes are named
  // "<table-or-alias>.<attr>": qualified refs match exactly; unqualified
  // refs match by base name and must be unambiguous. The one column
  // resolver: the executor's binder calls it on the working schema, and
  // FromScope (sql/conjunct.h) on the FROM list's qualified attributes,
  // through which the query processor's description, the semantic
  // optimizer and the executor's access and join planning read WHERE.
  static Result<size_t> ResolveColumn(const Schema& schema,
                                      const ColumnRef& ref);

 private:
  // Shared instrumentation wrapper around ExecuteInternal.
  Result<Relation> ExecuteMeasured(const SelectStatement& stmt,
                                   bool schema_only) const;

  // Execute minus the instrumentation wrapper: the join/filter/project
  // pipeline with its many exit points. With `schema_only`, FROM tables
  // contribute their schemas but no rows.
  Result<Relation> ExecuteInternal(const SelectStatement& stmt,
                                   bool schema_only) const;

  // Hash equi-join of two working relations on the named columns.
  static Result<Relation> JoinOn(const Relation& left,
                                 const std::string& left_col,
                                 const Relation& right,
                                 const std::string& right_col);

  // Grouping/aggregation over the filtered working relation: used when
  // the statement has aggregates or a GROUP BY. Plain select items must
  // appear in the GROUP BY list; an aggregate query without GROUP BY
  // forms a single group (one output row, even over empty input).
  static Result<Relation> ExecuteAggregate(const Relation& working,
                                           const SelectStatement& stmt);

  // Binds a WHERE expression tree to a Predicate over `schema`, coercing
  // literals to the compared column's type (numeric literals against CHAR
  // columns keep their spelling: CLASS = 0101 means CLASS = '0101').
  static Result<PredicatePtr> BindExpr(const Schema& schema,
                                       const SqlExpr& expr);
  static Result<ExprPtr> BindOperand(const Schema& schema,
                                     const SqlOperand& operand,
                                     const SqlOperand& other);

  const Database* db_;
  static thread_local ExecutionStats stats_;
};

}  // namespace iqs

#endif  // IQS_SQL_SQL_EXECUTOR_H_
