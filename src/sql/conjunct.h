#ifndef IQS_SQL_CONJUNCT_H_
#define IQS_SQL_CONJUNCT_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/algebra.h"
#include "relational/database.h"
#include "rules/interval.h"
#include "sql/sql_ast.h"

namespace iqs {

// The one reading of a statement's FROM list and top-level WHERE
// conjuncts, shared by the query processor's description of the query,
// the semantic optimizer, and the executor's index seed, batch scan and
// join planner.

// Coerces `literal` (spelled `raw` in the query text) for comparison with
// a column of `type`, exactly as the executor binds it: numeric literals
// against CHAR columns keep their spelling (CLASS = 0101 means
// CLASS = '0101'), INT widens to REAL, and strings parse as INT or DATE.
Result<Value> CoerceLiteral(const Value& literal, const std::string& raw,
                            ValueType type);

// One FROM entry as every reader of the statement sees it.
struct FromEntry {
  const TableRef* ref = nullptr;  // as written
  // The stored relation, or `snapshot` for a virtual (sys.*) one.
  const Relation* relation = nullptr;
  std::shared_ptr<const Relation> snapshot;
  // Where the entry's attributes start in FromScope::qualified().
  size_t first = 0;

  bool is_virtual() const { return snapshot != nullptr; }
};

// Where a column reference resolved: FROM entry `table`, attribute
// `column` of that entry's relation.
struct ColumnSite {
  size_t table = 0;
  size_t column = 0;
};

// A statement's FROM list, resolved once.
class FromScope {
 public:
  // Reads every entry in FROM order: a stored relation, or a virtual one
  // materialized. Fails on an unknown relation or a repeated effective
  // name (the alias, else the name), whichever comes first.
  static Result<FromScope> Build(const Database& db,
                                 const std::vector<TableRef>& from);

  const std::vector<FromEntry>& entries() const { return entries_; }

  // Every entry's attributes renamed "<effective name>.<attr>", in FROM
  // order: the schema the executor's joins build.
  const Schema& qualified() const { return qualified_; }
  // The slice of qualified() that is entry `table`'s.
  Schema QualifiedSchema(size_t table) const;

  // Resolves `ref` by SqlExecutor::ResolveColumn over qualified(), so a
  // ref resolves here exactly when it binds after the joins, and fails
  // with the same error when it does not.
  Result<ColumnSite> Resolve(const ColumnRef& ref) const;

  // The resolved column's definition, under its canonical name.
  const AttributeDef& Attribute(const ColumnSite& site) const;

 private:
  std::vector<FromEntry> entries_;
  Schema qualified_;
};

// A top-level WHERE conjunct classified against the FROM scope. `safe`
// means the conjunct cannot raise at bind or eval time (columns resolve,
// literals coerce, compared domains are comparable). `recognized`
// additionally means it restricts one column of one FROM entry to one
// interval.
struct ClassifiedConjunct {
  const SqlExpr* expr = nullptr;
  bool safe = false;
  bool recognized = false;

  // A literal restriction: `column op literal` in either orientation, or
  // `column BETWEEN literal AND literal`, whose column resolves and whose
  // literals coerce to its type. Every recognized conjunct is one; so
  // are `!=`, LIKE, an inverted BETWEEN and a literal coerced to null,
  // which admit no single interval.
  bool restriction = false;
  const ColumnRef* column = nullptr;  // as written
  ColumnSite site;
  std::string attribute;  // canonical schema spelling
  bool between = false;
  CompareOp op = CompareOp::kEq;  // comparisons, read column-first
  bool constant_first = false;    // the literal was written on the left
  Value low;                      // the coerced literal; BETWEEN's low
  Value high;                     // BETWEEN's coerced high bound
  Interval interval;              // admitted values (recognized)

  // A join pair: `column = column` with the sides in two different FROM
  // entries, in the order written.
  std::optional<std::pair<ColumnSite, ColumnSite>> join;
};

ClassifiedConjunct ClassifyConjunct(const FromScope& scope,
                                    const SqlExpr& expr);

// The batch scan's typed conditions for a one-table FROM over `snapshot`:
// the longest prefix of `conjuncts` that are literal restrictions on
// single-typed (not kMixed) columns, a BETWEEN as `>= low` and
// `<= high`. Returns how many conjuncts the prefix holds; the rest form
// the residual. Only a prefix is sound: a conjunct may not run ahead of
// an earlier one that could raise an error for the row.
size_t ScanConditions(const std::vector<ClassifiedConjunct>& conjuncts,
                      const ColumnarRelation& snapshot,
                      std::vector<ColumnCondition>* out);

}  // namespace iqs

#endif  // IQS_SQL_CONJUNCT_H_
