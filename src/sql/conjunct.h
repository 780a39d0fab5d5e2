#ifndef IQS_SQL_CONJUNCT_H_
#define IQS_SQL_CONJUNCT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "rules/interval.h"
#include "sql/sql_ast.h"

namespace iqs {

// The one reading of a `column op literal` WHERE conjunct, shared by the
// executor's index seed, the semantic optimizer, and the query
// processor's description of the query.

// Coerces `literal` (spelled `raw` in the query text) for comparison with
// a column of `type`, exactly as the executor binds it: numeric literals
// against CHAR columns keep their spelling (CLASS = 0101 means
// CLASS = '0101'), INT widens to REAL, and strings parse as INT or DATE.
Result<Value> CoerceLiteral(const Value& literal, const std::string& raw,
                            ValueType type);

// A conjunct restricting one column by literals: `column op literal` in
// either orientation (`op` is mirrored to read column-first), or
// `column BETWEEN literal AND literal`.
struct LiteralRestriction {
  const ColumnRef* column = nullptr;
  bool between = false;
  CompareOp op = CompareOp::kEq;     // comparisons only
  const SqlOperand* low = nullptr;   // the literal; BETWEEN's low bound
  const SqlOperand* high = nullptr;  // BETWEEN's high bound only

  // The bounds coerced for a column of `type`; a comparison's single
  // literal fills both slots.
  Result<std::pair<Value, Value>> Coerce(ValueType type) const;

  // The interval of column values the conjunct admits, from coerced
  // bounds. != and LIKE are not intervals (InvalidArgument), nor is a
  // BETWEEN whose bounds are incomparable or inverted.
  Result<Interval> ToInterval(const std::pair<Value, Value>& bounds) const;
};

// Nullopt for any other shape (column-column, literal-literal, OR, NOT).
std::optional<LiteralRestriction> MatchLiteralRestriction(const SqlExpr& expr);

// A top-level WHERE conjunct classified against the FROM list. `safe`
// means the conjunct cannot raise at bind or eval time (columns resolve,
// literals coerce, compared domains are comparable). `recognized`
// additionally means it restricts one column of one FROM entry to one
// interval.
struct ClassifiedConjunct {
  const SqlExpr* expr = nullptr;
  bool safe = false;
  bool recognized = false;
  const ColumnRef* column = nullptr;  // the restricted column (recognized)
  size_t table = 0;                   // owning FROM entry (recognized)
  std::string attribute;  // canonical schema spelling (recognized)
  Interval interval;      // admitted values (recognized)
};

// Columns resolve the way the executor's bind step does: a qualified
// ref matches the entry's effective name (the alias wins), an
// unqualified ref must resolve in exactly one stored FROM entry.
ClassifiedConjunct ClassifyConjunct(const Database& db,
                                    const std::vector<TableRef>& from,
                                    const SqlExpr& expr);

}  // namespace iqs

#endif  // IQS_SQL_CONJUNCT_H_
