#ifndef IQS_TESTS_REFERENCE_SQL_H_
#define IQS_TESTS_REFERENCE_SQL_H_

#include <string>

#include "common/result.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace iqs {
namespace testing_util {

// Test-only row-major SQL evaluator: the oracle of the `columnar`
// differential battery (DESIGN.md §14.3). It uses no index, no columnar
// snapshot and no semantic rewrite. It binds the WHERE clause once
// against the FROM tables' qualified schema (same resolution and literal
// coercion as the executor's binder), walks the cross product of the
// base rows in FROM order, evaluating the WHERE row by row with AND/OR
// short-circuiting, and stops at the first error. Projection, DISTINCT,
// ORDER BY, GROUP BY and the five aggregates follow the executor's
// documented output conventions.
//
// Scope: stored relations, at most two FROM tables (the executor's join
// plan keeps FROM order there), no HAVING; anything else returns an
// Internal error starting "reference evaluator", so a corpus cannot
// silently outgrow the oracle. For joins, errors raised by a conjunct
// ahead of the join condition on non-matching pairs are not modelled.
Result<Relation> ReferenceExecute(const Database& db, const std::string& sql);

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_REFERENCE_SQL_H_
