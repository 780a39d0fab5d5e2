#ifndef IQS_QUEL_QUEL_SESSION_H_
#define IQS_QUEL_QUEL_SESSION_H_

#include <map>
#include <string>
#include <vector>

#include "quel/quel_ast.h"
#include "relational/database.h"
#include "sql/sql_ast.h"

namespace iqs {

// Executes QUEL statements against a Database with INGRES-style tuple
// variable semantics. Range declarations persist for the session's
// lifetime, so the paper's §5.2.1 scripts run as written:
//
//   QuelSession session(&db);
//   session.ExecuteText("range of r is SUBMARINE");
//   session.ExecuteText(
//       "retrieve into S unique (r.Class, r.Id) sort by r.Class");
//
// The session is a translator: retrieve and delete lower to a
// SelectStatement over one FROM entry per tuple variable (aliased by the
// variable) and run through SqlExecutor, so QUEL reads rows exactly the
// way SQL does. Retrieval semantics: the statement ranges over all
// combinations of the tuple variables it mentions; the qualification
// filters; the target list projects (with `unique` deduplicating).
// `retrieve into` materializes the result in the database, replacing any
// relation of the same name. A delete removes the tuples of its variable
// for which some combination of the other mentioned variables satisfies
// the qualification.
class QuelSession {
 public:
  // `db` must outlive the session.
  explicit QuelSession(Database* db) : db_(db) {}

  struct ExecutionResult {
    Relation relation;    // retrieve output; empty otherwise
    size_t affected = 0;  // deleted / appended tuple count
    // Batch-scan accounting of the statement's query (zero when no
    // single-table scan ran): zone-map blocks considered and skipped.
    size_t columnar_blocks_total = 0;
    size_t columnar_blocks_pruned = 0;
  };

  Result<ExecutionResult> Execute(const QuelStatement& statement);
  Result<ExecutionResult> ExecuteText(const std::string& text);
  // Runs a whole script; returns the result of the LAST statement.
  Result<ExecutionResult> ExecuteScript(const std::string& text);

  // The relation a tuple variable currently ranges over.
  Result<std::string> RelationOf(const std::string& variable) const;

 private:
  Result<ExecutionResult> ExecuteRange(const QuelRangeStatement& stmt);
  Result<ExecutionResult> ExecuteRetrieve(const QuelRetrieveStatement& stmt);
  Result<ExecutionResult> ExecuteDelete(const QuelDeleteStatement& stmt);
  Result<ExecutionResult> ExecuteAppend(const QuelAppendStatement& stmt);

  // Collects the variables a statement mentions, in first-use order.
  static void CollectVariables(const QuelExprPtr& expr,
                               std::vector<std::string>* out);
  static void AddVariable(const std::string& variable,
                          std::vector<std::string>* out);

  // One FROM entry per variable, in order: its relation, aliased by the
  // variable.
  Result<std::vector<TableRef>> FromList(
      const std::vector<std::string>& variables) const;

  Database* db_;
  std::map<std::string, std::string> ranges_;  // lower(var) -> relation
};

}  // namespace iqs

#endif  // IQS_QUEL_QUEL_SESSION_H_
