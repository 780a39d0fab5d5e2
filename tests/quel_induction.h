#ifndef IQS_TESTS_QUEL_INDUCTION_H_
#define IQS_TESTS_QUEL_INDUCTION_H_

#include <string>
#include <vector>

#include "induction/induction_config.h"
#include "relational/database.h"
#include "rules/rule.h"

namespace iqs {
namespace testing_util {

// The Rule Induction Algorithm driven by the LITERAL QUEL statements of
// paper §5.2.1 — the paper's prototype "is performed in the ILS which
// uses the relational operations":
//
//   step 1:  range of r is <relation>
//            retrieve into S unique (r.Y, r.X) sort by r.Y
//   step 2:  range of s is S
//            retrieve into T unique (s.Y, s.X)
//              where (r.X = s.X and r.Y != s.Y)
//            range of t is T
//            delete s where (s.X = t.X and s.Y = t.Y)
//   step 3/4: run construction and pruning over the surviving S, exactly
//            as in InduceScheme.
//
// Test-only: produces the same rules as the native InduceScheme under
// RunPolicy::kDatabaseDomain (tested in quel_induction_test.cc). It
// demonstrates that the engine really supports the paper's execution
// strategy — the step 2 self-join with != and the existential delete
// run as lowered QUEL — and is a reference the native path is held to.
//
// `db` is mutated: the temporaries S and T are created (replacing any
// existing relations of those names) and dropped again on success.
Result<std::vector<Rule>> InduceSchemeViaQuel(Database* db,
                                              const std::string& relation,
                                              const std::string& x_attr,
                                              const std::string& y_attr,
                                              const InductionConfig& config);

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_QUEL_INDUCTION_H_
