#include "tests/quel_induction.h"

#include <map>
#include <set>

#include "quel/quel_session.h"

namespace iqs {
namespace testing_util {

namespace {

// Temporary relation names (the paper calls them S and T; prefixed here
// so user relations are never clobbered).
constexpr char kTempS[] = "IQS_TMP_S";
constexpr char kTempT[] = "IQS_TMP_T";

}  // namespace

Result<std::vector<Rule>> InduceSchemeViaQuel(Database* db,
                                              const std::string& relation,
                                              const std::string& x_attr,
                                              const std::string& y_attr,
                                              const InductionConfig& config) {
  if (config.run_policy != RunPolicy::kDatabaseDomain) {
    return Status::InvalidArgument(
        "the QUEL reference path implements the paper's kDatabaseDomain "
        "run policy only");
  }
  IQS_ASSIGN_OR_RETURN(const Relation* base, db->Get(relation));
  IQS_ASSIGN_OR_RETURN(size_t xi, base->schema().IndexOf(x_attr));
  IQS_ASSIGN_OR_RETURN(size_t yi, base->schema().IndexOf(y_attr));
  if (xi == yi) {
    return Status::InvalidArgument("X and Y must be distinct attributes");
  }

  QuelSession session(db);
  // Step 1: retrieve into S unique (r.Y, r.X) sort by r.Y.
  IQS_RETURN_IF_ERROR(
      session.ExecuteText("range of r is " + relation).status());
  IQS_RETURN_IF_ERROR(
      session
          .ExecuteText("retrieve into " + std::string(kTempS) +
                       " unique (r." + y_attr + ", r." + x_attr +
                       ") sort by r." + y_attr)
          .status());
  // Step 2: T := pairs whose X maps to several Y values; delete them
  // from S.
  IQS_RETURN_IF_ERROR(
      session.ExecuteText("range of s is " + std::string(kTempS)).status());
  IQS_RETURN_IF_ERROR(
      session
          .ExecuteText("retrieve into " + std::string(kTempT) +
                       " unique (s." + y_attr + ", s." + x_attr +
                       ") where (r." + x_attr + " = s." + x_attr +
                       " and r." + y_attr + " != s." + y_attr + ")")
          .status());
  IQS_RETURN_IF_ERROR(
      session.ExecuteText("range of t is " + std::string(kTempT)).status());
  IQS_RETURN_IF_ERROR(session
                          .ExecuteText("delete s where (s." + x_attr +
                                       " = t." + x_attr + " and s." + y_attr +
                                       " = t." + y_attr + ")")
                          .status());

  // Step 3: runs over the database's X domain. Consistent X values (and
  // their single Y) come from the surviving S; inconsistent X values
  // from T; both participate in the domain enumeration, with
  // inconsistent values breaking runs.
  IQS_ASSIGN_OR_RETURN(const Relation* s_rel, db->Get(kTempS));
  IQS_ASSIGN_OR_RETURN(const Relation* t_rel, db->Get(kTempT));
  std::map<Value, Value> y_of_x;  // consistent only
  for (const Tuple& row : s_rel->rows()) {
    const Value& y = row.at(0);
    const Value& x = row.at(1);
    if (x.is_null() || y.is_null()) continue;
    y_of_x[x] = y;
  }
  std::set<Value> inconsistent;
  for (const Tuple& row : t_rel->rows()) {
    const Value& x = row.at(1);
    if (!x.is_null()) inconsistent.insert(x);
  }
  std::map<Value, bool> domain;  // x -> consistent?
  for (const auto& [x, y] : y_of_x) domain[x] = true;
  for (const Value& x : inconsistent) domain[x] = false;

  struct Run {
    Value x_lo;
    Value x_hi;
    Value y;
  };
  std::vector<Run> runs;
  bool in_run = false;
  Run current;
  auto close_run = [&] {
    if (in_run) runs.push_back(current);
    in_run = false;
  };
  for (const auto& [x, consistent] : domain) {
    if (!consistent) {
      close_run();
      continue;
    }
    const Value& y = y_of_x[x];
    if (in_run && current.y == y) {
      current.x_hi = x;
    } else {
      close_run();
      current = Run{x, x, y};
      in_run = true;
    }
  }
  close_run();

  // Step 4: support over the base relation, prune, emit. Family
  // completeness mirrors the native path: y values with an inconsistent
  // X, or with a pruned run, are incomplete.
  std::set<Value> incomplete_y;
  for (const Tuple& row : t_rel->rows()) {
    if (!row.at(0).is_null()) incomplete_y.insert(row.at(0));
  }
  std::vector<int64_t> run_support(runs.size(), 0);
  for (size_t i = 0; i < runs.size(); ++i) {
    for (const Tuple& row : base->rows()) {
      const Value& x = row.at(xi);
      const Value& y = row.at(yi);
      if (x.is_null() || y.is_null()) continue;
      if (x >= runs[i].x_lo && x <= runs[i].x_hi && y == runs[i].y) {
        ++run_support[i];
      }
    }
    if (config.prune && run_support[i] < config.min_support) {
      incomplete_y.insert(runs[i].y);
    }
  }
  std::vector<Rule> out;
  for (size_t run_index = 0; run_index < runs.size(); ++run_index) {
    const Run& run = runs[run_index];
    Rule rule;
    rule.scheme = x_attr + "->" + y_attr;
    rule.source_relation = base->name();
    if (run.x_lo == run.x_hi) {
      rule.lhs.push_back(Clause::Equals(x_attr, run.x_lo));
    } else {
      IQS_ASSIGN_OR_RETURN(Clause clause,
                           Clause::Range(x_attr, run.x_lo, run.x_hi));
      rule.lhs.push_back(std::move(clause));
    }
    rule.rhs.clause = Clause::Equals(y_attr, run.y);
    rule.support = run_support[run_index];
    if (config.prune && rule.support < config.min_support) continue;
    rule.family_complete = incomplete_y.count(run.y) == 0;
    out.push_back(std::move(rule));
  }

  IQS_RETURN_IF_ERROR(db->Drop(kTempS));
  IQS_RETURN_IF_ERROR(db->Drop(kTempT));
  return out;
}

}  // namespace testing_util
}  // namespace iqs
