// The governance sweep (DESIGN.md §15): every checkpoint in the
// manifest is (a) proven reachable by a real driver — its hit counter
// moves when the driver runs ungoverned — and (b) armed with an
// exec.slow_block stall plus a 1ms deadline and proven to unwind
// cleanly: a typed kDeadlineExceeded (or, for the inference
// checkpoints, a graceful extensional-only degradation), zero leaked
// arena bytes in the governed memory pool, and a system that answers
// the very next ungoverned query normally. A manifest entry without a
// driver here fails the completeness assertion, so checkpoints can
// never outrun their sweep coverage.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec_context.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "quel/quel_session.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using exec::CheckpointHits;
using exec::CheckpointManifest;
using exec::GovernedMemoryPool;
using fault::FailpointRegistry;
using fault::ScopedFailpoint;

// Fires induced rules on the ship testbed (paper Example 1).
constexpr char kRuleQuery[] =
    "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'";

// How one checkpoint is driven, and what a deadline hit there must
// yield. Hard checkpoints sit on the extensional path: the typed error
// surfaces to the caller. Soft checkpoints sit inside inference: the
// processor absorbs the cancellation into an extensional-only
// degradation, composing with the fault-injection policies.
struct CheckpointDriver {
  const char* checkpoint;
  enum class Kind { kSql, kInduce } kind;
  const char* sql;  // kSql only
  bool invalidate_columnar;  // bump the db epoch first (forces transpose)
  bool hard;
};

const std::vector<CheckpointDriver>& Drivers() {
  static const std::vector<CheckpointDriver>* drivers =
      new std::vector<CheckpointDriver>{
          {"sql.scan", CheckpointDriver::Kind::kSql,
           "SELECT Id FROM SUBMARINE", false, true},
          {"sql.join", CheckpointDriver::Kind::kSql,
           "SELECT SUBMARINE.Id FROM SUBMARINE, CLASS "
           "WHERE SUBMARINE.Class = CLASS.Class",
           false, true},
          {"sql.aggregate", CheckpointDriver::Kind::kSql,
           "SELECT COUNT(*) FROM SUBMARINE", false, true},
          {"columnar.scan", CheckpointDriver::Kind::kSql, kRuleQuery, false,
           true},
          {"columnar.transpose", CheckpointDriver::Kind::kSql, kRuleQuery,
           true, true},
          {"ils.induce", CheckpointDriver::Kind::kInduce, nullptr, false,
           true},
          {"ils.segment", CheckpointDriver::Kind::kInduce, nullptr, false,
           true},
          {"infer.match", CheckpointDriver::Kind::kSql, kRuleQuery, false,
           false},
          {"infer.fire", CheckpointDriver::Kind::kSql, kRuleQuery, false,
           false},
      };
  return *drivers;
}

class GovernanceSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = testing_util::ShipSystemOrFail();
    ASSERT_NE(system_, nullptr);
    InductionConfig config;
    config.min_support = 3;
    ASSERT_OK(system_->Induce(config));
  }
  void TearDown() override { FailpointRegistry::Global().ClearAll(); }

  // A cold start for every driver run: a warm plan/answer cache would
  // skip the very stage whose checkpoint is under test.
  void ClearCaches() { system_->processor().cache().Clear(); }

  void InvalidateColumnar() {
    ASSERT_OK_AND_ASSIGN(Relation * rel,
                         system_->database().GetMutable("SUBMARINE"));
    (void)rel;
  }

  // Runs the driver's operation. `options` null = ungoverned. For the
  // induction drivers governance is installed thread-locally, the way a
  // governed wire `induce` would run.
  Result<QueryResult> RunSql(const CheckpointDriver& driver,
                             const QueryOptions* options) {
    ClearCaches();
    if (driver.invalidate_columnar) InvalidateColumnar();
    return options == nullptr ? system_->Query(driver.sql)
                              : system_->Query(driver.sql, *options);
  }

  Status RunInduce() {
    InductionConfig config;
    config.min_support = 3;
    return system_->Induce(config);
  }

  std::unique_ptr<IqsSystem> system_;
};

// Part (a): each driver really reaches its checkpoint, and every
// manifest entry has a driver.
TEST_F(GovernanceSweepTest, EveryManifestCheckpointHasAReachingDriver) {
  for (const CheckpointDriver& driver : Drivers()) {
    SCOPED_TRACE(std::string("checkpoint: ") + driver.checkpoint);
    const uint64_t before = CheckpointHits(driver.checkpoint);
    switch (driver.kind) {
      case CheckpointDriver::Kind::kSql: {
        auto result = RunSql(driver, nullptr);
        ASSERT_TRUE(result.ok()) << result.status();
        break;
      }
      case CheckpointDriver::Kind::kInduce:
        ASSERT_OK(RunInduce());
        break;
    }
    EXPECT_GT(CheckpointHits(driver.checkpoint), before)
        << "driver never reached its checkpoint";
  }

  // Completeness: the manifest cannot grow past the sweep.
  for (const exec::CheckpointInfo& info : CheckpointManifest()) {
    bool covered = false;
    for (const CheckpointDriver& driver : Drivers()) {
      if (info.name == std::string(driver.checkpoint)) covered = true;
    }
    EXPECT_TRUE(covered) << "manifest checkpoint '" << info.name
                         << "' has no sweep driver — add one";
  }
  for (const CheckpointDriver& driver : Drivers()) {
    bool listed = false;
    for (const exec::CheckpointInfo& info : CheckpointManifest()) {
      if (info.name == std::string(driver.checkpoint)) listed = true;
    }
    EXPECT_TRUE(listed) << "sweep driver '" << driver.checkpoint
                        << "' names a checkpoint outside the manifest";
  }
}

// Part (b): an exec.slow_block stall at every checkpoint, under a 1ms
// deadline, unwinds with the declared outcome and leaks nothing.
TEST_F(GovernanceSweepTest, DeadlineAtEveryCheckpointUnwindsCleanly) {
  for (const CheckpointDriver& driver : Drivers()) {
    SCOPED_TRACE(std::string("checkpoint: ") + driver.checkpoint);

    if (driver.hard) {
      // 50ms stall vs a 1ms deadline: the stalled block cannot finish
      // in time, and the typed error must carry kDeadlineExceeded.
      ScopedFailpoint fp("exec.slow_block",
                         std::string("sleep(") + driver.checkpoint + ",50)");
      ASSERT_TRUE(fp.ok());
      Status outcome = Status::Ok();
      switch (driver.kind) {
        case CheckpointDriver::Kind::kSql: {
          QueryOptions options;
          options.deadline_ms = 1;
          auto result = RunSql(driver, &options);
          outcome = result.ok() ? Status::Ok() : result.status();
          break;
        }
        case CheckpointDriver::Kind::kInduce: {
          const size_t rules_before =
              system_->dictionary().induced_rules().size();
          {
            exec::ExecContext::Config config;
            config.deadline = std::chrono::milliseconds(1);
            exec::ExecContext context(std::move(config));
            exec::ScopedExecContext scope(&context);
            outcome = RunInduce();
          }
          // kKeepPrevious composes: the cancelled re-induction leaves
          // the prior rule base installed.
          EXPECT_EQ(system_->dictionary().induced_rules().size(),
                    rules_before);
          break;
        }
      }
      ASSERT_FALSE(outcome.ok());
      EXPECT_EQ(outcome.code(), StatusCode::kDeadlineExceeded) << outcome;
    } else {
      // Inference checkpoints degrade instead of erroring: the
      // extensional answer (finished well inside the generous deadline)
      // survives, the cancelled inference is recorded as degradation.
      ScopedFailpoint fp("exec.slow_block",
                         std::string("times(1):sleep(") + driver.checkpoint +
                             ",2000)");
      ASSERT_TRUE(fp.ok());
      QueryOptions options;
      options.deadline_ms = 500;
      auto result = RunSql(driver, &options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->degraded())
          << "cancelled inference did not degrade";
      EXPECT_EQ(result->stats.gov_cancelled, "DeadlineExceeded");
      EXPECT_GT(result->extensional.size(), 0u);
    }

    // The leak check: whatever the query charged, its context returned
    // to the pool on unwinding.
    EXPECT_EQ(GovernedMemoryPool::Global().used_bytes(), 0u);

    // The system is reusable immediately — same engine, next query.
    FailpointRegistry::Global().ClearAll();
    ClearCaches();
    auto healthy = system_->Query(kRuleQuery);
    ASSERT_TRUE(healthy.ok())
        << "system unusable after governed unwind: " << healthy.status();
    EXPECT_GT(healthy->intensional.size(), 0u);
  }
}

// QUEL lowers onto the SQL executor and has no checkpoint of its own: a
// retrieve and an existential delete under an expired deadline unwind
// at the executor's checkpoints with the typed status, and the delete
// leaves its target relation as it was.
TEST_F(GovernanceSweepTest, QuelUnderExpiredDeadlineUnwindsTyped) {
  QuelSession session(&system_->database());
  ASSERT_OK(session
                .ExecuteScript("range of s is SUBMARINE\n"
                               "range of i is INSTALL")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* ships,
                       system_->database().Get("SUBMARINE"));
  const std::string before = ships->ToTable();
  {
    exec::ExecContext::Config config;
    config.deadline = std::chrono::milliseconds(1);
    exec::ExecContext context(std::move(config));
    exec::ScopedExecContext scope(&context);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto retrieve =
        session.ExecuteText("retrieve (s.Id) where s.Class = \"0204\"");
    ASSERT_FALSE(retrieve.ok());
    EXPECT_EQ(retrieve.status().code(), StatusCode::kDeadlineExceeded)
        << retrieve.status();
    auto del = session.ExecuteText(
        "delete s where s.Id = i.Ship and i.Sonar = \"BQS-04\"");
    ASSERT_FALSE(del.ok());
    EXPECT_EQ(del.status().code(), StatusCode::kDeadlineExceeded)
        << del.status();
  }
  EXPECT_EQ(ships->ToTable(), before);
  EXPECT_EQ(GovernedMemoryPool::Global().used_bytes(), 0u);
  // Ungoverned, the same delete goes through.
  ASSERT_OK_AND_ASSIGN(
      auto deleted,
      session.ExecuteText(
          "delete s where s.Id = i.Ship and i.Sonar = \"BQS-04\""));
  EXPECT_EQ(deleted.affected, 4u);
}

// A genuine (uninjected) memory overrun: a 1kb budget cannot hold the
// materialized SUBMARINE-CLASS join, so the charge at the first
// materialization point cancels the query with kResourceExhausted.
TEST_F(GovernanceSweepTest, MemoryBudgetOverrunIsTypedAndLeakFree) {
  QueryOptions options;
  options.max_memory_kb = 1;
  system_->processor().cache().Clear();
  auto result = system_->Query(
      "SELECT SUBMARINE.Id FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.Class = CLASS.Class",
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
  EXPECT_EQ(GovernedMemoryPool::Global().used_bytes(), 0u);
  system_->processor().cache().Clear();
  EXPECT_TRUE(system_->Query(kRuleQuery).ok());
}

// Success under governance reports its footprint: a roomy budget lets
// the query finish, and the stats carry the deadline and a nonzero
// peak.
TEST_F(GovernanceSweepTest, SuccessfulGovernedQueryReportsFootprint) {
  QueryOptions options;
  options.deadline_ms = 60000;
  options.max_memory_kb = 256 * 1024;
  system_->processor().cache().Clear();
  auto result = system_->Query(kRuleQuery, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.gov_deadline_ms, 60000);
  EXPECT_GT(result->stats.gov_mem_peak_kb, 0u);
  EXPECT_TRUE(result->stats.gov_cancelled.empty());
  EXPECT_EQ(GovernedMemoryPool::Global().used_bytes(), 0u);
}

// An explicit registry cancel lands mid-flight and surfaces as
// kCancelled (or, if it raced the finish line, as a cancelled-but-
// complete result) — and the engine survives either way.
TEST_F(GovernanceSweepTest, RegistryCancelAbortsInFlightQuery) {
  ScopedFailpoint slow("exec.slow_block", "sleep(*,20)");
  ASSERT_TRUE(slow.ok());
  system_->processor().cache().Clear();

  QueryOptions options;
  options.session_id = 7;
  options.request_id = "\"sweep-cancel\"";
  Result<QueryResult> outcome = Status::Internal("never ran");
  std::thread runner(
      [&] { outcome = system_->Query(kRuleQuery, options); });

  bool landed = false;
  for (int i = 0; i < 5000 && !landed; ++i) {
    landed = exec::GovernanceRegistry::Global().CancelQuery(
        7, "\"sweep-cancel\"", StatusCode::kCancelled, "sweep cancel");
    if (!landed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();

  if (landed) {
    if (outcome.ok()) {
      // The cancel raced the last checkpoint; the context still records
      // it.
      EXPECT_EQ(outcome->stats.gov_cancelled, "Cancelled");
    } else {
      EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
          << outcome.status();
    }
  } else {
    // The query finished before any registration was visible — legal,
    // but it must then have finished cleanly.
    EXPECT_TRUE(outcome.ok()) << outcome.status();
  }
  EXPECT_EQ(GovernedMemoryPool::Global().used_bytes(), 0u);
  FailpointRegistry::Global().ClearAll();
  system_->processor().cache().Clear();
  EXPECT_TRUE(system_->Query(kRuleQuery).ok());
}

// sys.checkpoints mirrors the manifest through the stock SQL path, and
// sys.sessions exposes a registered in-flight query.
TEST_F(GovernanceSweepTest, GovernanceCatalogIsQueryable) {
  ASSERT_OK_AND_ASSIGN(QueryResult checkpoints,
                       system_->Query("SELECT name FROM sys.checkpoints"));
  EXPECT_EQ(checkpoints.extensional.size(), CheckpointManifest().size());

  auto context = std::make_shared<exec::ExecContext>([] {
    exec::ExecContext::Config config;
    config.session_id = 42;
    config.request_id = "\"catalog-probe\"";
    config.statement = "SELECT 1";
    return config;
  }());
  exec::ScopedQueryRegistration registration(context);
  ASSERT_OK_AND_ASSIGN(
      QueryResult sessions,
      system_->Query("SELECT session_id, request_id FROM sys.sessions"));
  bool found = false;
  for (size_t r = 0; r < sessions.extensional.size(); ++r) {
    const Tuple& row = sessions.extensional.row(r);
    if (row.at(0) == Value::Int(42)) found = true;
  }
  EXPECT_TRUE(found) << "registered query missing from sys.sessions:\n"
                     << sessions.extensional.ToTable();
}

}  // namespace
}  // namespace iqs
