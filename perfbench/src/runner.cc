#include "runner.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "cache/query_cache.h"
#include "core/semantic_optimizer.h"
#include "exec/thread_pool.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/sql_parser.h"
#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using iqs::IqsSystem;
using iqs::QueryOptions;
using iqs::Result;
using iqs::SqoMode;
using iqs::Status;

constexpr int kWireClients = 2;
// The benchmark process runs on this many CPUs (RunBenchmark).
constexpr int kCpus = 2;
constexpr int kFleetWarmupQueries = 16;
constexpr size_t kAppendixCBatch = 2;  // CLASS rows per identity batch
// The end-to-end run measures in rounds of about this many seconds and
// reports medians over groups of rounds holding at least this many
// queries (so that a group's p99 has 10 samples beyond it) or write
// batches (RunEndToEnd).
constexpr double kRoundSeconds = 1.0;
constexpr size_t kGroupQueries = 1000;
constexpr size_t kGroupWrites = 50;
// The read workloads' admin rounds take this share of --seconds in all.
constexpr double kAdminShare = 0.1;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- answers ----------------------------------------------------------------

// What a caller got back, reduced to what the check compares: the
// fingerprint of the canonical answer text and the epochs it was derived
// under.
struct Answer {
  bool ok = false;
  std::string error;
  uint64_t fingerprint = 0;
  uint64_t rule_epoch = 0;
  uint64_t db_epoch = 0;
};

Answer Failed(std::string error) {
  Answer answer;
  answer.error = std::move(error);
  return answer;
}

Answer Finish(const iqs::QueryResult& result, const std::string& prose) {
  Answer answer;
  answer.ok = true;
  answer.fingerprint =
      Fingerprint(CanonicalAnswer(result.extensional.ToTable(), prose));
  answer.rule_epoch = result.rule_epoch;
  answer.db_epoch = result.db_epoch;
  return answer;
}

bool Matches(const Answer& got, const Answer& want) {
  return got.ok && want.ok && got.fingerprint == want.fingerprint &&
         got.rule_epoch == want.rule_epoch && got.db_epoch == want.db_epoch;
}

// References run uncached and unoptimized, the plainest path to an answer.
QueryOptions ReferenceOptions() {
  QueryOptions options;
  options.sqo = SqoMode::kOff;
  options.use_cache = false;
  return options;
}

// The session options each workload's callers use: cache on, combined
// inference; the fleet workloads also turn the semantic optimizer on.
QueryOptions WorkloadOptions(Workload workload) {
  QueryOptions options;
  options.sqo =
      workload == Workload::kAppendixCWire ? SqoMode::kOff : SqoMode::kOn;
  return options;
}

// One in-process query as its caller sees it: IqsSystem::Query then
// IqsSystem::Explain. `latency_us` covers exactly those two calls.
Answer AskInProcess(const IqsSystem& system, const std::string& sql,
                    const QueryOptions& options, double* latency_us) {
  const Clock::time_point start = Clock::now();
  Result<iqs::QueryResult> result = system.Query(sql, options);
  if (!result.ok()) return Failed(result.status().ToString());
  const std::string prose = system.Explain(*result);
  if (latency_us != nullptr) *latency_us = MicrosBetween(start, Clock::now());
  return Finish(*result, prose);
}

// Per-thread tallies of one phase.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::vector<double> latency_us;  // successful queries only
  std::array<std::vector<double>, kFleetClassCount> class_latency_us;
  std::vector<double> write_us;
  std::vector<double> induce_ms;
  // Counts from the traced pipeline.
  uint64_t requests = 0;
  uint64_t statements = 0;
  uint64_t rules_fired = 0;
  uint64_t rows_loaded = 0;
  uint64_t rows_returned = 0;
  uint64_t blocks_total = 0;
  uint64_t blocks_pruned = 0;
  uint64_t rewrites_attempted = 0;
  uint64_t rewrites_changed = 0;
  std::vector<double> rules_induced;
  std::vector<double> net_overhead_us;
  // Seconds the phase spent on its timed work (fleet_churn's reference
  // checks excluded).
  double active_s = 0.0;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }

  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_us, other.latency_us);
    for (int c = 0; c < kFleetClassCount; ++c) {
      append(class_latency_us[c], other.class_latency_us[c]);
    }
    append(write_us, other.write_us);
    append(induce_ms, other.induce_ms);
    append(rules_induced, other.rules_induced);
    append(net_overhead_us, other.net_overhead_us);
    active_s += other.active_s;
    requests += other.requests;
    statements += other.statements;
    rules_fired += other.rules_fired;
    rows_loaded += other.rows_loaded;
    rows_returned += other.rows_returned;
    blocks_total += other.blocks_total;
    blocks_pruned += other.blocks_pruned;
    rewrites_attempted += other.rewrites_attempted;
    rewrites_changed += other.rewrites_changed;
  }
};

// The query processor's pipeline called layer by layer through the
// layers' public entry points, in IntensionalQueryProcessor::Process's
// order and with its plan and answer caches, one span per call under a
// "request" root. The answer is the one Query + Explain would give.
Answer AskTraced(const IqsSystem& system, const std::string& sql,
                 const QueryOptions& options, SpanRecorder& spans,
                 uint64_t request, Tally& tally, double* latency_us) {
  const iqs::IntensionalQueryProcessor& processor = system.processor();
  iqs::cache::QueryCache& cache = processor.cache();
  iqs::QueryResult result;
  std::string prose;
  const size_t root_index = spans.spans().size();
  {
    ScopedSpan root(&spans, "request", request);
    const iqs::RuleBaseVersion version =
        system.dictionary().induced_rules_version();
    const uint64_t db_epoch = system.database().epoch();
    result.rule_epoch = version.epoch;
    result.db_epoch = db_epoch;
    const bool cache_on = options.use_cache && cache.enabled();
    const std::string plan_key = cache_on ? iqs::cache::NormalizeSql(sql) : "";
    std::shared_ptr<const iqs::cache::CachedPlan> plan;
    if (cache_on) {
      ScopedSpan span(&spans, "cache.plan_lookup", request);
      plan = cache.plans().Lookup(plan_key);
    }
    if (plan != nullptr) {
      result.statement = plan->statement;
    } else {
      Result<iqs::SelectStatement> parsed = [&] {
        ScopedSpan span(&spans, "sql.parse", request);
        return iqs::ParseSelect(sql);
      }();
      if (!parsed.ok()) return Failed(parsed.status().ToString());
      result.statement = std::move(parsed).value();
      if (cache_on) {
        auto fresh = std::make_shared<iqs::cache::CachedPlan>();
        fresh->statement = result.statement;
        cache.plans().Insert(plan_key, std::move(fresh));
      }
    }

    Result<iqs::QueryDescription> description = [&] {
      ScopedSpan span(&spans, "core.describe", request);
      return processor.Describe(result.statement);
    }();
    if (!description.ok()) return Failed(description.status().ToString());
    result.description = std::move(description).value();

    const SqoMode sqo = options.sqo.value_or(processor.sqo_mode());
    std::optional<iqs::RewritePlan> rewrite;
    const std::optional<uint64_t> induced_from =
        system.dictionary().induced_db_epoch();
    const bool rules_current =
        !induced_from.has_value() || *induced_from == db_epoch;
    if (sqo != SqoMode::kOff && version.rules != nullptr && rules_current) {
      if (plan != nullptr && plan->rewrite.has_value() &&
          plan->rewrite_mode == sqo &&
          plan->rewrite_rule_epoch == version.epoch &&
          plan->rewrite_db_epoch == db_epoch) {
        rewrite = plan->rewrite;
      } else {
        iqs::SemanticOptimizer optimizer(&system.dictionary());
        Result<iqs::RewritePlan> fresh = [&] {
          ScopedSpan span(&spans, "core.sqo_rewrite", request);
          return optimizer.Rewrite(result.statement, *version.rules, sqo,
                                   system.database(), processor.engine());
        }();
        ++tally.rewrites_attempted;
        if (fresh.ok()) {
          rewrite = std::move(fresh).value();
          if (rewrite->changed()) {
            ++tally.rewrites_changed;
            if (cache_on) {
              auto entry = std::make_shared<iqs::cache::CachedPlan>();
              entry->statement = result.statement;
              entry->rewrite = *rewrite;
              entry->rewrite_mode = sqo;
              entry->rewrite_rule_epoch = version.epoch;
              entry->rewrite_db_epoch = db_epoch;
              cache.plans().Insert(plan_key, std::move(entry));
            }
          }
        }
      }
    }
    if (rewrite.has_value() && !rewrite->changed()) rewrite.reset();
    if (rewrite.has_value()) result.rewrites = rewrite->steps;

    const iqs::SelectStatement& exec_stmt =
        rewrite.has_value() ? rewrite->statement : result.statement;
    Result<iqs::Relation> extensional = [&] {
      ScopedSpan span(&spans, "sql.execute", request);
      return rewrite.has_value() && rewrite->skip_scan()
                 ? processor.executor().ExecuteSchemaOnly(exec_stmt)
                 : processor.executor().Execute(exec_stmt);
    }();
    if (!extensional.ok()) return Failed(extensional.status().ToString());
    const auto& exec_stats = processor.executor().last_stats();
    tally.rows_loaded += exec_stats.base_rows_loaded;
    tally.rows_returned += extensional->size();
    tally.blocks_total += exec_stats.columnar_blocks_total;
    tally.blocks_pruned += exec_stats.columnar_blocks_pruned;
    result.extensional = std::move(extensional).value();

    bool answer_hit = false;
    std::string answer_key;
    if (cache_on && version.rules != nullptr) {
      answer_key = iqs::cache::AnswerKey(result.description, options.mode,
                                         version.epoch, db_epoch);
      ScopedSpan span(&spans, "cache.answer_lookup", request);
      if (auto cached = cache.answers().Lookup(answer_key)) {
        result.intensional = cached->answer;
        result.degradations = cached->degradations;
        answer_hit = true;
      }
    }
    if (!answer_hit && version.rules != nullptr) {
      Result<iqs::IntensionalAnswer> intensional = [&] {
        ScopedSpan span(&spans, "inference.infer", request);
        return processor.engine().InferWith(result.description, options.mode,
                                            *version.rules,
                                            &result.degradations);
      }();
      if (!intensional.ok()) return Failed(intensional.status().ToString());
      result.intensional = std::move(intensional).value();
      if (cache_on && result.degradations.empty() &&
          system.dictionary().rule_epoch() == version.epoch &&
          system.database().epoch() == db_epoch) {
        auto entry = std::make_shared<iqs::cache::CachedAnswer>();
        entry->answer = result.intensional;
        cache.answers().Insert(answer_key, std::move(entry));
      }
    }

    const iqs::IntensionalStatement* best_backward = nullptr;
    std::set<int> fired;
    for (const iqs::IntensionalStatement& s :
         result.intensional.statements()) {
      if (s.direction != iqs::AnswerDirection::kContains && s.exact &&
          best_backward == nullptr) {
        best_backward = &s;
      }
      fired.insert(s.rule_ids.begin(), s.rule_ids.end());
    }
    tally.statements += result.intensional.size();
    tally.rules_fired += fired.size();
    if (best_backward != nullptr) {
      ScopedSpan span(&spans, "core.coverage", request);
      (void)processor.Coverage(result, *best_backward);
    }

    ScopedSpan span(&spans, "core.format", request);
    prose = system.formatter().Render(result);
  }
  ++tally.requests;
  if (latency_us != nullptr) {
    *latency_us = spans.spans()[root_index].duration_ns() / 1000.0;
  }
  return Finish(result, prose);
}

// ---- the wire ---------------------------------------------------------------

std::string QueryFrame(const std::string& sql) {
  iqs::net::JsonValue frame = iqs::net::JsonValue::Object();
  frame.Set("verb", iqs::net::JsonValue::Str("query"));
  frame.Set("sql", iqs::net::JsonValue::Str(sql));
  return frame.Dump();
}

const std::string kPingFrame = R"({"verb":"ping"})";
const std::string kCacheOffFrame =
    R"({"verb":"set","option":"cache","value":"off"})";

bool ResponseOk(const Result<std::string>& response) {
  if (!response.ok()) return false;
  auto json = iqs::net::JsonValue::Parse(*response);
  if (!json.ok()) return false;
  const iqs::net::JsonValue* ok = json->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

Answer WireAnswer(const Result<std::string>& response) {
  if (!response.ok()) return Failed(response.status().ToString());
  auto json = iqs::net::JsonValue::Parse(*response);
  if (!json.ok()) return Failed("unparseable response");
  const iqs::net::JsonValue* ok = json->Find("ok");
  const iqs::net::JsonValue* table = json->Find("table");
  const iqs::net::JsonValue* prose = json->Find("explain");
  const iqs::net::JsonValue* rule_epoch = json->Find("rule_epoch");
  const iqs::net::JsonValue* db_epoch = json->Find("db_epoch");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool() || table == nullptr ||
      prose == nullptr || rule_epoch == nullptr || db_epoch == nullptr) {
    return Failed("error response: " + response->substr(0, 200));
  }
  Answer answer;
  answer.ok = true;
  answer.fingerprint =
      Fingerprint(CanonicalAnswer(table->AsString(), prose->AsString()));
  answer.rule_epoch = static_cast<uint64_t>(rule_epoch->AsInt());
  answer.db_epoch = static_cast<uint64_t>(db_epoch->AsInt());
  return answer;
}

Result<std::unique_ptr<iqs::net::IqsServer>> StartServer(IqsSystem* system) {
  iqs::net::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.max_sessions = kWireClients + 2;
  config.idle_timeout_ms = 600000;
  auto server = std::make_unique<iqs::net::IqsServer>(system, config);
  IQS_RETURN_IF_ERROR(server->Start());
  return server;
}

Status Connect(iqs::net::BlockingClient& client,
               const iqs::net::IqsServer& server) {
  client.set_timeout_ms(30000);
  return client.Connect("127.0.0.1", server.port());
}

// ---- one workload's state ---------------------------------------------------

struct Bench {
  const RunOptions& options;
  std::unique_ptr<IqsSystem> system;
  // appendix_c_wire only; declared after `system`, so destroyed first.
  std::unique_ptr<iqs::net::IqsServer> server;
  // The replayed population (appendix_c_wire, fleet_mix) and its
  // reference answers.
  std::vector<std::string> queries;
  std::vector<FleetClass> classes;   // fleet_mix
  std::vector<std::string> frames;   // appendix_c_wire
  std::vector<Answer> references;
  size_t cursor = 0;                 // fleet_mix replay position
  std::unique_ptr<FleetChurner> churner;  // fleet_churn only
  // The read-only workloads' admin phases write to this copy of the
  // served system (same data, same rules), never to `system`.
  std::unique_ptr<IqsSystem> twin;

  explicit Bench(const RunOptions& opts) : options(opts) {}

  bool wire() const { return options.workload == Workload::kAppendixCWire; }
  QueryOptions query_options() const {
    return WorkloadOptions(options.workload);
  }
  // Seeds of the independent input streams of a run.
  uint64_t stream(uint64_t salt) const {
    return options.seed * 0x9E3779B97F4A7C15ULL + salt;
  }

  void TearDown() {
    server.reset();
    system.reset();
    twin.reset();
  }

  // Everything timed as setup_s: data, IqsSystem::Create, index, first
  // induction, server start and warm-up.
  Status SetUp() {
    if (wire()) {
      IQS_ASSIGN_OR_RETURN(system, BuildAppendixC());
      IQS_ASSIGN_OR_RETURN(server, StartServer(system.get()));
      return WarmWire();
    }
    IQS_ASSIGN_OR_RETURN(system,
                         BuildFleet(options.scale.ships_per_type,
                                    options.seed));
    FleetQueryGenerator warmup(stream(1));
    const std::vector<std::string> ids = ShipIds(system->database());
    for (int i = 0; i < kFleetWarmupQueries; ++i) {
      const Answer answer = AskInProcess(*system, warmup.Next(ids).sql,
                                         query_options(), nullptr);
      if (!answer.ok) return Status::Internal("warm-up: " + answer.error);
    }
    return Status::Ok();
  }

  // One pass over the wire population, filling the plan and answer
  // caches the way the first callers would.
  Status WarmWire() {
    iqs::net::BlockingClient client;
    IQS_RETURN_IF_ERROR(Connect(client, *server));
    for (const std::string& frame : frames) {
      if (!ResponseOk(client.Call(frame))) {
        return Status::Internal("warm-up query failed: " + frame);
      }
    }
    return Status::Ok();
  }

  // Reference answers of the population at the current epochs, computed
  // outside any timed region.
  Status ComputeReferences() {
    references.clear();
    for (const std::string& sql : queries) {
      references.push_back(
          AskInProcess(*system, sql, ReferenceOptions(), nullptr));
      if (!references.back().ok) {
        return Status::Internal("reference failed: " + sql + ": " +
                                references.back().error);
      }
    }
    return Status::Ok();
  }

  // ---- measured phases ------------------------------------------------------

  // Closed loop of kWireClients connections, each sending its next query
  // when the previous answer is complete. With `recorders`, each request
  // also runs the traced in-process pipeline first (filling the caches the
  // same way the server would) and the wire call gets a "net.call" span.
  Tally WireLoop(double seconds, uint64_t salt,
                 std::vector<SpanRecorder>* recorders) {
    std::vector<Tally> tallies(kWireClients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (int t = 0; t < kWireClients; ++t) {
      threads.emplace_back([&, t] {
        Tally& tally = tallies[t];
        SpanRecorder* spans = recorders ? &(*recorders)[t] : nullptr;
        iqs::net::BlockingClient client;
        if (Status s = Connect(client, *server); !s.ok()) {
          ++tally.attempted;
          tally.Fail("connect: " + s.ToString());
          return;
        }
        SkewedPicker picker(queries.size(), stream(2), stream(salt + t));
        uint64_t request = (static_cast<uint64_t>(t) + 1) << 40;
        while (Clock::now() < end) {
          const size_t i = picker.Next();
          ++request;
          if (spans != nullptr) {
            ++tally.attempted;
            const Answer local = AskTraced(*system, queries[i],
                                           query_options(), *spans, request,
                                           tally, nullptr);
            if (!Matches(local, references[i])) {
              tally.Fail("traced in-process answer differs: " + queries[i] +
                         " " + local.error);
            }
          }
          ++tally.attempted;
          const Clock::time_point sent = Clock::now();
          Result<std::string> response = [&] {
            ScopedSpan span(spans, "net.call", request);
            return client.Call(frames[i]);
          }();
          const double latency = MicrosBetween(sent, Clock::now());
          const Answer answer = WireAnswer(response);
          if (!Matches(answer, references[i])) {
            tally.Fail("wire answer differs from in-process render: " +
                       queries[i] + " " + answer.error);
            continue;
          }
          tally.latency_us.push_back(latency);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    Tally merged;
    for (const Tally& tally : tallies) merged.Merge(tally);
    merged.active_s = SecondsBetween(start, Clock::now());
    return merged;
  }

  // One timed fleet query, traced or not.
  Answer AskFleet(const std::string& sql, SpanRecorder* spans,
                  uint64_t request, Tally& tally, double* latency_us) {
    ++tally.attempted;
    return spans != nullptr
               ? AskTraced(*system, sql, query_options(), *spans, request,
                           tally, latency_us)
               : AskInProcess(*system, sql, query_options(), latency_us);
  }

  // Keeps a fleet answer's latency when it matches its reference.
  void Record(FleetClass cls, const std::string& sql, const Answer& answer,
              const Answer& reference, double latency_us, Tally& tally) {
    if (!Matches(answer, reference)) {
      tally.Fail(std::string(FleetClassName(cls)) +
                 " query differs from its reference: " + sql + " " +
                 answer.error + reference.error);
      return;
    }
    tally.latency_us.push_back(latency_us);
    tally.class_latency_us[static_cast<int>(cls)].push_back(latency_us);
  }

  // One write batch as the admin issues it, then (traced) the first
  // columnar snapshot after it, then one induction.
  void WriteAndInduce(IqsSystem& target, const WriteBatch& batch,
                      SpanRecorder* spans, uint64_t request, Tally& tally) {
    iqs::Database& db = target.database();
    const std::string relation = WriteRelation(options.workload);
    tally.attempted += 2;  // the write batch and the induction
    Clock::time_point start = Clock::now();
    Status written = [&] {
      ScopedSpan span(spans, "write", request);
      return ApplyWriteBatch(db, relation, batch, spans, request);
    }();
    tally.write_us.push_back(MicrosBetween(start, Clock::now()));
    if (!written.ok()) tally.Fail("write batch: " + written.ToString());
    if (spans != nullptr) {
      ScopedSpan span(spans, "relational.columnar_snapshot", request);
      if (!db.ColumnarSnapshot(relation).ok()) tally.Fail("columnar snapshot");
    }
    size_t rules = 0;
    start = Clock::now();
    Status induced = [&] {
      ScopedSpan span(spans, "induce", request);
      return InduceRules(target, spans, request, &rules);
    }();
    tally.induce_ms.push_back(MicrosBetween(start, Clock::now()) / 1000.0);
    tally.rules_induced.push_back(static_cast<double>(rules));
    if (!induced.ok()) tally.Fail("induce: " + induced.ToString());
  }

  // fleet_mix: one caller replays the population back to back, each
  // answer compared with its precomputed reference (nothing writes, so
  // the epochs hold). fleet_churn: cycles of write batch, induction and
  // fresh queries, each checked against a reference run right after it,
  // before the next write; the checks are excluded from the active time.
  Tally FleetLoop(double seconds, uint64_t salt, SpanRecorder* spans) {
    Tally tally;
    FleetQueryGenerator generator(stream(salt));
    double checking_s = 0.0;
    uint64_t request = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      double latency = 0.0;
      if (churner == nullptr) {
        const size_t i = cursor++ % queries.size();
        const Answer answer =
            AskFleet(queries[i], spans, ++request, tally, &latency);
        Record(classes[i], queries[i], answer, references[i], latency,
               tally);
        continue;
      }
      WriteAndInduce(*system, churner->Next(), spans, ++request, tally);
      for (int k = 0; k < options.scale.queries_per_cycle; ++k) {
        const FleetQuery query = generator.Next(churner->live_ids());
        const Answer answer =
            AskFleet(query.sql, spans, ++request, tally, &latency);
        const Clock::time_point check = Clock::now();
        const Answer reference =
            AskInProcess(*system, query.sql, ReferenceOptions(), nullptr);
        checking_s += SecondsBetween(check, Clock::now());
        Record(query.cls, query.sql, answer, reference, latency, tally);
      }
    }
    tally.active_s = SecondsBetween(start, Clock::now()) - checking_s;
    return tally;
  }

  Tally Loop(double seconds, uint64_t salt, SpanRecorder* spans,
             std::vector<SpanRecorder>* wire_recorders) {
    return wire() ? WireLoop(seconds, salt, wire_recorders)
                  : FleetLoop(seconds, salt, spans);
  }

  // Write and induction costs on the read-only workloads: identity write
  // batches (the rows deleted are inserted again), each followed by one
  // induction, between query loops so they never disturb one. They run on
  // the twin, so the served system's epochs, caches and references stay
  // as they are. Runs for `seconds` and at least Scale::admin_cycles
  // cycles; `salt` picks the batches.
  Tally AdminPhase(double seconds, uint64_t salt, SpanRecorder* spans) {
    Tally tally;
    iqs::SplitMix64 rng(stream(3 + 100 * salt));
    const size_t size =
        wire() ? kAppendixCBatch : options.scale.fleet_batch;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (int i = 0; i < options.scale.admin_cycles || Clock::now() < end;
         ++i) {
      Result<WriteBatch> batch = IdentityBatch(
          twin->database(), WriteRelation(options.workload), size, rng);
      if (!batch.ok()) {
        ++tally.attempted;
        tally.Fail("identity batch: " + batch.status().ToString());
        break;
      }
      WriteAndInduce(*twin, *batch, spans, (uint64_t{1} << 50) + i, tally);
    }
    tally.active_s = SecondsBetween(start, Clock::now());
    return tally;
  }

  // Traced: ping and query round trips over loopback next to the same
  // query in-process, both uncached and unoptimized so the two sides do
  // the same work; the difference is what the network path adds.
  Tally NetProbe(SpanRecorder& spans) {
    Tally tally;
    std::unique_ptr<iqs::net::IqsServer> own;
    const iqs::net::IqsServer* target = server.get();
    if (target == nullptr) {
      auto started = StartServer(system.get());
      if (!started.ok()) {
        ++tally.attempted;
        tally.Fail("probe server: " + started.status().ToString());
        return tally;
      }
      own = std::move(started).value();
      target = own.get();
    }
    iqs::net::BlockingClient client;
    ++tally.attempted;
    if (!Connect(client, *target).ok() ||
        !ResponseOk(client.Call(kCacheOffFrame))) {
      tally.Fail("probe connection");
      return tally;
    }
    const uint64_t base = uint64_t{1} << 52;
    for (int i = 0; i < options.scale.probe_requests; ++i) {
      ++tally.attempted;
      Result<std::string> pong = [&] {
        ScopedSpan span(&spans, "net.ping", base + i);
        return client.Call(kPingFrame);
      }();
      if (!ResponseOk(pong)) tally.Fail("ping");
    }
    FleetQueryGenerator generator(stream(4));
    const std::vector<std::string> ids =
        churner ? churner->live_ids() : std::vector<std::string>{};
    for (int i = 0; i < options.scale.probe_requests; ++i) {
      const std::string sql = queries.empty() ? generator.Next(ids).sql
                                              : queries[i % queries.size()];
      const uint64_t request = base + options.scale.probe_requests + i;
      ++tally.attempted;
      Answer remote;
      Answer local;
      double wire_us = 0.0;
      double local_us = 0.0;
      auto over_wire = [&] {
        ScopedSpan span(&spans, "net.probe_call", request);
        const Clock::time_point sent = Clock::now();
        Result<std::string> response = client.Call(QueryFrame(sql));
        wire_us = MicrosBetween(sent, Clock::now());
        remote = WireAnswer(response);
      };
      auto in_process = [&] {
        ScopedSpan span(&spans, "net.probe_in_process", request);
        local = AskInProcess(*system, sql, ReferenceOptions(), &local_us);
      };
      // Alternate which side goes first, so neither always runs second
      // on warmed data.
      if (i % 2 == 0) {
        over_wire();
        in_process();
      } else {
        in_process();
        over_wire();
      }
      if (!Matches(remote, local)) {
        tally.Fail("probe: wire answer differs from in-process: " + sql);
        continue;
      }
      tally.net_overhead_us.push_back(wire_us - local_us);
    }
    return tally;
  }

  // Traced, fleet workloads only (no query of their population has an
  // exact backward statement, so the processor never calls Coverage):
  // IntensionalQueryProcessor::Coverage of the exact backward statement
  // of a `Type = '<t>'` query, for every ship type.
  Tally CoverageProbe(SpanRecorder& spans) {
    Tally tally;
    const auto& specs = iqs::Table1Specs();
    const int rounds = std::max<int>(
        1, options.scale.probe_requests / static_cast<int>(specs.size()));
    for (int round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < specs.size(); ++i) {
        const std::string sql =
            "SELECT Id, Displacement FROM BATTLESHIP WHERE Type = '" +
            std::string(specs[i].type) + "'";
        ++tally.attempted;
        Result<iqs::QueryResult> result =
            system->Query(sql, ReferenceOptions());
        if (!result.ok()) {
          tally.Fail("coverage probe: " + result.status().ToString());
          continue;
        }
        for (const iqs::IntensionalStatement& s :
             result->intensional.statements()) {
          if (s.direction == iqs::AnswerDirection::kContains || !s.exact) {
            continue;
          }
          ScopedSpan span(&spans, "core.coverage",
                          (uint64_t{1} << 56) + round * specs.size() + i);
          if (!system->processor().Coverage(*result, s).ok()) {
            tally.Fail("coverage probe: " + sql);
          }
          break;
        }
      }
    }
    return tally;
  }

  // Traced, appendix_c_wire only (its sessions run with the optimizer
  // off): SemanticOptimizer::Rewrite over the population, so the rewrite
  // layer is measured on this data too.
  Tally SqoProbe(SpanRecorder& spans) {
    Tally tally;
    const iqs::RuleBaseVersion version =
        system->dictionary().induced_rules_version();
    iqs::SemanticOptimizer optimizer(&system->dictionary());
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<iqs::SelectStatement> stmt = iqs::ParseSelect(queries[i]);
      if (!stmt.ok()) continue;
      Result<iqs::RewritePlan> plan = [&] {
        ScopedSpan span(&spans, "core.sqo_rewrite", (uint64_t{1} << 54) + i);
        return optimizer.Rewrite(*stmt, *version.rules, SqoMode::kOn,
                                 system->database(),
                                 system->processor().engine());
      }();
      ++tally.rewrites_attempted;
      if (plan.ok() && plan->changed()) ++tally.rewrites_changed;
    }
    return tally;
  }
};

// ---- reporting ----------------------------------------------------------------

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& basis) {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("%-40s %14s %-6s %s\n", name.c_str(), Number(value).c_str(),
                unit.c_str(), basis.c_str());
  }

  // Percentile of raw samples, with the count (and, above the median, how
  // many samples lie beyond it).
  void AddPercentile(const std::string& name, const std::vector<double>& us,
                     double q, double scale, const std::string& unit) {
    std::string basis = "n=" + std::to_string(us.size());
    if (q > 0.5) {
      basis += " beyond=" + std::to_string(SamplesBeyond(us.size(), q));
    }
    Add(name, Percentile(us, q) * scale, unit, basis);
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " +
             Number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Counter(const iqs::obs::MetricsSnapshot& snapshot,
                 const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// Hit ratio of one cache between two metrics snapshots, with its base.
std::pair<double, uint64_t> HitRatio(const iqs::obs::MetricsSnapshot& before,
                                     const iqs::obs::MetricsSnapshot& after,
                                     const std::string& cache) {
  const uint64_t hits = Counter(after, cache + ".hits") -
                        Counter(before, cache + ".hits");
  const uint64_t misses = Counter(after, cache + ".misses") -
                          Counter(before, cache + ".misses");
  return {Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
          hits + misses};
}

// Confines the calling thread, and so every thread it starts later, to
// the last `count` of the CPUs it may run on. Returns the CPUs chosen, or
// why the process stays unconfined.
std::string PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "all (sched_getaffinity failed)";
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (static_cast<int>(cpus.size()) > count) {
    cpus.erase(cpus.begin(), cpus.end() - count);
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string names;
  for (int cpu : cpus) {
    CPU_SET(cpu, &chosen);
    names += (names.empty() ? "" : ",") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return "all (sched_setaffinity failed)";
  }
  return names;
}

void PrintHeader(const RunOptions& options, const std::string& cpus) {
  std::printf("workload %s  seed %llu  seconds %s  trace %d\n",
              WorkloadName(options.workload),
              static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), options.trace ? 1 : 0);
  std::printf("hardware threads %u  cpus %s  exec pool %zu\n",
              std::thread::hardware_concurrency(), cpus.c_str(),
              iqs::exec::GlobalThreadCount());
}

void PrintOutcome(const Tally& tally) {
  std::printf("failed_ratio %s (%llu failed / %llu attempted)\n",
              Number(Ratio(static_cast<double>(tally.failed),
                           static_cast<double>(tally.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  if (!tally.first_failure.empty()) {
    std::printf("first failure: %s\n", tally.first_failure.c_str());
  }
}

int Conclude(const Report& report, const Tally& tally) {
  PrintOutcome(tally);
  const bool correct = tally.failed == 0;
  report.PrintJson(correct, tally.attempted, tally.failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Sets the workload up once (timed) and returns the set-up seconds.
Result<double> SetUpOnce(Bench& bench) {
  bench.TearDown();
  const Clock::time_point start = Clock::now();
  IQS_RETURN_IF_ERROR(bench.SetUp());
  return SecondsBetween(start, Clock::now());
}

// One more timed set-up of the workload, on a spare that is torn down
// again, so that set-ups can be spread over the run.
Result<double> SpareSetUp(const Bench& bench) {
  Bench spare(bench.options);
  spare.frames = bench.frames;
  return SetUpOnce(spare);
}

Status Prepare(Bench& bench, std::vector<double>* setup_s) {
  if (bench.wire()) {
    bench.queries = AppendixCQueries();
    for (const std::string& sql : bench.queries) {
      bench.frames.push_back(QueryFrame(sql));
    }
  }
  IQS_ASSIGN_OR_RETURN(double seconds, SetUpOnce(bench));
  setup_s->push_back(seconds);
  if (bench.options.workload == Workload::kFleetMix) {
    // Distinct queries, replayed in order: each recurs only after
    // Scale::population others, well past the 1,024-entry caches.
    FleetQueryGenerator generator(bench.stream(6));
    const std::vector<std::string> ids = ShipIds(bench.system->database());
    for (size_t i = 0; i < bench.options.scale.population; ++i) {
      FleetQuery query = generator.Next(ids);
      bench.queries.push_back(std::move(query.sql));
      bench.classes.push_back(query.cls);
    }
  }
  if (!bench.queries.empty()) IQS_RETURN_IF_ERROR(bench.ComputeReferences());
  if (bench.options.workload == Workload::kFleetChurn) {
    bench.churner = std::make_unique<FleetChurner>(
        bench.system->database(), bench.stream(5),
        bench.options.scale.fleet_batch);
  } else if (bench.wire()) {
    IQS_ASSIGN_OR_RETURN(bench.twin, BuildAppendixC());
  } else {
    IQS_ASSIGN_OR_RETURN(bench.twin,
                         BuildFleet(bench.options.scale.ships_per_type,
                                    bench.options.seed));
  }
  return Status::Ok();
}

void PrintClassLatencies(const Tally& tally) {
  for (int c = 0; c < kFleetClassCount; ++c) {
    const auto& us = tally.class_latency_us[c];
    if (us.empty()) continue;
    std::printf("  class %-9s p50 %10s us  n=%zu\n",
                FleetClassName(static_cast<FleetClass>(c)),
                Number(Percentile(us, 0.5)).c_str(), us.size());
  }
}

// Consecutive rounds merged into groups that each hold at least
// `min_samples` of `samples` (the last group takes any remainder, so a
// short run may have one group below it).
std::vector<Tally> Groups(const std::vector<Tally>& rounds,
                          std::vector<double> Tally::*samples,
                          size_t min_samples) {
  std::vector<Tally> groups;
  Tally open;
  for (const Tally& round : rounds) {
    open.Merge(round);
    if ((open.*samples).size() >= min_samples) {
      groups.push_back(std::move(open));
      open = Tally();
    }
  }
  if (!(open.*samples).empty()) {
    if (groups.empty()) {
      groups.push_back(std::move(open));
    } else {
      groups.back().Merge(open);
    }
  }
  return groups;
}

// A statistic of each group, and their median.
template <typename F>
double MedianOfGroups(const std::vector<Tally>& groups, F statistic) {
  std::vector<double> values;
  for (const Tally& group : groups) values.push_back(statistic(group));
  return Percentile(values, 0.5);
}

// "median of <k> groups, n=<total> (>=<fewest> per group)" plus, for a
// tail percentile, the fewest samples beyond it in any group.
std::string GroupBasis(const std::vector<Tally>& groups,
                       std::vector<double> Tally::*samples, double q) {
  size_t total = 0;
  size_t fewest = groups.empty() ? 0 : SIZE_MAX;
  for (const Tally& group : groups) {
    total += (group.*samples).size();
    fewest = std::min(fewest, (group.*samples).size());
  }
  std::string basis = "median of " + std::to_string(groups.size()) +
                      " groups, n=" + std::to_string(total) + " (>=" +
                      std::to_string(fewest) + " per group)";
  if (q > 0.5) {
    basis += " beyond>=" + std::to_string(SamplesBeyond(fewest, q)) +
             " per group";
  }
  return basis;
}

// The end-to-end run: tracing off. After one untimed warm-up round, the
// query loop runs in rounds of about kRoundSeconds. On the read-only
// workloads each round is followed by an admin round (write batches and
// inductions on the twin), so their samples are spread over the run like
// the queries, and so are the set-ups after the first. Consecutive rounds
// are then grouped until each group holds kGroupQueries queries (or
// kGroupWrites write batches), each group's statistic comes from its raw
// samples, and a metric is the median over the groups: a burst of host
// interference that slows fewer than half of the groups does not move
// it. Each round's figures are printed.
int RunEndToEnd(Bench& bench) {
  const RunOptions& options = bench.options;
  std::vector<double> setup_s;
  if (Status s = Prepare(bench, &setup_s); !s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    return 2;
  }
  const bool read_only = options.workload != Workload::kFleetChurn;
  const double loop_s = read_only ? options.seconds * (1.0 - kAdminShare)
                                  : options.seconds;
  const int round_count =
      std::max(1, static_cast<int>(std::lround(loop_s / kRoundSeconds)));
  // The first round after set-up ran about 20% slower on the wire, so one
  // round is run first untimed. Its answers are still checked.
  Tally all = bench.Loop(kRoundSeconds, 7, nullptr, nullptr);
  std::vector<Tally> rounds;  // query rounds (fleet_churn: its whole loop)
  std::vector<Tally> admin;   // admin rounds of the read-only workloads
  // The other Scale::setups - 1 set-ups are spread evenly over the rounds.
  const int spare_setups = options.scale.setups - 1;
  std::printf("  rounds (p50 us / p99 us / qps):");
  for (int r = 0; r < round_count; ++r) {
    rounds.push_back(
        bench.Loop(loop_s / round_count, 10 + 100 * r, nullptr, nullptr));
    const Tally& round = rounds.back();
    std::printf(" %.0f/%.0f/%.0f", Percentile(round.latency_us, 0.5),
                Percentile(round.latency_us, 0.99),
                Ratio(static_cast<double>(round.latency_us.size()),
                      round.active_s));
    std::fflush(stdout);
    all.Merge(round);
    if (read_only) {
      admin.push_back(bench.AdminPhase(
          options.seconds * kAdminShare / round_count, r, nullptr));
      all.Merge(admin.back());
    }
    for (int i = r * spare_setups / round_count;
         i < (r + 1) * spare_setups / round_count; ++i) {
      ++all.attempted;
      Result<double> seconds = SpareSetUp(bench);
      if (seconds.ok()) {
        setup_s.push_back(*seconds);
      } else {
        all.Fail("set-up: " + seconds.status().ToString());
      }
    }
  }
  std::printf("\n");
  bench.TearDown();
  if (!read_only) admin = rounds;

  const std::vector<Tally> groups =
      Groups(rounds, &Tally::latency_us, kGroupQueries);
  const std::vector<Tally> write_groups =
      Groups(admin, &Tally::write_us, kGroupWrites);
  auto percentile = [](std::vector<double> Tally::*samples, double q) {
    return [samples, q](const Tally& t) { return Percentile(t.*samples, q); };
  };
  Report report;
  report.Add("query_p50_us",
             MedianOfGroups(groups, percentile(&Tally::latency_us, 0.5)),
             "us", GroupBasis(groups, &Tally::latency_us, 0.5));
  report.Add("query_p99_us",
             MedianOfGroups(groups, percentile(&Tally::latency_us, 0.99)),
             "us", GroupBasis(groups, &Tally::latency_us, 0.99));
  report.Add("throughput_qps",
             MedianOfGroups(groups,
                            [](const Tally& t) {
                              return Ratio(
                                  static_cast<double>(t.latency_us.size()),
                                  t.active_s);
                            }),
             "1/s",
             "median of " + std::to_string(groups.size()) +
                 " groups of completed queries / active seconds");
  report.Add("write_p50_us",
             MedianOfGroups(write_groups, percentile(&Tally::write_us, 0.5)),
             "us", GroupBasis(write_groups, &Tally::write_us, 0.5));
  report.Add("induce_p50_ms",
             MedianOfGroups(write_groups, percentile(&Tally::induce_ms, 0.5)),
             "ms", GroupBasis(write_groups, &Tally::induce_ms, 0.5));
  report.AddPercentile("setup_s", setup_s, 0.5, 1.0, "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss");
  Tally queries;
  for (const Tally& round : rounds) queries.Merge(round);
  PrintClassLatencies(queries);
  return Conclude(report, all);
}

// The traced run: an untraced half (the baseline the trace overhead is
// measured against, and the cache counters), then a traced half, then
// the probes for layers the workload's own loop does not reach.
int RunTraced(Bench& bench) {
  const RunOptions& options = bench.options;
  std::vector<double> setup_s;
  if (Status s = Prepare(bench, &setup_s); !s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    return 2;
  }
  const double half = options.seconds / 2.0;

  const iqs::obs::MetricsSnapshot before = iqs::obs::GlobalMetrics().Snapshot();
  Tally untraced = bench.Loop(half, 10, nullptr, nullptr);
  const iqs::obs::MetricsSnapshot after = iqs::obs::GlobalMetrics().Snapshot();

  // The traced half starts from empty caches, so cache misses (and the
  // parse and inference calls behind them) occur on every workload.
  bench.system->processor().cache().Clear();
  SpanRecorder spans;
  std::vector<SpanRecorder> wire_spans(kWireClients);
  Tally traced = bench.Loop(half, 20, &spans, &wire_spans);
  for (const SpanRecorder& recorder : wire_spans) spans.Merge(recorder);
  const size_t rule_count =
      bench.system->dictionary().induced_rules_snapshot()->size();

  Tally probes = bench.NetProbe(spans);
  probes.Merge(bench.wire() ? bench.SqoProbe(spans)
                            : bench.CoverageProbe(spans));
  if (options.workload != Workload::kFleetChurn) {
    probes.Merge(bench.AdminPhase(options.seconds * kAdminShare, 0, &spans));
  }
  bench.TearDown();

  // Durations of every span by name, and the self-time accounting of the
  // request roots.
  std::map<std::string, std::vector<double>> us;
  const std::vector<int64_t> self = spans.SelfTimes();
  double root_ns = 0.0;
  double root_self_ns = 0.0;
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& span = spans.spans()[i];
    us[span.name].push_back(span.duration_ns() / 1000.0);
    if (span.parent < 0 && span.name == "request") {
      root_ns += static_cast<double>(span.duration_ns());
      root_self_ns += static_cast<double>(self[i]);
    }
  }

  Tally all = untraced;
  all.Merge(traced);
  all.Merge(probes);
  const double untraced_p50 = Percentile(untraced.latency_us, 0.5);
  const std::vector<double>& traced_roots =
      bench.wire() ? us["net.call"] : us["request"];

  Report report;
  report.AddPercentile("net.ping_p50_us", us["net.ping"], 0.5, 1.0, "us");
  report.AddPercentile("net.overhead_p50_us", probes.net_overhead_us, 0.5, 1.0,
                       "us");
  const auto answer_hits = HitRatio(before, after, "cache.answer");
  const auto plan_hits = HitRatio(before, after, "cache.plan");
  report.Add("cache.answer_hit_ratio", answer_hits.first, "ratio",
             "base=" + std::to_string(answer_hits.second) + " lookups");
  report.Add("cache.plan_hit_ratio", plan_hits.first, "ratio",
             "base=" + std::to_string(plan_hits.second) + " lookups");
  report.AddPercentile("sql.parse_p50_us", us["sql.parse"], 0.5, 1.0, "us");
  report.AddPercentile("core.describe_p50_us", us["core.describe"], 0.5, 1.0,
                       "us");
  const Tally& rewrites = bench.wire() ? probes : traced;
  report.AddPercentile("core.sqo_rewrite_p50_us", us["core.sqo_rewrite"], 0.5,
                       1.0, "us");
  report.Add("core.sqo_changed_ratio",
             Ratio(static_cast<double>(rewrites.rewrites_changed),
                   static_cast<double>(rewrites.rewrites_attempted)),
             "ratio",
             "base=" + std::to_string(rewrites.rewrites_attempted) +
                 " rewrites" + (bench.wire() ? " (probe: sessions run sqo off)"
                                             : ""));
  report.AddPercentile("sql.execute_p50_us", us["sql.execute"], 0.5, 1.0,
                       "us");
  report.AddPercentile("sql.execute_p99_us", us["sql.execute"], 0.99, 1.0,
                       "us");
  report.Add("sql.rows_loaded_per_row_returned",
             Ratio(static_cast<double>(traced.rows_loaded),
                   static_cast<double>(traced.rows_returned)),
             "ratio", "base=" + std::to_string(traced.rows_returned) + " rows");
  report.Add("sql.blocks_pruned_ratio",
             Ratio(static_cast<double>(traced.blocks_pruned),
                   static_cast<double>(traced.blocks_total)),
             "ratio", "base=" + std::to_string(traced.blocks_total) + " blocks");
  report.AddPercentile("inference.infer_p50_us", us["inference.infer"], 0.5,
                       1.0, "us");
  report.AddPercentile("inference.infer_p99_us", us["inference.infer"], 0.99,
                       1.0, "us");
  const double requests = static_cast<double>(traced.requests);
  report.Add("inference.statements_per_query",
             Ratio(static_cast<double>(traced.statements), requests), "count",
             "base=" + std::to_string(traced.requests) + " requests");
  report.Add("inference.rules_fired_per_query",
             Ratio(static_cast<double>(traced.rules_fired), requests), "count",
             "base=" + std::to_string(traced.requests) + " requests");
  report.Add("inference.rule_count", static_cast<double>(rule_count), "count",
             "induced rules after the traced half");
  report.AddPercentile("core.coverage_p50_us", us["core.coverage"], 0.5, 1.0,
                       "us");
  if (!bench.wire()) {
    std::printf("  (core.coverage: probe of Type = '<t>' queries; no fleet "
                "query has an exact backward statement)\n");
  }
  report.AddPercentile("core.format_p50_us", us["core.format"], 0.5, 1.0, "us");
  report.AddPercentile("induction.induce_all_ms", us["induction.induce_all"],
                       0.5, 0.001, "ms");
  Tally& writes = options.workload == Workload::kFleetChurn ? traced : probes;
  report.AddPercentile("induction.rules_induced", writes.rules_induced, 0.5,
                       1.0, "count");
  report.AddPercentile("dictionary.install_us", us["dictionary.install"], 0.5,
                       1.0, "us");
  report.AddPercentile("relational.write_batch_us",
                       us["relational.write_batch"], 0.5, 1.0, "us");
  report.AddPercentile("relational.create_index_us",
                       us["relational.create_index"], 0.5, 1.0, "us");
  report.AddPercentile("relational.columnar_snapshot_us",
                       us["relational.columnar_snapshot"], 0.5, 1.0, "us");
  report.Add("trace.unattributed_ratio", Ratio(root_self_ns, root_ns), "ratio",
             "base=" + std::to_string(us["request"].size()) + " request roots");
  report.Add("trace.overhead_ratio",
             Ratio(Percentile(traced_roots, 0.5), untraced_p50) - 1.0, "ratio",
             "traced p50 n=" + std::to_string(traced_roots.size()) +
                 " / untraced p50 n=" +
                 std::to_string(untraced.latency_us.size()));
  if (!options.spans_out.empty() && !spans.WriteJsonl(options.spans_out)) {
    std::printf("note: could not write spans to %s\n",
                options.spans_out.c_str());
  }
  return Conclude(report, all);
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  // Two CPUs, one per wire connection. Spread over all four CPUs of a
  // shared 4-vCPU host, appendix_c_wire's p50 swung between 180 and 300 us
  // from one second to the next and its p99 between 0.7 and 6 ms; on any
  // two CPUs it held at 140-155 us and 0.35-0.5 ms.
  const std::string cpus = PinToCpus(kCpus);
  // Queries run on the caller's thread (exec pool of 1): at 2,400 rows
  // the default pool of one worker per core did not make fleet_mix
  // faster, and each parallel region waits for its slowest worker, so on
  // a shared host every preempted core became a p99 outlier and the tail
  // swung from run to run. The pool size is printed with each run.
  iqs::exec::SetGlobalThreadCount(1);
  PrintHeader(options, cpus);
  Bench bench(options);
  return options.trace ? RunTraced(bench) : RunEndToEnd(bench);
}

}  // namespace perfbench
