// Differential harness for the table-access path (DESIGN.md §14.3):
// every query of the golden corpus and of a seeded fuzz sweep runs
// through the executor twice — once over tables with no index, once with
// an index on the query's filtered column — and both answers must be
// byte-identical, error text included, to the test-only row-major
// evaluator in tests/reference_sql.*. That holds index-seeded, zone-map
// pruned and residual-only batch scans to one oracle. QUEL retrieves
// (including a relation spanning many blocks, where zone-map pruning
// must fire) are held to the same oracle through their SQL spelling,
// and the ILS's columnar induction to the row-at-a-time InduceScheme. A
// divergence dumps the query so the failure is diagnosable from the log
// alone. Labeled "columnar".

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "gtest/gtest.h"
#include "induction/candidate_generator.h"
#include "induction/ils.h"
#include "induction/inter_object.h"
#include "induction/rule_induction.h"
#include "quel/quel_parser.h"
#include "quel/quel_session.h"
#include "relational/column_store.h"
#include "sql/conjunct.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"
#include "sql/sqo_rewrite.h"
#include "tests/query_corpus.h"
#include "tests/reference_sql.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

struct RunOutcome {
  bool ok = false;
  std::string error;  // status text when !ok
  std::string table;  // rows when ok
};

RunOutcome Outcome(const Result<Relation>& result) {
  RunOutcome out;
  out.ok = result.ok();
  if (out.ok) {
    out.table = result->ToTable();
  } else {
    out.error = result.status().ToString();
  }
  return out;
}

void ExpectSameOutcome(const RunOutcome& want, const RunOutcome& got,
                       const std::string& query, const std::string& path) {
  EXPECT_EQ(want.ok, got.ok)
      << "status diverged (" << path << ") for: " << query
      << "\n  oracle: " << (want.ok ? "ok" : want.error)
      << "\n  " << path << ": " << (got.ok ? "ok" : got.error);
  if (want.ok && got.ok) {
    EXPECT_EQ(want.table, got.table)
        << "answer diverged (" << path << ") for: " << query
        << "\n-- oracle --\n" << want.table << "-- " << path << " --\n"
        << got.table;
  } else if (!want.ok && !got.ok) {
    EXPECT_EQ(want.error, got.error)
        << "error text diverged (" << path << ") for: " << query;
  }
}

// A relation spanning several blocks, so index seeds, zone maps and the
// QUEL scan all see multi-block data: K ascending, nulls sprinkled into D.
Relation BigRelation() {
  Relation big("BIG", Schema({{"K", ValueType::kInt, false},
                              {"Tag", ValueType::kString, false},
                              {"D", ValueType::kReal, false}}));
  static const char* kTags[] = {"red", "green", "blue"};
  for (size_t i = 0; i < 3 * kColumnarBlockRows + 100; ++i) {
    big.AppendUnchecked(
        Tuple({Value::Int(static_cast<int64_t>(i)),
               Value::String(kTags[i % 3]),
               i % 11 == 0 ? Value::Null()
                           : Value::Real(static_cast<double>(i) / 2.0)}));
  }
  return big;
}

class ColumnarDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = testing_util::ShipSystemOrFail().release();
    InductionConfig config;
    config.min_support = 3;
    ASSERT_OK(system_->Induce(config));
    plain_ = Copy(system_->database()).release();
    ASSERT_OK(plain_->AddRelation(BigRelation()));
  }

  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
    delete plain_;
    plain_ = nullptr;
    indexed_.clear();
  }

  void TearDown() override { system_->processor().cache().Clear(); }

  // A copy of `src`'s stored relations with no index.
  static std::unique_ptr<Database> Copy(const Database& src) {
    auto db = std::make_unique<Database>();
    for (const std::string& name : src.RelationNames()) {
      EXPECT_OK(db->AddRelation(**src.Get(name)));
    }
    return db;
  }

  // The first recognized `column op literal` restriction's column, as
  // (relation, attribute); nullopt when the query has none.
  static std::optional<std::pair<std::string, std::string>> FilteredColumn(
      const std::string& sql) {
    Result<SelectStatement> stmt = ParseSelect(sql);
    if (!stmt.ok()) return std::nullopt;
    Result<FromScope> scope = FromScope::Build(*plain_, stmt->from);
    if (!scope.ok()) return std::nullopt;
    for (const SqlExpr* conjunct : TopLevelConjuncts(stmt->where.get())) {
      ClassifiedConjunct c = ClassifyConjunct(*scope, *conjunct);
      if (c.recognized) {
        return std::make_pair(stmt->from[c.site.table].name, c.attribute);
      }
    }
    return std::nullopt;
  }

  // The plain tables plus one index on `column`, built once per column.
  static const Database& IndexedOn(
      const std::pair<std::string, std::string>& column) {
    std::unique_ptr<Database>& db =
        indexed_[column.first + "." + column.second];
    if (db == nullptr) {
      db = Copy(*plain_);
      EXPECT_OK(db->CreateIndex(column.first, column.second));
    }
    return *db;
  }

  struct Tally {
    size_t index_seeded = 0;
    size_t blocks_pruned = 0;
  };

  // Runs `sql` without and with an index on its filtered column and
  // holds both to the oracle.
  static void ExpectMatchesOracle(const std::string& sql,
                                  Tally* tally = nullptr) {
    Result<Relation> want = testing_util::ReferenceExecute(*plain_, sql);
    ASSERT_EQ(want.status().message().rfind("reference evaluator", 0),
              std::string::npos)
        << "corpus query outside the oracle's scope: " << sql;
    RunOutcome oracle = Outcome(want);
    SqlExecutor plain(plain_);
    ExpectSameOutcome(oracle, Outcome(plain.ExecuteSql(sql)), sql, "scan");
    if (tally != nullptr) {
      tally->blocks_pruned += plain.last_stats().columnar_blocks_pruned;
    }
    std::optional<std::pair<std::string, std::string>> column =
        FilteredColumn(sql);
    if (!column.has_value()) return;
    SqlExecutor indexed(&IndexedOn(*column));
    ExpectSameOutcome(oracle, Outcome(indexed.ExecuteSql(sql)), sql,
                      "index on " + column->first + "." + column->second);
    if (tally != nullptr) {
      tally->index_seeded += indexed.last_stats().index_prefiltered_tables;
      tally->blocks_pruned += indexed.last_stats().columnar_blocks_pruned;
    }
  }

  static IqsSystem* system_;
  static Database* plain_;
  static std::map<std::string, std::unique_ptr<Database>> indexed_;
};

IqsSystem* ColumnarDifferentialTest::system_ = nullptr;
Database* ColumnarDifferentialTest::plain_ = nullptr;
std::map<std::string, std::unique_ptr<Database>>
    ColumnarDifferentialTest::indexed_;

// Hand-picked queries over the ship schema and the multi-block BIG
// relation: single-table WHEREs the batch scan takes, shapes it must
// leave to the join filter or take residual-only (joins, OR, no WHERE),
// LIKE patterns, literals needing coercion, and aggregates fed by a
// filtered scan.
const std::vector<std::string>& GoldenCorpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>{
          // One table, conjunctive WHERE.
          "SELECT Id FROM SUBMARINE WHERE Class = '0204'",
          "SELECT Name FROM SUBMARINE WHERE Class = '0204' AND Id <> 'x'",
          "SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
          "SELECT ClassName FROM CLASS WHERE Displacement > 8000",
          "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN 1000 "
          "AND 30000",
          "SELECT Class FROM CLASS WHERE Displacement >= 16600 "
          "AND Type = 'SSBN'",
          // Literal on the left: mirrored op, same answer and errors.
          "SELECT ClassName FROM CLASS WHERE 8000 < Displacement",
          // Off-domain constants: empty answer, fully pruned.
          "SELECT ClassName FROM CLASS WHERE Displacement > 99999",
          "SELECT Id FROM SUBMARINE WHERE Class = '9999'",
          // An inverted BETWEEN admits nothing and describes nothing.
          "SELECT Class FROM CLASS WHERE Displacement BETWEEN 9000 AND 100",
          // LIKE, with '%' and '_'.
          "SELECT Name FROM SUBMARINE WHERE Name LIKE 'Ty%'",
          "SELECT ClassName FROM CLASS WHERE ClassName LIKE '%o_'",
          // Numeric literals against a CHAR column keep their spelling.
          "SELECT Name FROM SUBMARINE WHERE Name > 5",
          "SELECT Name FROM SUBMARINE WHERE 5 < Name",
          // A quoted number against an INT column parses as INT.
          "SELECT ClassName FROM CLASS WHERE Displacement BETWEEN '7000' "
          "AND 30000",
          // Joins, OR, no WHERE.
          "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Type = 'SSBN'",
          "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.Class = CLASS.Class "
          "AND CLASS.Displacement >= 8000",
          "SELECT Id FROM SUBMARINE WHERE Class = '0204' OR Class = '0101'",
          "SELECT Name FROM SUBMARINE",
          // Aggregates / DISTINCT / ORDER BY over a filtered scan.
          "SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > 1000 "
          "GROUP BY Type",
          "SELECT DISTINCT Class FROM SUBMARINE WHERE Class = '0204'",
          "SELECT Name FROM SUBMARINE WHERE Class = '0204' "
          "ORDER BY Name DESC",
          "SELECT MIN(Displacement), MAX(Displacement) FROM CLASS "
          "WHERE Type = 'SSBN'",
          // Bind errors.
          "SELECT Id FROM SUBMARINE WHERE NoSuchColumn = '0204'",
          "SELECT ClassName FROM CLASS WHERE Displacement > 'SSBN'",
          // One column selected twice: an error naming the select item.
          "SELECT Id, Id FROM SUBMARINE WHERE Class = '0204'",
          // The alias hides the base name; an ambiguous column is no join
          // pair, and the post-join bind reports it.
          "SELECT s.Id FROM SUBMARINE s WHERE SUBMARINE.Class = '0204'",
          "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
          "WHERE Class = CLASS.Class AND CLASS.Type = 'SSBN'",
          // Column-column comparison of incomparable types: an eval
          // error on the first row that reaches it.
          "SELECT ClassName FROM CLASS WHERE Displacement > 8000 "
          "AND ClassName > Displacement",
          // Multi-block: narrow bands, repeated and intersecting bounds,
          // an empty intersection, nulls, and a residual behind the
          // extractable prefix.
          "SELECT K FROM BIG WHERE K >= 1500 AND K < 1510",
          "SELECT K FROM BIG WHERE K > 100 AND K >= 2000 AND K <= 2050 "
          "AND K < 3000",
          "SELECT K FROM BIG WHERE K > 900 AND K < 800",
          "SELECT K FROM BIG WHERE K BETWEEN 3000 AND 3010 AND Tag = 'red'",
          "SELECT COUNT(*), MIN(D), MAX(D) FROM BIG WHERE D > 700.0",
          "SELECT K FROM BIG WHERE Tag = 'green' AND (K < 12 OR K > 3170)",
          "SELECT Tag, COUNT(D) FROM BIG WHERE K <= 2047 GROUP BY Tag",
          "SELECT K FROM BIG WHERE D = 500.5",
      };
  return *corpus;
}

TEST_F(ColumnarDifferentialTest, GoldenCorpusIsAnswerPreserving) {
  Tally tally;
  for (const std::string& sql : GoldenCorpus()) {
    ExpectMatchesOracle(sql, &tally);
    if (HasFailure()) break;  // the divergence already dumped the query
  }
  EXPECT_GT(tally.index_seeded, 0u);
  EXPECT_GT(tally.blocks_pruned, 0u);
}

TEST_F(ColumnarDifferentialTest, ExplainSurfacesBatchScanAndPruning) {
  system_->processor().cache().Clear();
  // An off-domain restriction: the only block is zone-map pruned, and
  // both the stats struct and the EXPLAIN text say so.
  auto pruned = system_->Query(
      "SELECT ClassName FROM CLASS WHERE Displacement > 99999");
  ASSERT_OK(pruned.status());
  EXPECT_EQ(pruned->extensional.size(), 0u);
  EXPECT_GE(pruned->stats.columnar_tables, 1u);
  EXPECT_GE(pruned->stats.columnar_blocks_total, 1u);
  EXPECT_EQ(pruned->stats.columnar_blocks_pruned,
            pruned->stats.columnar_blocks_total);
  EXPECT_NE(pruned->stats.ToString().find("columnar:"), std::string::npos);
  EXPECT_NE(pruned->stats.ToJson().find("\"columnar_blocks_pruned\""),
            std::string::npos);
  // rows_scanned stays the full relation size — pruning is reported in
  // its own counters.
  auto kept = system_->Query(
      "SELECT ClassName FROM CLASS WHERE Displacement > 8000");
  ASSERT_OK(kept.status());
  EXPECT_GE(kept->stats.columnar_tables, 1u);
  EXPECT_GT(kept->stats.rows_scanned, 0u);
  // An index seeds the same batch scan: rows_scanned falls to the
  // index-admitted rows, the table still counts as batch-scanned, and
  // the answer does not move.
  const Database& indexed = IndexedOn({"BIG", "K"});
  SqlExecutor executor(&indexed);
  const std::string band = "SELECT K FROM BIG WHERE K >= 10 AND K <= 20";
  ASSERT_OK_AND_ASSIGN(Relation seeded, executor.ExecuteSql(band));
  EXPECT_EQ(seeded.size(), 11u);
  EXPECT_EQ(executor.last_stats().index_prefiltered_tables, 1u);
  EXPECT_EQ(executor.last_stats().base_rows_loaded, 11u);
  EXPECT_EQ(executor.last_stats().columnar_tables, 1u);
  EXPECT_EQ(executor.last_stats().columnar_blocks_total, 4u);
  EXPECT_EQ(executor.last_stats().columnar_blocks_pruned, 3u);
  ASSERT_OK_AND_ASSIGN(Relation want,
                       testing_util::ReferenceExecute(*plain_, band));
  EXPECT_EQ(seeded.ToTable(), want.ToTable());
}

TEST_F(ColumnarDifferentialTest, ComposesWithSemanticRewriteBounds) {
  // Rule-synthesized BETWEEN bounds (SQO narrowing) feed the same seed
  // and extraction the hand-written ranges do; with sqo on, the answer
  // must still be the oracle's.
  for (const std::string sql :
       {"SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
        "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
        "AND Displacement > 1000"}) {
    system_->processor().cache().Clear();
    system_->processor().set_sqo_mode(SqoMode::kOn);
    auto result = system_->Query(sql);
    system_->processor().set_sqo_mode(SqoMode::kOff);
    ASSERT_OK(result.status());
    EXPECT_GT(result->extensional.size(), 0u);
    EXPECT_GE(result->stats.columnar_tables, 1u);
    ASSERT_OK_AND_ASSIGN(
        Relation want,
        testing_util::ReferenceExecute(system_->database(), sql));
    EXPECT_EQ(result->extensional.ToTable(), want.ToTable()) << sql;
  }
}

// SplitMix64-seeded conjunctive queries over the real schema, platform
// stable; each runs with and without an index on its filtered column.
class ShipQueryFuzzer {
 public:
  explicit ShipQueryFuzzer(uint64_t seed) : state_(seed) {}

  std::string Next() {
    const char* table = Pick(2) == 0 ? "SUBMARINE" : "CLASS";
    std::string sql = "SELECT " + Column(table) + " FROM " + table +
                      " WHERE ";
    const size_t conjuncts = 1 + Pick(3);
    for (size_t i = 0; i < conjuncts; ++i) {
      if (i > 0) sql += " AND ";
      sql += Conjunct(table);
    }
    return sql;
  }

 private:
  uint64_t NextRaw() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Pick(size_t n) { return static_cast<size_t>(NextRaw() % n); }

  std::string Column(const char* table) {
    if (std::string(table) == "SUBMARINE") {
      static const char* kCols[] = {"Id", "Name", "Class"};
      return kCols[Pick(3)];
    }
    static const char* kCols[] = {"Class", "ClassName", "Type",
                                  "Displacement"};
    return kCols[Pick(4)];
  }

  std::string Conjunct(const char* table) {
    std::string col = Column(table);
    const bool numeric = col == "Displacement";
    if (!numeric && Pick(5) == 0) {
      static const char* kPatterns[] = {"'%o%'", "'T_phoon'", "'S%'",
                                        "'____'", "'%'"};
      return col + " LIKE " + kPatterns[Pick(5)];
    }
    static const char* kOps[] = {"=", "<", "<=", ">", ">=", "<>"};
    std::string op = kOps[Pick(6)];
    std::string rhs;
    if (numeric) {
      static const int kDisplacements[] = {0,    100,   1000,  8250,
                                           9000, 16600, 18700, 30000};
      rhs = std::to_string(kDisplacements[Pick(8)]);
      // Occasionally a type-confused literal, for error-text identity.
      if (Pick(10) == 0) rhs = "'SSBN'";
    } else if (col == "Class") {
      static const char* kClasses[] = {"'0101'", "'0204'", "'0215'",
                                       "'1301'", "'2101'", "'9999'"};
      rhs = kClasses[Pick(6)];
    } else if (col == "Type") {
      static const char* kTypes[] = {"'SSBN'", "'SSN'", "'SSGN'", "'XX'"};
      rhs = kTypes[Pick(4)];
    } else {
      static const char* kStrings[] = {"'Ohio'", "'Typhoon'", "'zzz'",
                                       "''", "7"};
      rhs = kStrings[Pick(5)];
    }
    // Sometimes put the literal on the left to cover the mirrored ops.
    if (Pick(6) == 0) return rhs + " " + op + " " + col;
    return col + " " + op + " " + rhs;
  }

  uint64_t state_;
};

TEST_F(ColumnarDifferentialTest, SeededFuzzCorpusIsAnswerPreserving) {
  ShipQueryFuzzer fuzzer(0xC01A7ABUL);
  Tally tally;
  for (int i = 0; i < 250; ++i) {
    ExpectMatchesOracle(fuzzer.Next(), &tally);
    if (HasFailure()) break;
  }
  EXPECT_GT(tally.index_seeded, 0u);
  EXPECT_GT(tally.blocks_pruned, 0u);
}

// The intensional pipeline reads the WHERE clause the executor reads, so
// describing a query never refuses one the executor answers, nor answers
// one it refuses: IqsSystem::Query (caches and rewrites off) and the bare
// executor agree on ok-ness, then on the rows or on the error text.
TEST(DescribeExecutorAgreementTest,
     DescribeNeverFailsAQueryTheExecutorAnswers) {
  std::unique_ptr<IqsSystem> system = testing_util::ShipSystemOrFail();
  ASSERT_NE(system, nullptr);
  ASSERT_OK(system->database().AddRelation(BigRelation()));
  SqlExecutor executor(&system->database());
  QueryOptions options;
  options.sqo = SqoMode::kOff;
  options.use_cache = false;
  std::vector<std::string> corpus = GoldenCorpus();
  ShipQueryFuzzer fuzzer(0xC01A7ABUL);
  for (int i = 0; i < 250; ++i) corpus.push_back(fuzzer.Next());
  const std::vector<std::string>& sqo = testing_util::SqoGoldenCorpus();
  corpus.insert(corpus.end(), sqo.begin(), sqo.end());
  for (const std::string& sql : corpus) {
    ASSERT_OK_AND_ASSIGN(SelectStatement stmt, ParseSelect(sql));
    RunOutcome executed = Outcome(executor.Execute(stmt));
    Result<QueryResult> answered = system->Query(sql, options);
    ExpectSameOutcome(
        executed,
        Outcome(answered.ok()
                    ? Result<Relation>(std::move(answered->extensional))
                    : Result<Relation>(answered.status())),
        sql, "IqsSystem::Query");
    if (HasFailure()) break;
  }
}

// ---- QUEL sessions ----------------------------------------------------
//
// A retrieve lowers onto the SQL executor, so comparing it with SQL run
// through the same executor proves nothing. Each corpus retrieve is held
// instead to the row-major oracle run on its SQL spelling (tuple
// variables become aliases): same status, and same table or error text.

class ColumnarQuelDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_util::ShipDatabaseOrFail();
    ASSERT_NE(db_, nullptr);
    ASSERT_OK(db_->AddRelation(BigRelation()));
    session_ = std::make_unique<QuelSession>(db_.get());
    for (const char* range :
         {"range of s is SUBMARINE", "range of c is CLASS",
          "range of b is BIG"}) {
      ASSERT_OK(session_->ExecuteText(range).status());
    }
  }

  void ExpectMatchesOracle(const std::string& quel, const std::string& sql) {
    Result<QuelStatement> parsed = ParseQuelStatement(quel);
    ASSERT_TRUE(parsed.ok()) << quel << ": " << parsed.status();
    Result<Relation> want = testing_util::ReferenceExecute(*db_, sql);
    ASSERT_EQ(want.status().message().rfind("reference evaluator", 0),
              std::string::npos)
        << "corpus query outside the oracle's scope: " << sql;
    auto got = session_->Execute(*parsed);
    ExpectSameOutcome(
        Outcome(want),
        Outcome(got.ok() ? Result<Relation>(std::move(got->relation))
                         : Result<Relation>(got.status())),
        quel, "quel");
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QuelSession> session_;
};

TEST_F(ColumnarQuelDifferentialTest, RetrievesAreAnswerPreserving) {
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"retrieve (s.Name) where s.Class = \"0204\"",
       "SELECT s.Name FROM SUBMARINE s WHERE s.Class = '0204'"},
      {"retrieve (s.Name, s.Id) where s.Class != \"0204\"",
       "SELECT s.Name, s.Id FROM SUBMARINE s WHERE s.Class <> '0204'"},
      {"retrieve unique (c.Type) where c.Displacement > 1000",
       "SELECT DISTINCT c.Type FROM CLASS c WHERE c.Displacement > 1000"},
      {"retrieve (c.ClassName) where c.Displacement > 8000 "
       "and c.Type = \"SSBN\"",
       "SELECT c.ClassName FROM CLASS c WHERE c.Displacement > 8000 "
       "AND c.Type = 'SSBN'"},
      // Numeric constant against a string attribute keeps its spelling;
      // a quoted number against an INT attribute parses as INT.
      {"retrieve (s.Name) where s.Class = 0204",
       "SELECT s.Name FROM SUBMARINE s WHERE s.Class = 0204"},
      {"retrieve (c.Class) where c.Displacement = \"7250\"",
       "SELECT c.Class FROM CLASS c WHERE c.Displacement = '7250'"},
      // Sort, disjunction.
      {"retrieve (c.Class, c.Displacement) where c.Displacement >= 16600 "
       "sort by c.Class",
       "SELECT c.Class, c.Displacement FROM CLASS c "
       "WHERE c.Displacement >= 16600 ORDER BY c.Class"},
      {"retrieve (s.Name) where s.Class = \"0204\" or s.Class = \"0101\"",
       "SELECT s.Name FROM SUBMARINE s "
       "WHERE s.Class = '0204' OR s.Class = '0101'"},
      // Two variables: the hash join keeps the oracle's left-major order.
      {"retrieve (s.Name, c.Type) where s.Class = c.Class and "
       "c.Displacement > 8000",
       "SELECT s.Name, c.Type FROM SUBMARINE s, CLASS c "
       "WHERE s.Class = c.Class AND c.Displacement > 8000"},
      // Multi-block relation: narrow band, off-domain point, strings.
      {"retrieve (b.K) where b.K >= 1500 and b.K < 1510",
       "SELECT b.K FROM BIG b WHERE b.K >= 1500 AND b.K < 1510"},
      {"retrieve (b.K) where b.K = -3",
       "SELECT b.K FROM BIG b WHERE b.K = -3"},
      {"retrieve unique (b.Tag) where b.D > 700.0",
       "SELECT DISTINCT b.Tag FROM BIG b WHERE b.D > 700.0"},
      {"retrieve (b.K) where b.Tag = \"green\" and b.K < 12",
       "SELECT b.K FROM BIG b WHERE b.Tag = 'green' AND b.K < 12"},
      // Unknown attribute in WHERE: a bind error.
      {"retrieve (b.K) where b.Nope = 1",
       "SELECT b.K FROM BIG b WHERE b.Nope = 1"},
  };
  for (const auto& [quel, sql] : corpus) {
    ExpectMatchesOracle(quel, sql);
    if (HasFailure()) break;
  }
}

TEST_F(ColumnarQuelDifferentialTest, ReportsPruningOnNarrowBands) {
  auto result =
      session_->ExecuteText("retrieve (b.K) where b.K >= 10 and b.K <= 20");
  ASSERT_OK(result.status());
  EXPECT_EQ(result->relation.size(), 11u);
  EXPECT_GE(result->columnar_blocks_total, 4u);
  EXPECT_GT(result->columnar_blocks_pruned, 0u);
}

// ---- induction --------------------------------------------------------

// Every rule family the ILS induces (columnar, over the epoch-cached
// snapshot or the transposed relationship view) equals what the
// row-at-a-time InduceScheme derives for the same scheme over the same
// relation, and every intra-object scheme the reference finds rules for
// is present.
TEST(ColumnarInductionDifferentialTest, ShipRuleBaseIsIdentical) {
  auto db = testing_util::ShipDatabaseOrFail();
  auto catalog = testing_util::ShipCatalogOrFail();
  ASSERT_NE(db, nullptr);
  ASSERT_NE(catalog, nullptr);
  InductiveLearningSubsystem ils(db.get(), catalog.get());
  InductionConfig config;
  config.min_support = 3;
  ASSERT_OK_AND_ASSIGN(RuleSet induced, ils.InduceAll(config));
  ASSERT_GT(induced.size(), 0u);

  // Induced rules grouped by (source relation, scheme), in rule order.
  std::map<std::pair<std::string, std::string>, std::vector<const Rule*>>
      families;
  for (const Rule& rule : induced.rules()) {
    families[{rule.source_relation, rule.scheme}].push_back(&rule);
  }
  for (const auto& [key, rules] : families) {
    const auto& [source, scheme] = key;
    SCOPED_TRACE(source + " " + scheme);
    size_t arrow = scheme.find("->");
    ASSERT_NE(arrow, std::string::npos);
    // Intra-object schemes name the stored relation's attributes;
    // inter-object ones name columns of the relationship's joined view.
    const std::string x_attr = scheme.substr(0, arrow);
    ASSERT_OK_AND_ASSIGN(const Relation* relation, db->Get(source));
    Relation view;
    if (!relation->schema().Contains(x_attr)) {
      ASSERT_OK_AND_ASSIGN(view,
                           BuildRelationshipView(*db, *catalog, source));
      relation = &view;
    }
    ASSERT_OK_AND_ASSIGN(std::vector<Rule> reference,
                         InduceScheme(*relation, x_attr,
                                      scheme.substr(arrow + 2), config));
    ASSERT_EQ(rules.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(rules[i]->lhs.size(), reference[i].lhs.size());
      for (size_t j = 0; j < reference[i].lhs.size(); ++j) {
        EXPECT_EQ(rules[i]->lhs[j].ToConditionString(),
                  reference[i].lhs[j].ToConditionString());
      }
      EXPECT_EQ(rules[i]->rhs.clause.ToConditionString(),
                reference[i].rhs.clause.ToConditionString());
      EXPECT_EQ(rules[i]->support, reference[i].support);
      EXPECT_EQ(rules[i]->family_complete, reference[i].family_complete);
    }
  }
  for (const std::string& type : catalog->ObjectTypeNames()) {
    if (!db->Contains(type)) continue;
    ASSERT_OK_AND_ASSIGN(std::vector<SchemeCandidate> candidates,
                         IntraObjectCandidates(*catalog, type));
    ASSERT_OK_AND_ASSIGN(const Relation* relation, db->Get(type));
    for (const SchemeCandidate& c : candidates) {
      ASSERT_OK_AND_ASSIGN(std::vector<Rule> reference,
                           InduceScheme(*relation, c.x_attr, c.y_attr, config));
      if (reference.empty()) continue;
      EXPECT_EQ(families.count({reference[0].source_relation,
                                reference[0].scheme}),
                1u)
          << type << " " << reference[0].scheme;
    }
  }
}

TEST(ColumnarInductionDifferentialTest, SeededFuzzRelationsAreIdentical) {
  // Random relations with duplicate X values, numeric type mixing, and
  // nulls — the shapes most likely to expose representative-spelling or
  // tie-break divergence between the two paths.
  uint64_t state = 0xD1FFULL;
  auto next = [&state]() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 40; ++round) {
    Relation rel("FUZZ", Schema({{"X", ValueType::kInt, false},
                                 {"Y", ValueType::kString, false}}));
    const size_t rows = 1 + next() % 400;
    for (size_t i = 0; i < rows; ++i) {
      Value x;
      switch (next() % 8) {
        case 0: x = Value::Null(); break;
        case 1: x = Value::Real(static_cast<double>(next() % 12)); break;
        default: x = Value::Int(static_cast<int64_t>(next() % 12));
      }
      Value y = next() % 9 == 0
                    ? Value::Null()
                    : Value::String(std::string(1, 'a' + next() % 5));
      rel.AppendUnchecked(Tuple({x, y}));
    }
    InductionConfig config;
    config.prune = next() % 2 == 0;
    config.min_support = 1 + next() % 4;
    config.run_policy = next() % 2 == 0 ? RunPolicy::kDatabaseDomain
                                        : RunPolicy::kRemainingDomain;
    InductionStats row_stats, col_stats;
    auto via_rows =
        InduceSchemeRowsWithStats(rel, "X", "Y", config, &row_stats);
    auto via_cols = InduceSchemeColumnarWithStats(
        ColumnarRelation::FromRelation(rel), "X", "Y", config, &col_stats);
    ASSERT_OK(via_rows.status());
    ASSERT_OK(via_cols.status());
    ASSERT_EQ(via_cols->size(), via_rows->size()) << "round " << round;
    for (size_t i = 0; i < via_rows->size(); ++i) {
      EXPECT_EQ((*via_cols)[i].Body(), (*via_rows)[i].Body())
          << "round " << round;
      EXPECT_EQ((*via_cols)[i].support, (*via_rows)[i].support)
          << "round " << round;
      EXPECT_EQ((*via_cols)[i].family_complete,
                (*via_rows)[i].family_complete)
          << "round " << round;
    }
    EXPECT_EQ(col_stats.distinct_pairs, row_stats.distinct_pairs);
    EXPECT_EQ(col_stats.inconsistent_values, row_stats.inconsistent_values);
    EXPECT_EQ(col_stats.runs, row_stats.runs);
    EXPECT_EQ(col_stats.pruned, row_stats.pruned);
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace iqs
