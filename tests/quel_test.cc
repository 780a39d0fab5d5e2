#include "quel/quel_session.h"

#include "gtest/gtest.h"
#include "quel/quel_parser.h"
#include "testbed/ship_db.h"
#include "tests/test_util.h"

namespace iqs {
namespace {

using testing_util::ColumnText;

class QuelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = BuildShipDatabase();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    session_ = std::make_unique<QuelSession>(db_.get());
  }

  Relation Run(const std::string& text) {
    auto result = session_->ExecuteText(text);
    EXPECT_TRUE(result.ok()) << text << " -> " << result.status();
    return result.ok() ? std::move(result->relation) : Relation();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QuelSession> session_;
};

TEST_F(QuelTest, ParserStatementKinds) {
  ASSERT_OK_AND_ASSIGN(QuelStatement range,
                       ParseQuelStatement("range of r is SUBMARINE"));
  EXPECT_EQ(range.kind, QuelStatement::Kind::kRange);
  EXPECT_EQ(range.range.variable, "r");
  EXPECT_EQ(range.range.relation, "SUBMARINE");

  ASSERT_OK_AND_ASSIGN(
      QuelStatement retrieve,
      ParseQuelStatement("retrieve into S unique (r.Class, r.Id) "
                         "where r.Id != \"SSBN130\" sort by r.Class"));
  EXPECT_EQ(retrieve.kind, QuelStatement::Kind::kRetrieve);
  EXPECT_EQ(retrieve.retrieve.into, "S");
  EXPECT_TRUE(retrieve.retrieve.unique);
  ASSERT_EQ(retrieve.retrieve.targets.size(), 2u);
  EXPECT_EQ(retrieve.retrieve.targets[0].effective_name(), "Class");
  ASSERT_EQ(retrieve.retrieve.sort_by.size(), 1u);

  ASSERT_OK_AND_ASSIGN(QuelStatement del,
                       ParseQuelStatement("delete s where s.X = 1"));
  EXPECT_EQ(del.kind, QuelStatement::Kind::kDelete);

  ASSERT_OK_AND_ASSIGN(
      QuelStatement append,
      ParseQuelStatement("append to S (X = 1, Y = \"a\")"));
  EXPECT_EQ(append.kind, QuelStatement::Kind::kAppend);
  ASSERT_EQ(append.append.attributes.size(), 2u);
}

TEST_F(QuelTest, ParserErrors) {
  EXPECT_FALSE(ParseQuelStatement("").ok());
  EXPECT_FALSE(ParseQuelStatement("range r is T").ok());
  EXPECT_FALSE(ParseQuelStatement("retrieve (r.X").ok());
  EXPECT_FALSE(ParseQuelStatement("retrieve (X)").ok());  // needs var.attr
  EXPECT_FALSE(ParseQuelStatement("append to S (X)").ok());
  EXPECT_FALSE(
      ParseQuelStatement("append to S (X = r.Y)").ok());  // constants only
  EXPECT_FALSE(ParseQuelStatement("select * from T").ok());
  EXPECT_FALSE(
      ParseQuelStatement("range of r is T trailing garbage").ok());
}

TEST_F(QuelTest, RangeRequiresRelation) {
  EXPECT_FALSE(session_->ExecuteText("range of r is NOPE").ok());
  EXPECT_OK(session_->ExecuteText("range of r is SUBMARINE").status());
  ASSERT_OK_AND_ASSIGN(std::string rel, session_->RelationOf("r"));
  EXPECT_EQ(rel, "SUBMARINE");
  EXPECT_FALSE(session_->RelationOf("zz").ok());
}

TEST_F(QuelTest, RetrieveProjectsAndSorts) {
  Run("range of r is CLASS");
  Relation out = Run("retrieve (r.Class, r.Displacement) sort by r.Class");
  ASSERT_EQ(out.size(), 13u);
  EXPECT_EQ(out.schema().attribute(0).name, "Class");
  EXPECT_EQ(out.row(0).at(0), Value::String("0101"));
  EXPECT_EQ(out.row(12).at(0), Value::String("1301"));
}

TEST_F(QuelTest, RetrieveUniqueAndRename) {
  Run("range of r is CLASS");
  Relation out = Run("retrieve unique (t = r.Type)");
  EXPECT_EQ(out.schema().attribute(0).name, "t");
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(QuelTest, RetrieveWhereWithCharCoercion) {
  Run("range of r is SUBMARINE");
  // Unquoted 0204 against the CHAR[4] class attribute.
  Relation out = Run("retrieve (r.Id) where r.Class = 0204");
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(QuelTest, RetrieveJoinAcrossVariables) {
  Run("range of s is SUBMARINE");
  Run("range of c is CLASS");
  Relation out =
      Run("retrieve (s.Name, c.Type) where s.Class = c.Class and "
          "c.Displacement > 8000");
  EXPECT_EQ(out.size(), 2u);
  std::vector<std::string> names = ColumnText(out, "Name");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"Rhode Island", "Typhoon"}));
}

TEST_F(QuelTest, RetrieveSameAttributeTwiceUnderTwoNames) {
  Run("range of r is TYPE");
  Relation out = Run("retrieve (a = r.Type, b = r.Type) sort by r.Type");
  ASSERT_EQ(out.schema().size(), 2u);
  EXPECT_EQ(out.schema().attribute(1).name, "b");
  EXPECT_EQ(ColumnText(out, "a"), ColumnText(out, "b"));
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(QuelTest, RetrieveIntoMaterializesAndReplaces) {
  Run("range of r is CLASS");
  Run("retrieve into CLASSTYPES unique (r.Type)");
  ASSERT_TRUE(db_->Contains("CLASSTYPES"));
  // Running again replaces rather than failing.
  Run("retrieve into CLASSTYPES unique (r.Class)");
  ASSERT_OK_AND_ASSIGN(const Relation* replaced, db_->Get("CLASSTYPES"));
  EXPECT_EQ(replaced->size(), 13u);
}

TEST_F(QuelTest, AppendCoercesAndChecksKeys) {
  Run("range of r is TYPE");
  ASSERT_OK_AND_ASSIGN(
      auto appended,
      session_->ExecuteText(
          "append to TYPE (Type = \"SS\", TypeName = \"diesel sub\")"));
  EXPECT_EQ(appended.affected, 1u);
  ASSERT_OK_AND_ASSIGN(const Relation* types, db_->Get("TYPE"));
  EXPECT_EQ(types->size(), 3u);
  // Duplicate key rejected by the relation layer.
  EXPECT_FALSE(session_
                   ->ExecuteText("append to TYPE (Type = \"SS\", TypeName = "
                                 "\"again\")")
                   .ok());
  // Unmentioned attributes become null.
  ASSERT_OK_AND_ASSIGN(auto partial,
                       session_->ExecuteText("append to TYPE (Type = 99)"));
  EXPECT_EQ(partial.affected, 1u);
  ASSERT_OK_AND_ASSIGN(Value name, types->GetValue(3, "TypeName"));
  EXPECT_TRUE(name.is_null());
  // 99 coerced to the CHAR key as "99".
  ASSERT_OK_AND_ASSIGN(Value key, types->GetValue(3, "Type"));
  EXPECT_EQ(key, Value::String("99"));
}

TEST_F(QuelTest, DeleteWithExistentialQualification) {
  Run("range of s is SUBMARINE");
  Run("range of i is INSTALL");
  // Delete the submarines that have a BQS-04 installed (4 ships).
  ASSERT_OK_AND_ASSIGN(
      auto result,
      session_->ExecuteText("delete s where s.Id = i.Ship and i.Sonar = "
                            "\"BQS-04\""));
  EXPECT_EQ(result.affected, 4u);
  ASSERT_OK_AND_ASSIGN(const Relation* ships, db_->Get("SUBMARINE"));
  EXPECT_EQ(ships->size(), 20u);
}

TEST_F(QuelTest, DeleteWithoutWhereClearsRelation) {
  Run("range of t is TYPE");
  ASSERT_OK_AND_ASSIGN(auto result, session_->ExecuteText("delete t"));
  EXPECT_EQ(result.affected, 2u);
  ASSERT_OK_AND_ASSIGN(const Relation* types, db_->Get("TYPE"));
  EXPECT_TRUE(types->empty());
}

// The paper's §5.2.1 Rule Induction Algorithm, steps 1 and 2, executed
// as the LITERAL QUEL statements the paper prints (X = Id, Y = Class
// over SUBMARINE).
TEST_F(QuelTest, PaperRuleInductionStepsRunVerbatim) {
  // Step 1: "range of r is relation; retrieve into S unique (r.Y, r.X)
  // sort by r.Y".
  ASSERT_OK(session_
                ->ExecuteScript(
                    "range of r is SUBMARINE\n"
                    "retrieve into S unique (r.Class, r.Id) sort by r.Class")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s, db_->Get("S"));
  EXPECT_EQ(s->size(), 24u);  // Id is a key: all pairs distinct

  // Step 2: find inconsistent pairs...
  //   "range of s is S; retrieve into T unique (s.Y, s.X) where (r.X =
  //    s.X and r.Y != s.Y)"
  ASSERT_OK(session_
                ->ExecuteScript(
                    "range of s is S\n"
                    "retrieve into T unique (s.Class, s.Id) "
                    "where (r.Id = s.Id and r.Class != s.Class)")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* t, db_->Get("T"));
  EXPECT_TRUE(t->empty());  // Id is a key: no X has two Y values

  // ...then "delete s where (s.X = t.X and s.Y = t.Y)".
  ASSERT_OK(session_
                ->ExecuteScript("range of t is T\n"
                                "delete s where (s.Id = t.Id and s.Class = "
                                "t.Class)")
                .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s_after, db_->Get("S"));
  EXPECT_EQ(s_after->size(), 24u);  // nothing inconsistent to remove
}

// Same, on data that actually HAS inconsistent pairs: the INSTALL
// relation's (Ship-prefix, Sonar) correlation.
TEST_F(QuelTest, PaperStep2RemovesInconsistentPairs) {
  // Build a small relation with an inconsistent X value.
  ASSERT_OK(db_->CreateRelation("PAIRS",
                                Schema({{"X", ValueType::kInt, false},
                                        {"Y", ValueType::kString, false}}))
                .status());
  QuelSession fresh(db_.get());
  ASSERT_OK(fresh.ExecuteText("range of p is PAIRS").status());
  for (const char* row : {"(X = 1, Y = \"a\")", "(X = 2, Y = \"a\")",
                          "(X = 2, Y = \"b\")", "(X = 3, Y = \"c\")"}) {
    ASSERT_OK(fresh.ExecuteText(std::string("append to PAIRS ") + row)
                  .status());
  }
  ASSERT_OK(
      fresh
          .ExecuteScript(
              "retrieve into S unique (p.Y, p.X) sort by p.Y\n"
              "range of s is S\n"
              "retrieve into T unique (s.Y, s.X) where (p.X = s.X and p.Y "
              "!= s.Y)\n"
              "range of t is T\n"
              "delete s where (s.X = t.X and s.Y = t.Y)")
          .status());
  ASSERT_OK_AND_ASSIGN(const Relation* s, db_->Get("S"));
  // X=2 was inconsistent; only (1,a) and (3,c) survive.
  EXPECT_EQ(s->size(), 2u);
  EXPECT_EQ(ColumnText(*s, "X"), (std::vector<std::string>{"1", "3"}));
}

TEST_F(QuelTest, ScriptReturnsLastResult) {
  ASSERT_OK_AND_ASSIGN(auto result,
                       session_->ExecuteScript(
                           "range of r is TYPE; retrieve (r.Type)"));
  EXPECT_EQ(result.relation.size(), 2u);
  EXPECT_FALSE(session_->ExecuteScript("").ok());
}

// A quoted number against an INT attribute coerces exactly as in SQL
// (CLASS 0102 and 0103 displace 7250 tons).
TEST_F(QuelTest, StringLiteralAgainstIntAttributeCoercesAsInSql) {
  Run("range of c is CLASS");
  Relation out = Run("retrieve (c.Class) where c.Displacement = \"7250\"");
  EXPECT_EQ(ColumnText(out, "Class"),
            (std::vector<std::string>{"0102", "0103"}));
}

TEST_F(QuelTest, NegativeLiteralsLexAndErrorsNameQuel) {
  Run("range of c is CLASS");
  Relation all = Run("retrieve (c.Class) where c.Displacement > -1");
  EXPECT_EQ(all.size(), 13u);
  Relation none = Run("retrieve (c.Class) where c.Displacement < -1.5");
  EXPECT_EQ(none.size(), 0u);
  auto bad = ParseQuelStatement("retrieve (c.Class) where c.Class = ?");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("QUEL offset"), std::string::npos)
      << bad.status();
  EXPECT_EQ(bad.status().message().find("SQL"), std::string::npos)
      << bad.status();
}

// An unknown attribute is a bind error, so it surfaces even when no row
// would ever reach the qualification.
TEST_F(QuelTest, UnknownAttributeFailsOnEmptyRelation) {
  ASSERT_OK(db_->CreateRelation("EMPTY",
                                Schema({{"X", ValueType::kInt, false}}))
                .status());
  Run("range of e is EMPTY");
  EXPECT_EQ(Run("retrieve (e.X) where e.X = 1").size(), 0u);
  auto result = session_->ExecuteText("retrieve (e.X) where e.Nope = 1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("Nope"), std::string::npos)
      << result.status();
  EXPECT_FALSE(session_->ExecuteText("delete e where e.Nope = 1").ok());
}

// Duplicate rows share a fate, a NULL column matches NULL, and rows that
// differ only in type (INT 3 vs REAL 3.0) are each removed: neither
// stands in for the other.
TEST_F(QuelTest, DeleteRemovesExactlyTheQualifyingTuples) {
  Relation dup("DUP", Schema({{"X", ValueType::kReal, false},
                              {"Y", ValueType::kString, false}}));
  for (const Tuple& row :
       {Tuple({Value::Real(1), Value::String("a")}),
        Tuple({Value::Real(1), Value::String("a")}),
        Tuple({Value::Real(2), Value::Null()}),
        Tuple({Value::Real(2), Value::Null()}),
        Tuple({Value::Real(2), Value::String("b")}),
        Tuple({Value::Null(), Value::String("a")}),
        Tuple({Value::Int(3), Value::String("c")}),
        Tuple({Value::Real(3), Value::String("c")})}) {
    dup.AppendUnchecked(row);
  }
  ASSERT_OK(db_->AddRelation(std::move(dup)));
  Run("range of d is DUP");
  ASSERT_OK_AND_ASSIGN(const Relation* rel, db_->Get("DUP"));

  ASSERT_OK_AND_ASSIGN(auto a, session_->ExecuteText(
                                   "delete d where d.Y = \"a\" and d.X = 1"));
  EXPECT_EQ(a.affected, 2u);
  // Comparisons with NULL are false, so NOT admits both (2, NULL) rows.
  ASSERT_OK_AND_ASSIGN(auto nulls, session_->ExecuteText(
                                       "delete d where d.X = 2 and "
                                       "not d.Y = \"b\""));
  EXPECT_EQ(nulls.affected, 2u);
  ASSERT_OK_AND_ASSIGN(auto threes,
                       session_->ExecuteText("delete d where d.X = 3"));
  EXPECT_EQ(threes.affected, 2u);  // INT 3 and REAL 3.0 both qualify
  ASSERT_OK_AND_ASSIGN(auto b,
                       session_->ExecuteText("delete d where d.Y = \"b\""));
  EXPECT_EQ(b.affected, 1u);
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->row(0).at(0).is_null());
  EXPECT_EQ(rel->row(0).at(1), Value::String("a"));
}

TEST_F(QuelTest, UnboundVariableErrors) {
  EXPECT_FALSE(session_->ExecuteText("retrieve (q.X)").ok());
  EXPECT_FALSE(session_->ExecuteText("delete q").ok());
}

}  // namespace
}  // namespace iqs
