#ifndef IQS_TESTS_QUERY_CORPUS_H_
#define IQS_TESTS_QUERY_CORPUS_H_

#include <string>
#include <vector>

#include "testbed/ship_db.h"

namespace iqs {
namespace testing_util {

// The semantic-rewrite golden corpus (sqo_differential_test.cc), also
// read by the describe-vs-executor property in
// columnar_differential_test.cc: the three paper examples, every
// rewrite-kind trigger, and the shapes the pass must leave alone.
// Comments mark what each row is there to exercise.
inline const std::vector<std::string>& SqoGoldenCorpus() {
  static const std::vector<std::string>* corpus = new std::vector<
      std::string>{
      Example1Sql(),  // paper example 1
      Example2Sql(),  // paper example 2
      Example3Sql(),  // paper example 3
      // Point restriction on an induced scheme: narrowing candidate.
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN'",
      // Redundant range conjunct: elimination candidate.
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement > 1000",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement BETWEEN 1000 AND 30000",
      // Range disjoint from the implied band: empty-proof candidate.
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement < 100",
      "SELECT ClassName FROM CLASS WHERE Type = 'SSBN' "
      "AND Displacement > 99999",
      // Rule-subsumed shape (intensional-only in kIntensional mode; in
      // kOn it must still answer extensionally and identically).
      "SELECT Class FROM CLASS WHERE Type = 'SSN'",
      // Join across the induced scheme: the pass must stay sound with
      // two FROM tables.
      "SELECT SUBMARINE.Id FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Type = 'SSBN'",
      "SELECT SUBMARINE.Name, CLASS.ClassName FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Displacement > 8000",
      // Disjunction: conversion is unsound conjunct-wise, pass declines.
      "SELECT Id FROM SUBMARINE WHERE Class = '0204' OR Class = '0101'",
      // Negation and inequality operators.
      "SELECT Id FROM SUBMARINE WHERE Class <> '0204'",
      "SELECT ClassName FROM CLASS WHERE Type <> 'SSBN' "
      "AND Displacement >= 3000",
      // Aggregates / grouping / ordering / distinct over rewritable
      // WHEREs: the projection pipeline must see identical input rows.
      "SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > 1000 "
      "GROUP BY Type",
      "SELECT Class, COUNT(*) FROM SUBMARINE GROUP BY Class",
      "SELECT DISTINCT Class FROM SUBMARINE WHERE Class = '0204'",
      "SELECT Name FROM SUBMARINE WHERE Class = '0204' ORDER BY Name DESC",
      "SELECT MIN(Displacement), MAX(Displacement) FROM CLASS "
      "WHERE Type = 'SSBN'",
      // No WHERE at all: nothing to rewrite.
      "SELECT Name FROM SUBMARINE",
      // Value outside the active domain: empty either way.
      "SELECT Id FROM SUBMARINE WHERE Class = '9999'",
      "SELECT ClassName FROM CLASS WHERE Type = 'XX' "
      "AND Displacement > 5000",
      // Bind error: must fail identically under both modes.
      "SELECT Id FROM SUBMARINE WHERE NoSuchColumn = '0204'",
  };
  return *corpus;
}

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_QUERY_CORPUS_H_
