#ifndef IQS_SQL_SQL_LEXER_H_
#define IQS_SQL_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace iqs {

// Token kinds of the SQL subset (SELECT statements only — DML/DDL is
// handled by the relational and KER layers directly).
enum class SqlTokenKind {
  kIdent,    // SUBMARINE, Displacement (keywords are idents, matched
             // case-insensitively by the parser)
  kString,   // 'BQS-04' (single quotes, '' escapes a quote)
  kInt,      // 8000, -3
  kReal,     // 3.5, -0.5
  kSymbol,   // . , ( ) * = != <> < <= > >=
  kEnd,
};

struct SqlToken {
  SqlTokenKind kind = SqlTokenKind::kEnd;
  std::string text;
  int position = 0;  // byte offset, for error messages

  bool IsSymbol(const std::string& s) const {
    return kind == SqlTokenKind::kSymbol && text == s;
  }
  bool IsKeyword(const std::string& kw) const;
};

// Lexes `input`; errors name `language` and the byte offset
// ("SQL offset 12: ..."), so the QUEL parser, which shares this lexer,
// reports "QUEL offset".
Result<std::vector<SqlToken>> LexSql(const std::string& input,
                                     const std::string& language = "SQL");

}  // namespace iqs

#endif  // IQS_SQL_SQL_LEXER_H_
