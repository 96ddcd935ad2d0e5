#ifndef SSA_LANG_LEXER_H_
#define SSA_LANG_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ssa {
namespace lang {

/// Token kinds of the bidding-program language — the SQL-without-recursion
/// subset of Section II-B in which Figure 5's Equalize-ROI program is
/// written.
enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,   // single-quoted, e.g. 'Click & Slot1'
  kKeyword,  // normalized upper-case in `text`
  // punctuation / operators
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kSemicolon,
  kDot,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kEq,         // =
  kNe,         // <>
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;   // identifier/keyword text (keywords upper-cased)
  double number = 0;  // for kNumber
  int line = 1;
};

/// Tokenizes a program. Keywords (CREATE, TRIGGER, AFTER, INSERT, ON, IF,
/// THEN, ELSEIF, ELSE, ENDIF, UPDATE, SET, WHERE, SELECT, FROM, AND, OR,
/// NOT, MAX, MIN, SUM, COUNT, AVG) are case-insensitive; identifiers keep
/// their case. `--` starts a comment to end of line.
StatusOr<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace lang
}  // namespace ssa

#endif  // SSA_LANG_LEXER_H_
