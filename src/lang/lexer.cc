#include "lang/lexer.h"

#include <cctype>
#include <cstdlib>

namespace ssa {
namespace lang {
namespace {

const char* const kKeywords[] = {
    "CREATE", "TRIGGER", "AFTER", "INSERT", "ON",  "IF",    "THEN",
    "ELSEIF", "ELSE",    "ENDIF", "UPDATE", "SET", "WHERE", "SELECT",
    "FROM",   "AND",     "OR",    "NOT",    "MAX", "MIN",   "SUM",
    "COUNT",  "AVG",
};

/// The keyword `ident` spells in any case, or nullptr. Compares in place:
/// most identifiers differ from every keyword in length or first letter.
const char* MatchKeyword(std::string_view ident) {
  for (const char* kw : kKeywords) {
    size_t i = 0;
    while (i < ident.size() && kw[i] != '\0' &&
           std::toupper(static_cast<unsigned char>(ident[i])) == kw[i]) {
      ++i;
    }
    if (i == ident.size() && kw[i] == '\0') return kw;
  }
  return nullptr;
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  tokens.reserve(source.size() / 4);
  size_t pos = 0;
  int line = 1;
  auto push = [&](TokenKind kind, std::string text = "", double num = 0) {
    tokens.push_back(Token{kind, std::move(text), num, line});
  };
  while (pos < source.size()) {
    const char c = source[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '-' && pos + 1 < source.size() && source[pos + 1] == '-') {
      while (pos < source.size() && source[pos] != '\n') ++pos;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos;
      while (pos < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[pos])) ||
              source[pos] == '_')) {
        ++pos;
      }
      const std::string_view ident = source.substr(start, pos - start);
      if (const char* kw = MatchKeyword(ident)) {
        push(TokenKind::kKeyword, kw);
      } else {
        push(TokenKind::kIdentifier, std::string(ident));
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos + 1 < source.size() &&
         std::isdigit(static_cast<unsigned char>(source[pos + 1])))) {
      size_t start = pos;
      while (pos < source.size() &&
             (std::isdigit(static_cast<unsigned char>(source[pos])) ||
              source[pos] == '.')) {
        ++pos;
      }
      const std::string text(source.substr(start, pos - start));
      push(TokenKind::kNumber, text, std::strtod(text.c_str(), nullptr));
      continue;
    }
    if (c == '\'') {
      ++pos;
      size_t start = pos;
      while (pos < source.size() && source[pos] != '\'') {
        if (source[pos] == '\n') ++line;
        ++pos;
      }
      if (pos >= source.size()) {
        return Status::InvalidArgument("unterminated string literal at line " +
                                       std::to_string(line));
      }
      push(TokenKind::kString, std::string(source.substr(start, pos - start)));
      ++pos;  // closing quote
      continue;
    }
    ++pos;
    switch (c) {
      case '(':
        push(TokenKind::kLParen);
        break;
      case ')':
        push(TokenKind::kRParen);
        break;
      case '{':
        push(TokenKind::kLBrace);
        break;
      case '}':
        push(TokenKind::kRBrace);
        break;
      case ',':
        push(TokenKind::kComma);
        break;
      case ';':
        push(TokenKind::kSemicolon);
        break;
      case '.':
        push(TokenKind::kDot);
        break;
      case '+':
        push(TokenKind::kPlus);
        break;
      case '-':
        push(TokenKind::kMinus);
        break;
      case '*':
        push(TokenKind::kStar);
        break;
      case '/':
        push(TokenKind::kSlash);
        break;
      case '=':
        push(TokenKind::kEq);
        break;
      case '<':
        if (pos < source.size() && source[pos] == '>') {
          ++pos;
          push(TokenKind::kNe);
        } else if (pos < source.size() && source[pos] == '=') {
          ++pos;
          push(TokenKind::kLe);
        } else {
          push(TokenKind::kLt);
        }
        break;
      case '>':
        if (pos < source.size() && source[pos] == '=') {
          ++pos;
          push(TokenKind::kGe);
        } else {
          push(TokenKind::kGt);
        }
        break;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at line " + std::to_string(line));
    }
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.line = line;
  tokens.push_back(end);
  return tokens;
}

}  // namespace lang
}  // namespace ssa
