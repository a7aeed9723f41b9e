#include "parser/lexer.h"

#include <cctype>
#include <cstdint>

namespace idlog {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  size_t i = 0;
  const size_t n = text.size();

  auto error = [&](const std::string& msg) {
    return Status::ParseError(msg + " at line " + std::to_string(line) +
                              ", column " + std::to_string(col));
  };
  auto push = [&](TokenKind kind, std::string tok_text = "",
                  int64_t number = 0) {
    out.push_back(Token{kind, std::move(tok_text), number, line, col});
  };
  auto advance = [&](size_t k) {
    for (size_t j = 0; j < k && i < n; ++j, ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };

  while (i < n) {
    char c = text[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '%' || (c == '/' && i + 1 < n && text[i + 1] == '/')) {
      while (i < n && text[i] != '\n') advance(1);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      int64_t v = 0;
      while (j < n && std::isdigit(static_cast<unsigned char>(text[j]))) {
        const int digit = text[j] - '0';
        // Numbers are naturals packed into 63 bits (see Value).
        if (v > (INT64_MAX - digit) / 10) {
          return error("integer literal overflows 63-bit range");
        }
        v = v * 10 + digit;
        ++j;
      }
      push(TokenKind::kNumber, std::string(text.substr(i, j - i)), v);
      advance(j - i);
      continue;
    }
    if (c == '"') {
      size_t j = i + 1;
      std::string s;
      while (j < n && text[j] != '"') {
        if (text[j] == '\n') return error("unterminated string literal");
        s += text[j];
        ++j;
      }
      if (j >= n) return error("unterminated string literal");
      push(TokenKind::kString, std::move(s));
      advance(j + 1 - i);
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(text[j])) ++j;
      std::string word(text.substr(i, j - i));
      if (word == "not") {
        push(TokenKind::kNot, word);
      } else if (std::isupper(static_cast<unsigned char>(c)) || c == '_') {
        push(TokenKind::kVariable, word);
      } else {
        push(TokenKind::kIdent, word);
      }
      advance(j - i);
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen); advance(1); continue;
      case ')': push(TokenKind::kRParen); advance(1); continue;
      case '[': push(TokenKind::kLBracket); advance(1); continue;
      case ']': push(TokenKind::kRBracket); advance(1); continue;
      case ',': push(TokenKind::kComma); advance(1); continue;
      case '+': push(TokenKind::kPlus); advance(1); continue;
      case '-': push(TokenKind::kMinus); advance(1); continue;
      case '*': push(TokenKind::kStar); advance(1); continue;
      case '|': push(TokenKind::kPipe); advance(1); continue;
      case '/': push(TokenKind::kSlash); advance(1); continue;
      case '=': push(TokenKind::kEq); advance(1); continue;
      case '!':
        if (i + 1 < n && text[i + 1] == '=') {
          push(TokenKind::kNe);
          advance(2);
          continue;
        }
        return error("unexpected '!'");
      case '<':
        if (i + 1 < n && text[i + 1] == '=') {
          push(TokenKind::kLe);
          advance(2);
        } else {
          push(TokenKind::kLt);
          advance(1);
        }
        continue;
      case '>':
        if (i + 1 < n && text[i + 1] == '=') {
          push(TokenKind::kGe);
          advance(2);
        } else {
          push(TokenKind::kGt);
          advance(1);
        }
        continue;
      case ':':
        if (i + 1 < n && text[i + 1] == '-') {
          push(TokenKind::kImplies);
          advance(2);
          continue;
        }
        return error("unexpected ':'");
      case '.': {
        // ".decl" directive vs clause terminator.
        if (i + 4 < n && text.substr(i + 1, 4) == "decl" &&
            (i + 5 >= n || !IsIdentChar(text[i + 5]))) {
          push(TokenKind::kDecl, ".decl");
          advance(5);
          continue;
        }
        push(TokenKind::kDot);
        advance(1);
        continue;
      }
      default:
        return error(std::string("unexpected character '") + c + "'");
    }
  }
  push(TokenKind::kEof);
  return out;
}

}  // namespace idlog
