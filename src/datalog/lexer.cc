#include "datalog/lexer.h"

#include <cctype>
#include <charconv>
#include <string>

namespace ccpi {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  int line = 1;
  int col = 1;
  size_t i = 0;
  auto push = [&](TokenKind kind, std::string text = "", int64_t num = 0) {
    tokens.push_back(Token{kind, std::move(text), num, line, col});
  };
  while (i < input.size()) {
    char c = input[i];
    if (c == '\n') {
      push(TokenKind::kNewline);
      ++i;
      ++line;
      col = 1;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      ++col;
      continue;
    }
    if (c == '%' || c == '#') {
      while (i < input.size() && input[i] != '\n') ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < input.size() && IsIdentChar(input[i])) ++i;
      std::string text(input.substr(start, i - start));
      col += static_cast<int>(i - start);
      push(TokenKind::kIdent, std::move(text));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < input.size() &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[i]))) {
        ++i;
      }
      int64_t num = 0;
      std::string_view digits = input.substr(start, i - start);
      if (std::from_chars(digits.data(), digits.data() + digits.size(), num)
              .ec != std::errc()) {
        return Status::InvalidArgument(
            "integer literal " + std::string(digits) +
            " out of range at line " + std::to_string(line) + ", column " +
            std::to_string(col));
      }
      col += static_cast<int>(i - start);
      push(TokenKind::kInt, "", num);
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < input.size() && input[i + 1] == b;
    };
    if (two(':', '-')) {
      push(TokenKind::kImplies);
      i += 2;
      col += 2;
      continue;
    }
    if (two('<', '=')) {
      push(TokenKind::kLe);
      i += 2;
      col += 2;
      continue;
    }
    if (two('>', '=')) {
      push(TokenKind::kGe);
      i += 2;
      col += 2;
      continue;
    }
    if (two('<', '>') || two('!', '=')) {
      push(TokenKind::kNe);
      i += 2;
      col += 2;
      continue;
    }
    switch (c) {
      case '(':
        push(TokenKind::kLParen);
        break;
      case ')':
        push(TokenKind::kRParen);
        break;
      case ',':
        push(TokenKind::kComma);
        break;
      case '&':
        push(TokenKind::kAmp);
        break;
      case '.':
        push(TokenKind::kPeriod);
        break;
      case '<':
        push(TokenKind::kLt);
        break;
      case '>':
        push(TokenKind::kGt);
        break;
      case '=':
        push(TokenKind::kEq);
        break;
      default:
        return Status::InvalidArgument("unexpected character '" +
                                       std::string(1, c) + "' at line " +
                                       std::to_string(line) + ", column " +
                                       std::to_string(col));
    }
    ++i;
    ++col;
  }
  push(TokenKind::kEnd);
  return tokens;
}

}  // namespace ccpi
