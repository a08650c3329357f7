// Robustness: the parser must return a Status (never crash, hang, or
// corrupt memory) on arbitrary input. Random byte soup, random token soup,
// and mutated valid programs all go through; whatever parses back must
// round-trip through the printer.

#include <gtest/gtest.h>

#include <string>

#include "datalog/parser.h"
#include "util/rng.h"

namespace ccpi {
namespace {

TEST(ParserRobustness, RandomBytes) {
  Rng rng(0xFEED);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    size_t len = rng.Below(80);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.Range(1, 126)));
    }
    auto p = ParseProgram(input);  // must not crash
    if (p.ok()) {
      auto again = ParseProgram(p->ToString());
      EXPECT_TRUE(again.ok()) << "printer output failed to re-parse:\n"
                              << p->ToString();
    }
  }
}

TEST(ParserRobustness, RandomTokenSoup) {
  Rng rng(0xBEEF);
  const char* tokens[] = {"panic", ":-", "emp", "(", ")", ",", "&", "X",
                          "Y",     "not", "<",  "<=", "=", "<>", "5",
                          "toy",   ".",   "\n", "boss"};
  for (int trial = 0; trial < 1000; ++trial) {
    std::string input;
    size_t len = rng.Below(30);
    for (size_t i = 0; i < len; ++i) {
      input += tokens[rng.Below(sizeof(tokens) / sizeof(tokens[0]))];
      input += " ";
    }
    auto p = ParseProgram(input);
    if (p.ok()) {
      EXPECT_TRUE(ParseProgram(p->ToString()).ok());
    }
  }
}

TEST(ParserRobustness, MutatedValidProgram) {
  const std::string base =
      "panic :- emp(E,D,S) & not dept(D) & S < 100\n"
      "boss(E,M) :- emp(E,D,S) & manager(D,M)\n"
      "boss(E,F) :- boss(E,G) & boss(G,F)\n";
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    size_t edits = 1 + rng.Below(3);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Range(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.Range(32, 126)));
          break;
      }
    }
    auto p = ParseProgram(mutated);
    if (p.ok()) {
      EXPECT_TRUE(ParseProgram(p->ToString()).ok());
    }
  }
}

TEST(ParserRobustness, DeepNestingAndLongRules) {
  // A very long body must parse without stack issues.
  std::string body = "p0(X)";
  for (int i = 1; i < 2000; ++i) {
    body += " & p" + std::to_string(i) + "(X)";
  }
  auto p = ParseProgram("panic :- " + body);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules[0].body.size(), 2000u);
}

TEST(ParserRobustness, HugeIntegerBoundary) {
  auto ok = ParseProgram("panic :- p(X) & X < 9223372036854775807");
  EXPECT_TRUE(ok.ok());
}

TEST(ParserRobustness, IntegerLiteralOutOfRangeIsAnError) {
  // Used to throw std::out_of_range out of the lexer and abort the process.
  for (const char* text : {"panic :- p(X) & X < 9223372036854775808",
                           "panic :- p(X) & X > -9223372036854775809",
                           "panic :- p(99999999999999999999999)"}) {
    auto p = ParseProgram(text);
    ASSERT_FALSE(p.ok()) << text;
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(p.status().message().find("out of range"), std::string::npos)
        << p.status().message();
  }
  auto lowest = ParseProgram("panic :- p(X) & X > -9223372036854775808");
  EXPECT_TRUE(lowest.ok()) << lowest.status().ToString();
}

TEST(ParserRobustness, ParenGroupingAroundTerms) {
  // Parentheses around a term are pure grouping: "((x))" parses as "x".
  auto p = ParseProgram("panic :- emp((E), ((42)))");
  ASSERT_TRUE(p.ok());
  auto plain = ParseProgram("panic :- emp(E, 42)");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(p->ToString(), plain->ToString());
}

TEST(ParserRobustness, TermNestingDepthCapped) {
  // Adversarially deep paren nesting is a parse error naming the cap, not
  // a parser-stack overflow. 50k levels would smash the stack without the
  // recursion-depth guard.
  std::string input = "panic :- p(";
  input.append(50000, '(');
  input += "X";
  input.append(50000, ')');
  input += ")";
  auto p = ParseProgram(input);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("term nesting too deep"),
            std::string::npos)
      << p.status().ToString();

  // Moderate nesting (below the cap) still parses fine.
  std::string shallow = "panic :- p(";
  shallow.append(32, '(');
  shallow += "X";
  shallow.append(32, ')');
  shallow += ")";
  EXPECT_TRUE(ParseProgram(shallow).ok());
}

}  // namespace
}  // namespace ccpi
