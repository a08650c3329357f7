// Seeded mutation fuzzer for the script parser and the ccpi_check flag
// parser. The shipped workloads and a list of valid flags are mutated by
// byte flips, truncation, token duplication and number swaps over a fixed
// seed list. Every mutant must come back as a Status — no crash, no
// CCPI_CHECK abort — and a script mutant that parses must also run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "manager/script.h"

namespace ccpi {
namespace {

constexpr uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

/// Numbers a swap substitutes: boundaries of every knob range and of the
/// integer parsers.
constexpr const char* kNumbers[] = {
    "0",          "1",          "2",          "7",
    "255",        "256",        "257",        "1023",
    "1024",       "1025",       "4294967296", "18446744073709551615",
    "18446744073709551616",     "99999999999999999999999",
    "-1",         "0.5",        "1e3"};

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  /// One to three random mutations of `text`.
  std::string Mutate(std::string text) {
    size_t rounds = 1 + Below(3);
    for (size_t i = 0; i < rounds && !text.empty(); ++i) {
      switch (Below(4)) {
        case 0:
          text[Below(text.size())] ^= static_cast<char>(1 << Below(8));
          break;
        case 1:
          text.resize(Below(text.size()));
          break;
        case 2:
          DuplicateToken(&text);
          break;
        default:
          SwapNumber(&text);
          break;
      }
    }
    return text;
  }

 private:
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  /// Spans [begin, end) of the runs of characters satisfying `in_run`.
  template <typename Pred>
  std::vector<std::pair<size_t, size_t>> Runs(const std::string& text,
                                              Pred in_run) {
    std::vector<std::pair<size_t, size_t>> runs;
    for (size_t i = 0; i < text.size();) {
      if (!in_run(text[i])) {
        ++i;
        continue;
      }
      size_t begin = i;
      while (i < text.size() && in_run(text[i])) ++i;
      runs.emplace_back(begin, i);
    }
    return runs;
  }

  void DuplicateToken(std::string* text) {
    auto tokens = Runs(*text, [](char c) {
      return !std::isspace(static_cast<unsigned char>(c));
    });
    if (tokens.empty()) return;
    auto [begin, end] = tokens[Below(tokens.size())];
    text->insert(end, " " + text->substr(begin, end - begin));
  }

  void SwapNumber(std::string* text) {
    auto numbers = Runs(*text, [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) != 0;
    });
    if (numbers.empty()) return;
    auto [begin, end] = numbers[Below(numbers.size())];
    text->replace(begin, end - begin,
                  kNumbers[Below(std::size(kNumbers))]);
  }

  std::mt19937_64 rng_;
};

std::vector<std::string> Workloads() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CCPI_WORKLOAD_DIR)) {
    if (entry.path().extension() == ".ccpi") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

/// One valid spelling of every knob flag.
const std::vector<std::string>& ValidFlags() {
  static const std::vector<std::string> flags = {
      "--stats",
      "--threads=2",
      "--remote-cache=off",
      "--plan-cache=off",
      "--columnar=off",
      "--pipeline-depth=4",
      "--fault-rate=0.25",
      "--fault-timeout-rate=0.25",
      "--fault-outage=2:9",
      "--fault-seed=42",
      "--fault-reject",
      "--sites=3",
      "--placement=order:1,blocked:2",
      "--site-fault-rate=1:0.5",
      "--site-fault-timeout-rate=2:0.1",
      "--site-fault-outage=0:3:7",
      "--site-fault-seed=1:9",
      "--site-latency=1:twopoint:100:5000:0.1",
      "--hedge-after=3",
      "--domains=rack0:0+1,rack1:2",
      "--domain-outage=rack0:4:10",
      "--deadline-ms=750",
      "--max-fixpoint-rounds=6",
      "--max-derived-tuples=10000",
      "--deferred-queue-cap=32",
      "--overflow-policy=shed-oldest",
  };
  return flags;
}

TEST(ScriptFuzzTest, ValidFlagsCoverTheTable) {
  std::vector<std::string> covered;
  for (const std::string& flag : ValidFlags()) {
    ScriptOptions options;
    bool matched = false;
    Status st = ApplyScriptFlag(flag, &options, &matched);
    EXPECT_TRUE(matched && st.ok()) << flag << ": " << st.ToString();
    covered.push_back(flag.substr(2, flag.find('=') - 2));
  }
  for (const Knob& knob : ScriptKnobs()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), knob.flag),
              covered.end())
        << "no valid sample for --" << knob.flag;
  }
}

TEST(ScriptFuzzTest, MutatedScriptsParseOrFailCleanly) {
  const std::vector<std::string> workloads = Workloads();
  ASSERT_FALSE(workloads.empty());
  size_t parsed = 0, ran = 0, total = 0;
  for (uint64_t seed : kSeeds) {
    Mutator mutator(seed);
    for (const std::string& text : workloads) {
      for (int i = 0; i < 6; ++i) {
        std::string mutant = mutator.Mutate(text);
        ++total;
        Result<Script> script = ParseScript(mutant);
        if (!script.ok()) {
          EXPECT_FALSE(script.status().message().empty());
          continue;
        }
        ++parsed;
        Result<ScriptReport> report = RunScript(*script);
        if (report.ok()) ++ran;
      }
    }
  }
  // The mutations must leave enough scripts intact to reach RunScript.
  EXPECT_GT(parsed, total / 10);
  EXPECT_GT(ran, 0u);
}

TEST(ScriptFuzzTest, MutatedFlagsApplyOrFailCleanly) {
  const std::vector<std::string> workloads = Workloads();
  ASSERT_FALSE(workloads.empty());
  Result<Script> base = ParseScript(workloads.front());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  size_t applied = 0, total = 0;
  for (uint64_t seed : kSeeds) {
    Mutator mutator(seed);
    for (const std::string& flag : ValidFlags()) {
      for (int i = 0; i < 20; ++i) {
        std::string mutant = mutator.Mutate(flag);
        ++total;
        ScriptOptions options = base->options;
        bool matched = false;
        Status st = ApplyScriptFlag(mutant, &options, &matched);
        if (!matched) {
          EXPECT_TRUE(st.ok()) << mutant;
          continue;
        }
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << mutant;
          continue;
        }
        ++applied;
        // Flag mutants stop at validation: the parsers and the validator
        // are what this fuzzes, not the manager under every in-range knob.
        Status valid = ValidateScriptOptions(options);
        EXPECT_TRUE(valid.ok() ||
                    valid.code() == StatusCode::kInvalidArgument)
            << mutant;
      }
    }
  }
  EXPECT_GT(applied, total / 20);
}

}  // namespace
}  // namespace ccpi
