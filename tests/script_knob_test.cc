// The knob table behind the script directives and the ccpi_check flags:
// setting a knob by directive must be indistinguishable from setting it
// by flag, and `ccpi_check --help` must list exactly the table's flags
// plus the tool's own.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "manager/script.h"

namespace ccpi {
namespace {

/// A script with remote predicates on every site, so placement, latency,
/// hedging and outages all show in the report.
constexpr const char kBase[] =
    "local reserved\n"
    "constraint no-reserved-order\n"
    "panic :- reserved(P,Lo,Hi) & order(P,Q) & Lo <= Q & Q <= Hi\n"
    "constraint no-blocked\n"
    "panic :- reserved(P,Lo,Hi) & blocked(P)\n"
    "fact order(widget, 700)\n"
    "fact order(gadget, 610)\n"
    "fact blocked(gizmo)\n"
    "insert reserved(widget, 0, 400)\n"
    "insert reserved(gadget, 0, 400)\n"
    "insert reserved(widget, 650, 800)\n"
    "insert reserved(gizmo, 1, 2)\n"
    "delete reserved(widget, 0, 400)\n";

struct KnobSample {
  /// Directive keyword, also the test name.
  std::string keyword;
  /// Lines both scripts share, placed before the base.
  std::string prelude;
  /// The directive line, only in the directive script.
  std::string directive;
  /// The same setting as a flag, only applied to the flag script.
  std::string flag;
  /// Flags applied to both, so the knob has something to act on.
  std::vector<std::string> shared_flags = {};
  /// Whether the knob shows in a --stats report at all; the pipeline is
  /// invisible by design, and a domain only through its outage.
  bool visible = true;
};

void PrintTo(const KnobSample& sample, std::ostream* os) {
  *os << sample.keyword;
}

const std::vector<KnobSample>& Samples() {
  static const std::vector<KnobSample> samples = {
      {"sites", "", "sites 3", "--sites=3"},
      {"site", "sites 3\n", "site 2 order blocked",
       "--placement=order:2,blocked:2"},
      {"site_latency", "sites 2\n", "site_latency 1 twopoint:100:5000:0.3",
       "--site-latency=1:twopoint:100:5000:0.3"},
      {"hedge_after", "sites 2\nsite_latency 0 twopoint:1:50:0.4\n",
       "hedge_after 1", "--hedge-after=1"},
      {"domain", "sites 3\n", "domain rack0 0 1", "--domains=rack0:0+1",
       {"--domain-outage=rack0:0:2"}, false},
      {"domain_outage", "sites 3\ndomain rack0 0 1\n",
       "domain_outage rack0 0 2", "--domain-outage=rack0:0:2"},
      {"plan_cache", "", "plan_cache off", "--plan-cache=off"},
      {"pipeline", "", "pipeline 4", "--pipeline-depth=4", {}, false},
  };
  return samples;
}

Script MustParse(const std::string& text) {
  auto script = ParseScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString() << "\n" << text;
  return script.ok() ? *script : Script{};
}

void MustApply(const std::string& flag, ScriptOptions* options) {
  bool matched = false;
  Status st = ApplyScriptFlag(flag, options, &matched);
  EXPECT_TRUE(matched) << flag;
  EXPECT_TRUE(st.ok()) << flag << ": " << st.ToString();
}

std::string RunText(Script script, const std::vector<std::string>& flags) {
  script.options.print_stats = true;
  for (const std::string& flag : flags) MustApply(flag, &script.options);
  EXPECT_TRUE(ValidateScriptOptions(script.options).ok());
  auto report = RunScript(script);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report->text : "";
}

class DirectiveEqualsFlagTest : public testing::TestWithParam<KnobSample> {};

TEST_P(DirectiveEqualsFlagTest, SameReportByteForByte) {
  const KnobSample& sample = GetParam();
  Script by_directive =
      MustParse(sample.prelude + sample.directive + "\n" + kBase);
  Script by_flag = MustParse(sample.prelude + kBase);
  std::vector<std::string> flags = sample.shared_flags;
  std::string directive_text = RunText(by_directive, flags);
  flags.push_back(sample.flag);
  std::string flag_text = RunText(by_flag, flags);
  EXPECT_EQ(directive_text, flag_text);
  if (sample.visible) {
    // Not vacuous: the knob does move the report.
    EXPECT_NE(RunText(by_flag, sample.shared_flags), flag_text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryDirectiveKnob, DirectiveEqualsFlagTest, testing::ValuesIn(Samples()),
    [](const testing::TestParamInfo<KnobSample>& info) {
      return info.param.keyword;
    });

TEST(ScriptKnobTest, SamplesCoverEveryDirective) {
  // A knob that gains a directive must gain a sample above.
  std::set<std::string> table, sampled;
  for (const Knob& knob : ScriptKnobs()) {
    if (knob.directive.empty()) continue;
    table.insert(
        std::string(knob.directive.substr(0, knob.directive.find(' '))));
  }
  for (const KnobSample& sample : Samples()) {
    sampled.insert(sample.keyword);
    EXPECT_EQ(sample.directive.substr(0, sample.directive.find(' ')),
              sample.keyword);
  }
  EXPECT_EQ(table, sampled);
}

TEST(ScriptKnobTest, FlagNamesAreUnique) {
  std::set<std::string_view> flags, keywords;
  for (const Knob& knob : ScriptKnobs()) {
    EXPECT_TRUE(flags.insert(knob.flag).second) << knob.flag;
    if (knob.directive.empty()) continue;
    std::string_view keyword =
        knob.directive.substr(0, knob.directive.find(' '));
    EXPECT_TRUE(keywords.insert(keyword).second) << keyword;
  }
}

TEST(ScriptKnobTest, HelpListsExactlyTheTableFlagsAndToolFlags) {
  std::FILE* pipe = popen(CCPI_CHECK_PATH " --help", "r");
  ASSERT_NE(pipe, nullptr);
  std::string help;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    help.append(buffer, n);
  }
  ASSERT_EQ(pclose(pipe), 0);

  // Flag entries start at column 2; wrapped help text is indented deeper.
  std::set<std::string> listed;
  std::istringstream lines(help);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    std::string name = line.substr(4, line.find_first_of("= ", 4) - 4);
    EXPECT_TRUE(listed.insert(name).second) << "listed twice: " << name;
  }
  std::set<std::string> expected = {"help", "export-souffle", "trace-out",
                                    "metrics-out"};
  for (const Knob& knob : ScriptKnobs()) {
    expected.insert(std::string(knob.flag));
  }
  EXPECT_EQ(listed, expected);
}

}  // namespace
}  // namespace ccpi
