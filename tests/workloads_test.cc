// Runs every sample workload shipped in examples/workloads through the
// script engine and checks the headline outcomes, so the CLI samples can
// never rot.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "manager/script.h"

namespace ccpi {
namespace {

std::string ReadWorkload(const std::string& name) {
  std::ifstream in(std::string(CCPI_WORKLOAD_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing workload " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(WorkloadsTest, Inventory) {
  auto script = ParseScript(ReadWorkload("inventory.ccpi"));
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 6u);
  EXPECT_EQ(report->updates_rejected, 2u);
  EXPECT_NE(report->text.find("tier local-test"), std::string::npos);
}

TEST(WorkloadsTest, Salary) {
  auto script = ParseScript(ReadWorkload("salary.ccpi"));
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->text.find("cap-500 (redundant"), std::string::npos);
  EXPECT_EQ(report->updates_rejected, 2u);  // carol's salary + ann's dual
}

TEST(WorkloadsTest, Sensors) {
  auto script = ParseScript(ReadWorkload("sensors.ccpi"));
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 4u);
  EXPECT_EQ(report->updates_rejected, 2u);
  // The sub-window inserts resolved without touching readings remotely.
  EXPECT_NE(report->text.find("tier local-test"), std::string::npos);
}

// The plan.* counters depend only on the update stream, also under the
// speculative pipeline. Concurrent speculations that miss the same key and
// both compile it count one compile and one hit, as a serial run would:
// only the lane whose store wins counts the compile. Before that rule the
// depth-8 line of this run varied between 4 compiles + 4 hits and
// 3 compiles + 5 hits.
TEST(WorkloadsTest, PipelinedPlanCountersRepeatRunToRun) {
  const std::string text = ReadWorkload("overload.ccpi");
  std::string first;
  for (int run = 0; run < 40; ++run) {
    auto script = ParseScript(text);
    ASSERT_TRUE(script.ok()) << script.status().ToString();
    for (const char* flag : {"--pipeline-depth=8", "--threads=4", "--stats"}) {
      bool matched = false;
      ASSERT_TRUE(ApplyScriptFlag(flag, &script->options, &matched).ok());
      ASSERT_TRUE(matched) << flag;
    }
    auto report = RunScript(*script);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    size_t at = report->summary_text.find("plans: ");
    ASSERT_NE(at, std::string::npos);
    std::string plans = report->summary_text.substr(
        at, report->summary_text.find('\n', at) - at);
    if (run == 0) {
      first = plans;
    } else {
      ASSERT_EQ(plans, first) << "run " << run;
    }
  }
  // One tier-1 decision and one tier-3 program, as at depth 1; every other
  // lookup (including the conflict re-runs of phase 1) is a hit.
  EXPECT_EQ(first, "plans: 2 compiles, 6 hits, 0 delta bindings");
}

}  // namespace
}  // namespace ccpi
