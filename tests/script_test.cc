#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "manager/script.h"

namespace ccpi {
namespace {

/// Applies one flag expecting success, returning whether it was matched.
bool ApplyOk(std::string_view arg, ScriptOptions* options) {
  bool matched = false;
  Status st = ApplyScriptFlag(arg, options, &matched);
  EXPECT_TRUE(st.ok()) << arg << ": " << st.ToString();
  return matched;
}

/// The value of counter `name` in a metrics dump, or -1 when the dump
/// has no such counter.
int64_t CounterIn(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

/// Applies one flag expecting a usage error that names the flag.
void ExpectBadFlag(std::string_view arg, std::string_view flag_name) {
  ScriptOptions options;
  bool matched = false;
  Status st = ApplyScriptFlag(arg, &options, &matched);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << arg;
  EXPECT_NE(st.message().find(flag_name), std::string::npos)
      << "error for " << arg << " does not name the flag: " << st.message();
}

TEST(ScriptParseTest, FullWorkload) {
  auto script = ParseScript(
      "# a comment\n"
      "local reserved emp\n"
      "constraint no-overlap\n"
      "panic :- reserved(P,Lo,Hi) & order(P,Q) & Lo <= Q & Q <= Hi\n"
      "constraint sane\n"
      "panic :- reserved(P,Lo,Hi) & Hi < Lo\n"
      "fact order(widget, 700)\n"
      "insert reserved(widget, 0, 400)\n"
      "delete reserved(widget, 0, 400)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->local_preds,
            (std::set<std::string>{"reserved", "emp"}));
  ASSERT_EQ(script->constraints.size(), 2u);
  EXPECT_EQ(script->constraints[0].first, "no-overlap");
  EXPECT_EQ(script->constraints[1].first, "sane");
  EXPECT_TRUE(script->initial.Contains("order", {V("widget"), V(700)}));
  ASSERT_EQ(script->updates.size(), 2u);
  EXPECT_EQ(script->updates[0].kind, Update::Kind::kInsert);
  EXPECT_EQ(script->updates[1].kind, Update::Kind::kDelete);
}

TEST(ScriptParseTest, MultiLineRule) {
  auto script = ParseScript(
      "constraint c\n"
      "panic :- reserved(P,Lo,Hi) &\n"
      "         order(P,Q) &\n"
      "         Lo <= Q & Q <= Hi\n"
      "insert reserved(a, 1, 2)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->constraints.size(), 1u);
  EXPECT_EQ(script->constraints[0].second.rules[0].body.size(), 4u);
  EXPECT_EQ(script->updates.size(), 1u);
}

TEST(ScriptParseTest, MultipleRulesPerConstraint) {
  auto script = ParseScript(
      "constraint range\n"
      "panic :- emp(E,D,S) & salRange(D,Lo,Hi) & S < Lo\n"
      "panic :- emp(E,D,S) & salRange(D,Lo,Hi) & S > Hi\n");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->constraints[0].second.rules.size(), 2u);
}

TEST(ScriptParseTest, Errors) {
  EXPECT_FALSE(ParseScript("panic :- p(X)\n").ok());  // rule outside block
  EXPECT_FALSE(ParseScript("constraint\n").ok());     // missing name
  EXPECT_FALSE(ParseScript("fact p(X)\n").ok());      // non-ground fact
  EXPECT_FALSE(
      ParseScript("insert p(X) :- q(X)\n").ok());     // rule, not a fact
  EXPECT_FALSE(ParseScript("constraint empty\nfact p(1)\n").ok());
}

TEST(ScriptRunTest, EndToEnd) {
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "fact r(7)\n"
      "insert l(10, 20)\n"   // ok (7 outside)
      "insert l(12, 18)\n"   // ok, resolved locally (covered)
      "insert l(5, 8)\n");   // rejected: 7 in range
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 2u);
  EXPECT_EQ(report->updates_rejected, 1u);
  EXPECT_NE(report->text.find("REJECT +l(5, 8)"), std::string::npos);
  EXPECT_NE(report->text.find("tier local-test"), std::string::npos);
}

/// A miniature of examples/workloads/overload.ccpi: every insert into the
/// local request relation forces a recursive tier-3 fixpoint over a remote
/// edge chain, so a one-round budget must shed it.
const char* kOverloadScript =
    "local request\n"
    "constraint no-path-to-blocked\n"
    "path(X,Y) :- edge(X,Y)\n"
    "path(X,Y) :- edge(X,Z) & path(Z,Y)\n"
    "panic :- request(U,N) & path(N,M) & blocked(M)\n"
    "fact edge(a, b)\n"
    "fact edge(b, c)\n"
    "fact edge(c, d)\n"
    "fact edge(d, e)\n"
    "fact blocked(z)\n"
    "insert request(u1, a)\n"
    "insert request(u2, b)\n";

TEST(ScriptRunTest, BudgetShedsAreReportedDistinctlyFromDeferrals) {
  auto script = ParseScript(kOverloadScript);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  options.manager.budget.per_check.max_fixpoint_rounds = 1;
  options.print_stats = true;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->budget_armed);
  EXPECT_GT(report->shed_checks, 0u);
  EXPECT_GT(report->budget_exhausted, 0u);
  EXPECT_EQ(report->deferred_dropped, 0u);
  // A shed check reads "shed:", never "deferred:" (no site was down), and
  // stays pending: the shutdown drain re-attempts it under the same budget.
  EXPECT_NE(report->text.find(" shed:no-path-to-blocked"), std::string::npos)
      << report->text;
  EXPECT_EQ(report->text.find(" deferred:"), std::string::npos);
  EXPECT_NE(report->text.find("PENDING"), std::string::npos);
  EXPECT_NE(report->summary_text.find("budget: "), std::string::npos);
}

TEST(ScriptRunTest, UnbudgetedRunNeverMentionsBudgets) {
  auto script = ParseScript(kOverloadScript);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  options.print_stats = true;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->budget_armed);
  EXPECT_EQ(report->shed_checks, 0u);
  EXPECT_EQ(report->updates_applied, 2u);
  EXPECT_EQ(report->text.find(" shed:"), std::string::npos);
  EXPECT_EQ(report->summary_text.find("budget: "), std::string::npos);
}

TEST(ScriptRunTest, QueueCapAloneArmsBudgetReporting) {
  // --deferred-queue-cap with no other budget still arms the report (the
  // cap can drop or refuse work, so the run must disclose its counters).
  auto script = ParseScript(kOverloadScript);
  ASSERT_TRUE(script.ok());
  ScriptOptions& options = script->options;
  options.manager.budget.deferred_queue_cap = 4;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->budget_armed);
  EXPECT_EQ(report->shed_checks, 0u);
  EXPECT_EQ(report->updates_applied, 2u);
}

TEST(ScriptRunTest, SubsumedConstraintReported) {
  auto script = ParseScript(
      "local emp\n"
      "constraint cap-200\n"
      "panic :- emp(E,S) & S > 200\n"
      "constraint cap-500\n"
      "panic :- emp(E,S) & S > 500\n"
      "insert emp(ann, 100)\n");
  ASSERT_TRUE(script.ok());
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->text.find("cap-500 (redundant"), std::string::npos);
}

// ---- plan_cache directive and --plan-cache flag --------------------------

TEST(ScriptParseTest, PlanCacheDirective) {
  auto off = ParseScript("plan_cache off\nlocal l\n");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->options.manager.plan_cache);
  auto on = ParseScript("plan_cache on\nlocal l\n");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on->options.manager.plan_cache);
  // A later directive overrides an earlier one.
  auto again = ParseScript("plan_cache off\nplan_cache on\n");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->options.manager.plan_cache);
  // Without the directive the script keeps the default (on).
  auto unset = ParseScript("local l\n");
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset->options.manager.plan_cache,
            ScriptOptions{}.manager.plan_cache);
}

TEST(ScriptParseTest, PlanCacheDirectiveRejectsBadValue) {
  auto bad = ParseScript("local l\nplan_cache maybe\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending line, like the other directives.
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().message();
  EXPECT_NE(bad.status().message().find("plan_cache"), std::string::npos);
}

TEST(ScriptRunTest, PlanCacheFlagOverridesScriptDirective) {
  // The script turns the cache off; the summary's "plans:" diagnostics
  // line exists only while the cache is on, so it observes the effective
  // switch. An explicit --plan-cache=on flag must win over the directive.
  const char* text =
      "plan_cache off\n"
      "local l\n"
      "constraint join\n"
      "panic :- l(X,Y) & r(Y)\n"
      "insert l(1, 2)\n"
      "insert l(3, 4)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  script->options.print_stats = true;
  auto off = RunScript(*script);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->summary_text.find("plans:"), std::string::npos);
  ASSERT_TRUE(ApplyOk("--plan-cache=on", &script->options));
  auto on = RunScript(*script);
  ASSERT_TRUE(on.ok());
  EXPECT_NE(on->summary_text.find("plans:"), std::string::npos);
  // Flags win, directives change behavior, but the report proper must not
  // move: the per-update log is byte-identical either way.
  EXPECT_EQ(off->log_text, on->log_text);
}

// ---- pipeline directive and --pipeline-depth flag -------------------------

TEST(ScriptParseTest, PipelineDirective) {
  auto four = ParseScript("pipeline 4\nlocal l\n");
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(four->options.manager.pipeline.depth, 4u);
  // Without the directive the script keeps the default (1 = serial).
  auto unset = ParseScript("local l\n");
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset->options.manager.pipeline.depth,
            ScriptOptions{}.manager.pipeline.depth);
}

TEST(ScriptParseTest, PipelineDirectiveRejectsBadValue) {
  for (const char* text : {"local l\npipeline 0\n", "local l\npipeline abc\n",
                           "local l\npipeline\n", "local l\npipeline -3\n"}) {
    auto bad = ParseScript(text);
    EXPECT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
        << bad.status().message();
    EXPECT_NE(bad.status().message().find("pipeline"), std::string::npos)
        << bad.status().message();
  }
}

TEST(ScriptRunTest, PipelinedRunMatchesSerialByteForByte) {
  // The whole point of the serialized commit map: the report — log and
  // summary both — is byte-identical at any pipeline depth.
  const char* text =
      "local l\n"
      "constraint ord\n"
      "panic :- l(X,Y) & X > Y\n"
      "constraint join\n"
      "panic :- l(X,Y) & r(Y)\n"
      "fact r(7)\n"
      "insert l(1, 2)\n"
      "insert l(5, 3)\n"
      "insert l(4, 7)\n"
      "insert l(2, 9)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  script->options.print_stats = true;
  auto serial = RunScript(*script);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(ApplyOk("--pipeline-depth=8", &script->options));
  auto piped = RunScript(*script);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(serial->text, piped->text);
}

TEST(ScriptRunTest, PipelineFlagOverridesScriptDirective) {
  // Only a pipelined run admits episodes through the pipeline, so the
  // value of manager.pipeline.admitted observes which knob won.
  const char* text =
      "pipeline 4\n"
      "local l\n"
      "constraint ord\n"
      "panic :- l(X,Y) & X > Y\n"
      "insert l(1, 2)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  script->options.collect_metrics = true;
  auto from_directive = RunScript(*script);
  ASSERT_TRUE(from_directive.ok());
  EXPECT_GT(CounterIn(from_directive->metrics_json,
                      "manager.pipeline.admitted"),
            0);
  // An explicit --pipeline-depth=1 must win over the directive.
  ASSERT_TRUE(ApplyOk("--pipeline-depth=1", &script->options));
  auto from_flag = RunScript(*script);
  ASSERT_TRUE(from_flag.ok());
  EXPECT_EQ(CounterIn(from_flag->metrics_json, "manager.pipeline.admitted"),
            0);
  EXPECT_EQ(from_directive->log_text, from_flag->log_text);
}

// ---- ApplyScriptFlag: the strict ccpi_check flag parser -----------------

TEST(ScriptFlagTest, ValidFlagsApply) {
  ScriptOptions options;
  EXPECT_TRUE(ApplyOk("--threads=8", &options));
  EXPECT_EQ(options.manager.threads, 8u);
  EXPECT_TRUE(ApplyOk("--remote-cache=off", &options));
  EXPECT_FALSE(options.manager.remote_cache.enabled);
  EXPECT_TRUE(ApplyOk("--remote-cache=on", &options));
  EXPECT_TRUE(options.manager.remote_cache.enabled);
  EXPECT_TRUE(options.manager.plan_cache);
  EXPECT_TRUE(ApplyOk("--plan-cache=off", &options));
  EXPECT_FALSE(options.manager.plan_cache);
  EXPECT_TRUE(ApplyOk("--plan-cache=on", &options));
  EXPECT_TRUE(options.manager.plan_cache);
  EXPECT_EQ(options.manager.pipeline.depth, 1u);
  EXPECT_TRUE(ApplyOk("--pipeline-depth=8", &options));
  EXPECT_EQ(options.manager.pipeline.depth, 8u);
  EXPECT_TRUE(ApplyOk("--fault-rate=0.25", &options));
  EXPECT_DOUBLE_EQ(options.faults.transient_rate, 0.25);
  EXPECT_TRUE(options.enable_faults);
  EXPECT_TRUE(ApplyOk("--fault-timeout-rate=0.5", &options));
  EXPECT_DOUBLE_EQ(options.faults.timeout_rate, 0.5);
  EXPECT_TRUE(ApplyOk("--fault-seed=42", &options));
  EXPECT_EQ(options.faults.seed, 42u);
  EXPECT_TRUE(ApplyOk("--fault-outage=10:25", &options));
  ASSERT_EQ(options.faults.outages.size(), 1u);
  EXPECT_EQ(options.faults.outages[0].begin, 10u);
  EXPECT_EQ(options.faults.outages[0].end, 25u);
  EXPECT_TRUE(ApplyOk("--fault-reject", &options));
  EXPECT_EQ(options.manager.resilience.on_unreachable, DeferredPolicy::kReject);
  EXPECT_TRUE(ApplyOk("--stats", &options));
  EXPECT_TRUE(options.print_stats);
}

TEST(ScriptFlagTest, MalformedNumericValuesAreHardErrors) {
  // Satellite of ISSUE 4: these used to fall back silently to defaults
  // (atoi-style parsing); now each is an InvalidArgument naming the flag.
  ExpectBadFlag("--threads=abc", "--threads");
  ExpectBadFlag("--threads=-2", "--threads");
  ExpectBadFlag("--threads=", "--threads");
  ExpectBadFlag("--threads=4x", "--threads");
  ExpectBadFlag("--fault-rate=1.5", "--fault-rate");
  ExpectBadFlag("--fault-rate=-0.1", "--fault-rate");
  ExpectBadFlag("--fault-rate=nope", "--fault-rate");
  ExpectBadFlag("--fault-timeout-rate=2", "--fault-timeout-rate");
  ExpectBadFlag("--fault-seed=12p", "--fault-seed");
  ExpectBadFlag("--fault-outage=10", "--fault-outage");
  ExpectBadFlag("--fault-outage=a:b", "--fault-outage");
  ExpectBadFlag("--fault-outage=25:10", "--fault-outage");
  ExpectBadFlag("--remote-cache=bogus", "--remote-cache");
  ExpectBadFlag("--plan-cache=bogus", "--plan-cache");
  ExpectBadFlag("--plan-cache=", "--plan-cache");
  ExpectBadFlag("--plan-cache=ON", "--plan-cache");
  ExpectBadFlag("--pipeline-depth=bogus", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=0", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=-2", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=4x", "--pipeline-depth");
}

TEST(ScriptFlagTest, DeadlineHasAConstantMaximum) {
  // A deadline near 2^63 ms used to overflow the clock arithmetic.
  ScriptOptions options;
  EXPECT_TRUE(ApplyOk("--deadline-ms=86400000", &options));
  EXPECT_EQ(options.manager.budget.per_episode.deadline_ms, 86400000u);
  ExpectBadFlag("--deadline-ms=86400001", "--deadline-ms");
  ExpectBadFlag("--deadline-ms=10000000000000", "--deadline-ms");
}

TEST(ScriptFlagTest, SitesAndThreadsHaveAConstantMaximum) {
  // Unbounded values used to size per-site and per-lane state directly and
  // abort the process with std::bad_alloc.
  ScriptOptions options;
  EXPECT_TRUE(ApplyOk("--sites=1024", &options));
  EXPECT_EQ(options.manager.topology.sites, 1024u);
  EXPECT_TRUE(ApplyOk("--threads=256", &options));
  EXPECT_EQ(options.manager.threads, 256u);
  ExpectBadFlag("--sites=1025", "--sites");
  ExpectBadFlag("--sites=100000000000", "--sites");
  ExpectBadFlag("--threads=257", "--threads");
  ExpectBadFlag("--threads=100000000000", "--threads");
  // The message states the cap.
  bool matched = false;
  Status st = ApplyScriptFlag("--sites=100000000000", &options, &matched);
  EXPECT_NE(st.message().find("at most 1024"), std::string::npos)
      << st.message();
  EXPECT_EQ(options.manager.topology.sites, 1024u);
}

TEST(ScriptFlagTest, MalformedValueLeavesOptionsUntouched) {
  ScriptOptions options;
  bool matched = false;
  Status st = ApplyScriptFlag("--threads=abc", &options, &matched);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(options.manager.threads, ScriptOptions{}.manager.threads);
}

TEST(ScriptFlagTest, UnrecognizedFlagsAreNotMatched) {
  ScriptOptions options;
  EXPECT_FALSE(ApplyOk("--no-such-flag=1", &options));
  EXPECT_FALSE(ApplyOk("workload.ccpi", &options));
  // Tool-level flags are deliberately not ApplyScriptFlag's business.
  EXPECT_FALSE(ApplyOk("--export-souffle", &options));
  EXPECT_FALSE(ApplyOk("--trace-out=x.json", &options));
}

TEST(ScriptFlagTest, BudgetFlagsApply) {
  ScriptOptions options;
  EXPECT_FALSE(options.manager.budget.armed());
  EXPECT_TRUE(ApplyOk("--deadline-ms=750", &options));
  EXPECT_EQ(options.manager.budget.per_episode.deadline_ms, 750u);
  EXPECT_TRUE(ApplyOk("--max-fixpoint-rounds=6", &options));
  EXPECT_EQ(options.manager.budget.per_check.max_fixpoint_rounds, 6u);
  EXPECT_TRUE(ApplyOk("--max-derived-tuples=10000", &options));
  EXPECT_EQ(options.manager.budget.per_check.max_derived_tuples, 10000u);
  EXPECT_TRUE(ApplyOk("--deferred-queue-cap=32", &options));
  EXPECT_EQ(options.manager.budget.deferred_queue_cap, 32u);
  EXPECT_TRUE(ApplyOk("--overflow-policy=shed-oldest", &options));
  EXPECT_EQ(options.manager.budget.overflow, OverflowPolicy::kShedOldest);
  EXPECT_TRUE(ApplyOk("--overflow-policy=block-recheck", &options));
  EXPECT_EQ(options.manager.budget.overflow, OverflowPolicy::kBlockRecheck);
  EXPECT_TRUE(ApplyOk("--overflow-policy=reject-update", &options));
  EXPECT_EQ(options.manager.budget.overflow, OverflowPolicy::kRejectUpdate);
  EXPECT_TRUE(options.manager.budget.armed());
}

TEST(ScriptFlagTest, MalformedBudgetValuesAreHardErrors) {
  ExpectBadFlag("--deadline-ms=abc", "--deadline-ms");
  ExpectBadFlag("--deadline-ms=-5", "--deadline-ms");
  ExpectBadFlag("--deadline-ms=", "--deadline-ms");
  ExpectBadFlag("--max-fixpoint-rounds=2.5", "--max-fixpoint-rounds");
  ExpectBadFlag("--max-derived-tuples=lots", "--max-derived-tuples");
  ExpectBadFlag("--deferred-queue-cap=-1", "--deferred-queue-cap");
  ExpectBadFlag("--overflow-policy=panic", "--overflow-policy");
  ExpectBadFlag("--overflow-policy=", "--overflow-policy");
  // A bad value must not half-apply.
  ScriptOptions options;
  bool matched = false;
  Status st = ApplyScriptFlag("--deadline-ms=abc", &options, &matched);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(options.manager.budget.armed());
}

TEST(ScriptFlagTest, ValidateRejectsRateSumAboveOne) {
  ScriptOptions options;
  ASSERT_TRUE(ApplyOk("--fault-rate=0.7", &options));
  ASSERT_TRUE(ApplyOk("--fault-timeout-rate=0.4", &options));
  Status st = ValidateScriptOptions(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  options.faults.timeout_rate = 0.3;
  EXPECT_TRUE(ValidateScriptOptions(options).ok());
}

// ---- ISSUE 10: latency models, failure domains, hedged reads ------------

TEST(ScriptParseTest, LatencyAndDomainDirectives) {
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "sites 4\n"
      "site_latency 0 fixed:250\n"
      "site_latency 1 uniform:10:50\n"
      "site_latency 2 twopoint:100:5000:0.1\n"
      "domain rack0 0 1\n"
      "domain rack1 2 3\n"
      "domain_outage rack0 4 10\n"
      "hedge_after 3\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const TopologyConfig& t = script->options.manager.topology;
  ASSERT_EQ(t.site_latency.size(), 3u);
  EXPECT_EQ(t.site_latency.at(0).model, LatencyModel::kFixed);
  EXPECT_EQ(t.site_latency.at(0).fixed_us, 250u);
  EXPECT_EQ(t.site_latency.at(1).model, LatencyModel::kUniform);
  EXPECT_EQ(t.site_latency.at(1).lo_us, 10u);
  EXPECT_EQ(t.site_latency.at(1).hi_us, 50u);
  EXPECT_EQ(t.site_latency.at(2).model, LatencyModel::kTwoPoint);
  EXPECT_DOUBLE_EQ(t.site_latency.at(2).slow_share, 0.1);
  ASSERT_EQ(t.domains.size(), 2u);
  EXPECT_EQ(t.domains[0].name, "rack0");
  EXPECT_EQ(t.domains[0].members, (std::vector<size_t>{0, 1}));
  // "domain_outage rack0 4 10" darkens the half-open window [4, 10) on
  // each member's trip counter — the same convention as --fault-outage.
  ASSERT_EQ(t.domains[0].outages.size(), 1u);
  EXPECT_EQ(t.domains[0].outages[0].begin, 4u);
  EXPECT_EQ(t.domains[0].outages[0].end, 10u);
  EXPECT_TRUE(t.domains[1].outages.empty());
  EXPECT_EQ(script->options.manager.remote_cache.hedge_after, 3u);
}

/// Expects ParseScript to fail with a message containing `needle`.
void ExpectParseError(std::string_view text, std::string_view needle) {
  auto script = ParseScript(text);
  ASSERT_FALSE(script.ok()) << "parsed: " << text;
  EXPECT_NE(script.status().message().find(needle), std::string::npos)
      << "error for \"" << text
      << "\" missing \"" << needle << "\": " << script.status().message();
}

TEST(ScriptParseTest, LatencyAndDomainDirectivesRejectBadValues) {
  ExpectParseError("site_latency 0 gaussian:5\n", "site_latency");
  ExpectParseError("site_latency 0 fixed:0\n", "site_latency");
  ExpectParseError("site_latency 0 uniform:50:10\n", "site_latency");
  ExpectParseError("site_latency 0 twopoint:10:50:1.5\n", "site_latency");
  ExpectParseError("site_latency x fixed:10\n", "site_latency");
  ExpectParseError("domain rack0\n", "domain");
  ExpectParseError("domain rack0 0 x\n", "domain");
  ExpectParseError("sites 2\ndomain rack0 0\ndomain_outage rack0 9 4\n",
                   "domain_outage");
  ExpectParseError("domain_outage ghost 4 10\n", "undefined domain");
  // Cross-directive validation at end of parse: duplicate names,
  // overlapping membership, out-of-range sites.
  ExpectParseError("sites 4\ndomain rack0 0\ndomain rack0 1\n",
                   "declared twice");
  ExpectParseError("sites 4\ndomain rack0 0 1\ndomain rack1 1 2\n",
                   "member of two failure domains");
  ExpectParseError("sites 2\ndomain rack0 0 5\n", "claims site 5");
  ExpectParseError("sites 2\nsite_latency 7 fixed:10\n", "names site 7");
  ExpectParseError("hedge_after x\n", "hedge_after");
}

TEST(ScriptParseTest, SitesDirectiveHasAConstantMaximum) {
  auto capped = ParseScript("sites 1024\n");
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped->options.manager.topology.sites, 1024u);
  ExpectParseError("local l\nsites 1025\n", "line 2: sites");
  ExpectParseError("local l\nsites 100000000000\n", "at most 1024");
}

TEST(ScriptParseTest, DirectivesRejectEmptyAndMisspelledLists) {
  // The word-separated directives convert to the flag grammar; a word
  // carrying the flag's own separators or a missing word is an error, not
  // a different list.
  ExpectParseError("sites 2\nsite 1\n", "line 2: site");
  ExpectParseError("sites 2\nsite 1,q:0 p\n", "line 2: site");
  ExpectParseError("sites 3\ndomain a 0+1\n", "line 2: domain");
  ExpectParseError("sites 3\ndomain a 0,b:1\n", "line 2: domain");
  ExpectParseError("sites 3\nsite_latency 0 fixed 10\n",
                   "line 2: site_latency");
  ExpectParseError("sites 3\ndomain a 0\ndomain_outage a 4:10\n",
                   "line 3: domain_outage");
}

TEST(ScriptFlagTest, LatencyAndDomainFlagsApply) {
  ScriptOptions options;
  EXPECT_TRUE(options.manager.topology.site_latency.empty());
  EXPECT_TRUE(ApplyOk("--site-latency=1:twopoint:100:5000:0.1", &options));
  ASSERT_EQ(options.manager.topology.site_latency.count(1), 1u);
  EXPECT_EQ(options.manager.topology.site_latency.at(1).model,
            LatencyModel::kTwoPoint);
  EXPECT_EQ(options.manager.topology.site_latency.at(1).lo_us, 100u);
  EXPECT_EQ(options.manager.topology.site_latency.at(1).hi_us, 5000u);
  EXPECT_EQ(options.manager.remote_cache.hedge_after, 0u);
  EXPECT_TRUE(ApplyOk("--hedge-after=3", &options));
  EXPECT_EQ(options.manager.remote_cache.hedge_after, 3u);
  EXPECT_TRUE(options.manager.topology.domains.empty());
  EXPECT_TRUE(ApplyOk("--domains=rack0:0+1,rack1:2", &options));
  ASSERT_EQ(options.manager.topology.domains.size(), 2u);
  EXPECT_EQ(options.manager.topology.domains[0].name, "rack0");
  EXPECT_EQ(options.manager.topology.domains[0].members,
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(options.manager.topology.domains[1].members,
            (std::vector<size_t>{2}));
  EXPECT_TRUE(ApplyOk("--domain-outage=rack0:4:10", &options));
  ASSERT_EQ(options.domain_outages.count("rack0"), 1u);
  ASSERT_EQ(options.domain_outages.at("rack0").size(), 1u);
  EXPECT_EQ(options.domain_outages.at("rack0")[0].begin, 4u);
  EXPECT_EQ(options.domain_outages.at("rack0")[0].end, 10u);
}

TEST(ScriptFlagTest, MalformedLatencyAndDomainValuesAreHardErrors) {
  ExpectBadFlag("--site-latency=1", "--site-latency");
  ExpectBadFlag("--site-latency=1:gaussian:5", "--site-latency");
  ExpectBadFlag("--site-latency=1:fixed:0", "--site-latency");
  ExpectBadFlag("--site-latency=1:uniform:50:10", "--site-latency");
  ExpectBadFlag("--site-latency=1:twopoint:10:50:2", "--site-latency");
  ExpectBadFlag("--site-latency=x:fixed:10", "--site-latency");
  ExpectBadFlag("--hedge-after=abc", "--hedge-after");
  ExpectBadFlag("--hedge-after=", "--hedge-after");
  ExpectBadFlag("--hedge-after=-1", "--hedge-after");
  ExpectBadFlag("--domains=", "--domains");
  ExpectBadFlag("--domains=rack0", "--domains");
  ExpectBadFlag("--domains=rack0:", "--domains");
  ExpectBadFlag("--domains=rack0:a+b", "--domains");
  ExpectBadFlag("--domains=:0+1", "--domains");
  // Empty list elements are malformed, not skipped.
  ExpectBadFlag("--domains=a:0,", "--domains");
  ExpectBadFlag("--domains=a:0++1", "--domains");
  ExpectBadFlag("--placement=", "--placement");
  ExpectBadFlag("--placement=p:0,", "--placement");
  ExpectBadFlag("--placement=p:0,,q:1", "--placement");
  ExpectBadFlag("--domain-outage=rack0", "--domain-outage");
  ExpectBadFlag("--domain-outage=rack0:9:4", "--domain-outage");
  ExpectBadFlag("--domain-outage=rack0:a:b", "--domain-outage");
}

TEST(ScriptFlagTest, ValidateRejectsInconsistentDomainAndLatencyFlags) {
  {
    // --site-latency must name a site < --sites.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--sites=2", &options));
    ASSERT_TRUE(ApplyOk("--site-latency=5:fixed:10", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // --domains membership must not overlap.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--domains=rack0:0+1,rack1:1+2", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Duplicate domain names.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--domains=rack0:0,rack0:1", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Domain members must be < --sites when --sites was given.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--sites=2", &options));
    ASSERT_TRUE(ApplyOk("--domains=rack0:0+7", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // --domain-outage must name a --domains domain when --domains was
    // given (otherwise it resolves against the script's domains at run
    // time).
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--domains=rack0:0", &options));
    ASSERT_TRUE(ApplyOk("--domain-outage=ghost:4:10", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // All of the above together, well-formed, validates clean.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--sites=4", &options));
    ASSERT_TRUE(ApplyOk("--site-latency=1:uniform:10:50", &options));
    ASSERT_TRUE(ApplyOk("--domains=rack0:0+1,rack1:2+3", &options));
    ASSERT_TRUE(ApplyOk("--domain-outage=rack1:4:10", &options));
    ASSERT_TRUE(ApplyOk("--hedge-after=3", &options));
    EXPECT_TRUE(ValidateScriptOptions(options).ok());
  }
}

TEST(ScriptRunTest, HedgeFlagOverridesScriptDirective) {
  // The script pins hedge_after 7; the flag says 0 (off). Flags win: the
  // run must report zero hedging and print no hedge stats line.
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "hedge_after 7\n"
      "fact r(7)\n"
      "insert l(10, 20)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->options.manager.remote_cache.hedge_after, 7u);
  Script flagged = *script;
  flagged.options.print_stats = true;
  ASSERT_TRUE(ApplyOk("--hedge-after=0", &flagged.options));
  auto report = RunScript(flagged);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->hedges_issued, 0u);
  EXPECT_EQ(report->summary_text.find("hedge:"), std::string::npos);
  // Without the flag the directive takes effect: the stats block now
  // carries the hedge accounting line (all zeros on this tiny workload —
  // arming alone must not fabricate hedges).
  Script directive_only = *script;
  directive_only.options.print_stats = true;
  auto armed = RunScript(directive_only);
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_NE(armed->summary_text.find("hedge: 0 issued"), std::string::npos);
}

TEST(ScriptRunTest, DomainOutageFlagAttachesToScriptDomains) {
  // --domain-outage without --domains resolves against the script's own
  // `domain` directives; naming a domain the script does not define is a
  // run-time InvalidArgument, not a crash.
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "sites 2\n"
      "site 0 r\n"
      "domain rackA 0 1\n"
      "fact r(7)\n"
      "insert l(10, 20)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  Script ghost = *script;
  ghost.options.domain_outages["ghost"].push_back(OutageWindow{0, 4});
  auto report = RunScript(ghost);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("ghost"), std::string::npos);
  // Named correctly it applies: the whole run happens inside the window,
  // so the remote check defers instead of resolving.
  Script dark = *script;
  dark.options.domain_outages["rackA"].push_back(OutageWindow{0, 100});
  auto deferred = RunScript(dark);
  ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
  EXPECT_EQ(deferred->updates_deferred, 1u);
}

}  // namespace
}  // namespace ccpi
