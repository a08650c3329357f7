// Correlated failure domains, per-site latency models, and hedged remote
// reads. The robustness properties of ISSUE 10: a domain-level outage
// darkens every member site together (and each member is caught up
// independently on recovery); latency draws are deterministic per seed
// with the fixed model consuming no randomness at all; hedged batched
// reads obey the exact billing rules (issued == won + wasted, one extra
// physical trip per issued hedge, tuples counted once); and the
// latency-aware shed refuses a doomed trip *before* paying for it.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "distsim/cost_model.h"
#include "distsim/fault_injector.h"
#include "distsim/site_db.h"
#include "distsim/topology.h"
#include "manager/constraint_manager.h"
#include "manager/script.h"
#include "util/thread_pool.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

/// Every metric of a MetricsRegistry::ToJson dump, name -> value text.
/// The dump puts each metric on its own line, indented four spaces.
std::map<std::string, std::string> DumpedMetrics(const std::string& json) {
  std::map<std::string, std::string> metrics;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    \"", 0) != 0) continue;
    size_t close = line.find("\": ", 5);
    std::string value = line.substr(close + 3);
    if (!value.empty() && value.back() == ',') value.pop_back();
    metrics[line.substr(5, close - 5)] = value;
  }
  return metrics;
}

TEST(FailureDomainTest, ExpandDomainOutagesCopiesWindowsToEveryMember) {
  TopologyConfig config;
  config.sites = 4;
  FailureDomain rack;
  rack.name = "rack";
  rack.members = {1, 3};
  rack.outages.push_back(OutageWindow{2, 7});
  rack.outages.push_back(OutageWindow{9, 12});
  config.domains.push_back(rack);
  std::vector<std::vector<OutageWindow>> expanded =
      ExpandDomainOutages(config);
  ASSERT_EQ(expanded.size(), 4u);
  EXPECT_TRUE(expanded[0].empty());
  EXPECT_TRUE(expanded[2].empty());
  for (size_t member : {size_t{1}, size_t{3}}) {
    ASSERT_EQ(expanded[member].size(), 2u) << "site " << member;
    EXPECT_EQ(expanded[member][0].begin, 2u);
    EXPECT_EQ(expanded[member][0].end, 7u);
    EXPECT_EQ(expanded[member][1].begin, 9u);
    EXPECT_EQ(expanded[member][1].end, 12u);
  }
}

constexpr const char kDomainScript[] =
    "local l lx\n"
    "sites 3\n"
    "site 0 r1\n"
    "site 1 r2\n"
    "site 2 r3\n"
    "constraint a\n"
    "panic :- l(X,Y) & r1(Z) & X <= Z & Z <= Y\n"
    "constraint b\n"
    "panic :- l(X,Y) & r2(Z) & X <= Z & Z <= Y\n"
    "constraint c\n"
    "panic :- lx(X) & r3(X)\n"
    "fact r1(1000)\n"
    "fact r2(1000)\n"
    "fact r3(5)\n"
    "insert l(1, 5)\n"
    "insert l(6, 9)\n"
    "insert l(11, 14)\n"
    "insert lx(1)\n";

ResilienceConfig DomainResilience() {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_ticks = 2;
  return resilience;
}

// The tentpole recovery property: a whole domain dark defers every check
// that touches a member site while the healthy site's checks complete,
// and once the window passes, catch-up recovery fires once per member.
TEST(FailureDomainTest, WholeDomainDarkDefersEveryMemberSiteCheck) {
  auto script = ParseScript(std::string(kDomainScript) +
                            "domain rackA 0 1\n"
                            "domain_outage rackA 0 2\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  options.manager.resilience = DomainResilience();
  // No --fault-* flags: the domain window alone must arm injection.
  ASSERT_FALSE(options.enable_faults);
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every l update fans out to both member sites and both defer; the
  // lx update only touches the healthy site 2 and applies cleanly.
  EXPECT_EQ(report->updates_deferred, 3u);
  EXPECT_NE(report->log_text.find("DEFER  +l(1, 5) deferred:a deferred:b"),
            std::string::npos)
      << report->log_text;
  EXPECT_NE(report->log_text.find("apply  +lx(1)"), std::string::npos);
  // The shutdown drain lands past the window: everything recovers, and
  // the dark->closed breaker edge fires exactly once per member site.
  EXPECT_EQ(report->deferred_pending, 0u);
  EXPECT_EQ(report->deferred_recovered, 6u);
  EXPECT_EQ(report->deferred_violations, 0u);
  EXPECT_EQ(report->sites_recovered, 2u);
}

// A domain window is sugar for the same window on every member site: the
// expanded run must be byte-identical to one configured member-by-member
// with --site-fault-outage.
TEST(FailureDomainTest, DomainOutageEqualsManualPerSiteWindows) {
  auto domain_script = ParseScript(std::string(kDomainScript) +
                                   "domain rackA 0 1\n"
                                   "domain_outage rackA 0 2\n");
  ASSERT_TRUE(domain_script.ok());
  auto plain_script = ParseScript(kDomainScript);
  ASSERT_TRUE(plain_script.ok());

  ScriptOptions& domain_options = domain_script->options;
  domain_options.manager.resilience = DomainResilience();
  domain_options.print_stats = true;
  ScriptOptions& manual_options = plain_script->options;
  manual_options.manager.resilience = DomainResilience();
  manual_options.print_stats = true;
  manual_options.enable_faults = true;
  manual_options.site_faults[0].outages.push_back(OutageWindow{0, 2});
  manual_options.site_faults[1].outages.push_back(OutageWindow{0, 2});

  auto domain_report = RunScript(*domain_script);
  auto manual_report = RunScript(*plain_script);
  ASSERT_TRUE(domain_report.ok()) << domain_report.status().ToString();
  ASSERT_TRUE(manual_report.ok()) << manual_report.status().ToString();
  EXPECT_EQ(domain_report->text, manual_report->text);
  EXPECT_EQ(domain_report->sites_recovered, manual_report->sites_recovered);
}

TEST(FailureDomainTest, LatencyDrawsAreDeterministicAndBounded) {
  auto run = []() {
    TopologyConfig config;
    config.sites = 2;
    config.placement["a"] = 0;
    SiteDatabase site({"l"}, config);
    CostModel costs;
    costs.latency_model = LatencyModel::kUniform;
    costs.latency_lo_us = 1;
    costs.latency_hi_us = 3;
    costs.latency_seed = 7;
    site.set_site_cost_model(0, costs);
    EXPECT_TRUE(site.db().Insert("a", {V(1)}).ok());
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(site.ReadRemote("a", 1).ok());
    }
    return site.site_latency_ewma_us(0);
  };
  uint64_t ewma = run();
  // Every draw lands in [lo, hi], so the EWMA must too.
  EXPECT_GE(ewma, 1u);
  EXPECT_LE(ewma, 3u);
  // Same seed, fresh instance: the draw sequence (hence the EWMA) is
  // reproduced exactly.
  EXPECT_EQ(ewma, run());
  // Site 1 never took a trip; its EWMA stays at the no-observation 0.
  TopologyConfig config;
  config.sites = 2;
  SiteDatabase site({"l"}, config);
  EXPECT_EQ(site.site_latency_ewma_us(1), 0u);
}

// The default-config guard at the distsim layer: the fixed model consumes
// no latency randomness, so trips leave the EWMA untouched at 0.
TEST(FailureDomainTest, FixedModelConsumesNoLatencyDraws) {
  SiteDatabase site({"l"});
  EXPECT_TRUE(site.db().Insert("a", {V(1)}).ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(site.ReadRemote("a", 1).ok());
  }
  EXPECT_GT(site.stats().remote_trips, 0u);
  EXPECT_EQ(site.site_latency_ewma_us(0), 0u);
}

TEST(FailureDomainTest, HedgeIdentityAndTripBillingAreExact) {
  auto run = []() {
    TopologyConfig config;
    config.sites = 1;
    SiteDatabase site({"l"}, config);
    site.EnableRemoteCache(true);
    CostModel costs;
    costs.latency_model = LatencyModel::kTwoPoint;
    costs.latency_lo_us = 1;
    costs.latency_hi_us = 40;
    costs.latency_slow_share = 0.4;
    costs.latency_seed = 9;
    site.set_site_cost_model(0, costs);
    site.set_hedge(1, nullptr, nullptr, nullptr);
    ThreadPool pool(2);
    size_t logical_trips = 0;
    for (int i = 0; i < 24; ++i) {
      std::string pred = "r" + std::to_string(i);
      EXPECT_TRUE(site.db().Insert(pred, {V(i)}).ok());
      site.PrefetchRemote({pred}, &pool);
      ++logical_trips;
    }
    HedgeStats hedges = site.hedge_stats();
    // The billing rules, exactly: every issued hedge either won or
    // wasted, and cost one extra physical trip; tuples were fetched once
    // per logical read regardless.
    EXPECT_EQ(hedges.issued, hedges.won + hedges.wasted);
    EXPECT_EQ(site.stats().remote_trips, logical_trips + hedges.issued);
    EXPECT_EQ(site.stats().remote_tuples, logical_trips);
    return hedges;
  };
  HedgeStats first = run();
  // A 40% slow share past 1x EWMA must actually hedge on this schedule.
  EXPECT_GT(first.issued, 0u);
  HedgeStats again = run();
  EXPECT_EQ(first.issued, again.issued);
  EXPECT_EQ(first.won, again.won);
  EXPECT_EQ(first.wasted, again.wasted);
}

// Latency-aware degradation extends refuse-before-pay: once the site's
// EWMA says the trip cannot finish inside the remaining episode budget,
// the check is shed to kDeferred without paying the trip. The deadline is
// long against the episode's own analysis (slow under sanitizers) and
// short against the trip.
TEST(FailureDomainTest, LatencyShedRefusesBeforePayingTheTrip) {
  CostModel costs;
  costs.latency_model = LatencyModel::kUniform;
  costs.latency_lo_us = 200000;  // every trip simulates 200ms
  costs.latency_hi_us = 200000;
  BudgetConfig budget;
  budget.per_episode.deadline_ms = 50;
  ConstraintManager mgr({"l"}, costs, {.budget = budget});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(1000)}).ok());

  // First episode: no EWMA yet, so the episode prefetch pays the
  // (budget-busting) trip and the manager learns the latency; with the
  // deadline already blown by that sleep, the check itself is then shed
  // with the latency label.
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(1), V(3)})).ok());
  ASSERT_GE(mgr.site().site_latency_ewma_us(0), 150000u);
  size_t trips_after_first = mgr.stats().access.remote_trips;
  ASSERT_GE(trips_after_first, 1u);

  // Second episode: 200ms projected against a 50ms deadline — shed through
  // the kResourceExhausted path without paying another trip.
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(10), V(13)}));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  bool shed_seen = false;
  for (const CheckReport& r : *reports) {
    if (r.constraint != "fi") continue;
    EXPECT_EQ(r.outcome, Outcome::kDeferred);
    EXPECT_EQ(r.reason, StatusCode::kResourceExhausted);
    shed_seen = true;
  }
  EXPECT_TRUE(shed_seen);
  ManagerStats stats = mgr.stats();
  EXPECT_GE(stats.latency_shed, 1u);
  // The labeled counter is a subset of the budget shed total, and the
  // refused second episode paid no further trip.
  EXPECT_GE(stats.shed_checks, stats.latency_shed);
  EXPECT_EQ(stats.access.remote_trips, trips_after_first);
}

// Hedging is a latency optimization, not a semantic change: the per-update
// log is byte-identical hedged or not; only the trip accounting and the
// hedge counters move.
TEST(FailureDomainTest, HedgingIsSemanticallyInvisibleOnTheLog) {
  // One and two sites: every site count hedges its prefetch trips, and
  // the stock churn forces a fresh trip per episode so the EWMA has draws
  // to overshoot.
  const char* stream =
      "constraint stock\n"
      "panic :- reserved(I,N) & not stock(I,N)\n"
      "fact stock(a, 1)\n"
      "insert reserved(a, 1)\n"
      "insert stock(b, 1)\n"
      "insert reserved(b, 1)\n"
      "insert stock(c, 1)\n"
      "insert reserved(c, 1)\n"
      "insert stock(d, 1)\n"
      "insert reserved(d, 1)\n"
      "insert stock(e, 1)\n"
      "insert reserved(e, 1)\n"
      "insert stock(f, 1)\n"
      "insert reserved(f, 1)\n"
      "insert stock(g, 1)\n"
      "insert reserved(g, 1)\n";
  for (const char* topology : {"", "sites 2\nsite 0 stock\n"}) {
    SCOPED_TRACE(topology);
    auto script =
        ParseScript(std::string("local reserved\n") + topology + stream);
    ASSERT_TRUE(script.ok()) << script.status().ToString();
    ScriptOptions& options = script->options;
    SiteLatencyOverride skewed;
    skewed.model = LatencyModel::kTwoPoint;
    skewed.lo_us = 1;
    skewed.hi_us = 50;
    skewed.slow_share = 0.4;
    options.manager.topology.site_latency[0] = skewed;

    auto unhedged = RunScript(*script);
    options.manager.remote_cache.hedge_after = 1;
    auto hedged = RunScript(*script);
    ASSERT_TRUE(unhedged.ok()) << unhedged.status().ToString();
    ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();

    EXPECT_EQ(unhedged->log_text, hedged->log_text);
    EXPECT_EQ(unhedged->violations, hedged->violations);
    EXPECT_EQ(unhedged->updates_applied, hedged->updates_applied);
    EXPECT_EQ(unhedged->hedges_issued, 0u);
    EXPECT_GT(hedged->hedges_issued, 0u);
    EXPECT_EQ(hedged->hedges_issued,
              hedged->hedges_won + hedged->hedges_wasted);
  }
}

// The metric catalog does not depend on the configuration: a plain run
// and a run with a latency model and hedging armed dump the same names,
// and in the plain run the hedge and latency-shed counters read 0.
TEST(FailureDomainTest, LatencyMetricsRegisterAtEveryConfiguration) {
  const char* text =
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "fact r(1000)\n"
      "insert l(1, 3)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  ScriptOptions& options = script->options;
  options.collect_metrics = true;
  auto plain = RunScript(*script);
  ASSERT_TRUE(plain.ok());
  std::map<std::string, std::string> plain_metrics =
      DumpedMetrics(plain->metrics_json);
  EXPECT_EQ(plain_metrics["manager.hedge.issued"], "0");
  EXPECT_EQ(plain_metrics["manager.latency_shed"], "0");

  SiteLatencyOverride uniform;
  uniform.model = LatencyModel::kUniform;
  uniform.lo_us = 1;
  uniform.hi_us = 2;
  options.manager.topology.site_latency[0] = uniform;
  options.manager.remote_cache.hedge_after = 2;
  auto armed = RunScript(*script);
  ASSERT_TRUE(armed.ok());
  std::map<std::string, std::string> armed_metrics =
      DumpedMetrics(armed->metrics_json);
  auto names = [](const std::map<std::string, std::string>& metrics) {
    std::vector<std::string> out;
    for (const auto& [name, value] : metrics) out.push_back(name);
    return out;
  };
  EXPECT_EQ(names(plain_metrics), names(armed_metrics));
  EXPECT_TRUE(armed_metrics.count("distsim.site0.latency_us"));
}

}  // namespace
}  // namespace ccpi
