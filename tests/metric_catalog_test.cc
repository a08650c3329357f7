// The metric catalog in docs/observability.md against what a manager
// registers, in both directions. Every name is registered when the manager
// is built, whatever it is configured with, so a fresh manager's metrics
// dump is the whole catalog and depends only on the number of sites.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"

namespace ccpi {
namespace {

/// name -> kind ("counter", "gauge" or "histogram").
using Catalog = std::map<std::string, std::string>;

/// Replaces the first `from` in `s` with `to`.
std::string ReplaceFirst(std::string s, const std::string& from,
                         const std::string& to) {
  s.replace(s.find(from), from.size(), to);
  return s;
}

/// The rows of the tables under "## Metric catalog", with `<k>` expanded
/// to every site index below `sites` and `<tier>` to every tier.
Catalog DocumentedCatalog(size_t sites) {
  std::ifstream in(CCPI_OBSERVABILITY_DOC);
  EXPECT_TRUE(in.good()) << "cannot open " << CCPI_OBSERVABILITY_DOC;
  Catalog catalog;
  bool in_catalog = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) in_catalog = line == "## Metric catalog";
    // A metric row: | `name` | kind | meaning |
    if (!in_catalog || line.rfind("| `", 0) != 0) continue;
    size_t name_end = line.find('`', 3);
    std::string name = line.substr(3, name_end - 3);
    size_t kind_begin = line.find("| ", name_end) + 2;
    std::string kind =
        line.substr(kind_begin, line.find(' ', kind_begin) - kind_begin);
    if (name.find("<k>") != std::string::npos) {
      for (size_t k = 0; k < sites; ++k) {
        catalog[ReplaceFirst(name, "<k>", std::to_string(k))] = kind;
      }
    } else if (name.find("<tier>") != std::string::npos) {
      for (Tier tier : kAllTiers) {
        catalog[ReplaceFirst(name, "<tier>", TierToString(tier))] = kind;
      }
    } else {
      catalog[name] = kind;
    }
  }
  return catalog;
}

/// Every metric of a MetricsRegistry::ToJson dump. The dump opens one
/// section per kind ("counters", "gauges", "histograms") at an indent of
/// two and puts each metric on its own line at an indent of four.
Catalog RegisteredCatalog(const obs::MetricsRegistry& metrics) {
  Catalog catalog;
  std::istringstream in(metrics.ToJson());
  std::string line, kind;
  while (std::getline(in, line)) {
    if (line.rfind("    \"", 0) == 0) {
      catalog[line.substr(5, line.find('"', 5) - 5)] = kind;
    } else if (line.rfind("  \"", 0) == 0) {
      std::string section = line.substr(3, line.find('"', 3) - 3);
      kind = section.substr(0, section.size() - 1);  // "counters" -> counter
    }
  }
  return catalog;
}

ManagerConfig PlainConfig(size_t sites) {
  ManagerConfig config;
  config.topology.sites = sites;
  return config;
}

/// Every optional feature armed: lanes, pipelining, hedging, a drawn
/// latency model and budgets.
ManagerConfig ArmedConfig(size_t sites) {
  ManagerConfig config = PlainConfig(sites);
  config.threads = 4;
  config.pipeline.depth = 8;
  config.remote_cache.hedge_after = 2;
  SiteLatencyOverride twopoint;
  twopoint.model = LatencyModel::kTwoPoint;
  twopoint.lo_us = 1;
  twopoint.hi_us = 5;
  twopoint.slow_share = 0.2;
  config.topology.site_latency[0] = twopoint;
  config.budget.per_episode.deadline_ms = 60000;
  config.budget.deferred_queue_cap = 8;
  return config;
}

TEST(MetricCatalogTest, DocumentationListsSomethingForEveryKind) {
  Catalog doc = DocumentedCatalog(1);
  std::map<std::string, size_t> kinds;
  for (const auto& [name, kind] : doc) ++kinds[kind];
  EXPECT_EQ(kinds.size(), 3u);
  EXPECT_GT(kinds["counter"], 0u);
  EXPECT_GT(kinds["gauge"], 0u);
  EXPECT_GT(kinds["histogram"], 0u);
}

TEST(MetricCatalogTest, FreshManagerRegistersExactlyTheCatalog) {
  for (size_t sites : {1u, 3u}) {
    SCOPED_TRACE("sites " + std::to_string(sites));
    Catalog doc = DocumentedCatalog(sites);
    for (const ManagerConfig& config :
         {PlainConfig(sites), ArmedConfig(sites)}) {
      ConstraintManager mgr({"l"}, CostModel{}, config);
      EXPECT_EQ(RegisteredCatalog(mgr.metrics()), doc);
    }
  }
}

// Running updates through every tier (the RA local test and the datalog
// engine included) resolves no name outside the catalog.
TEST(MetricCatalogTest, RunningUpdatesAddsNoName) {
  for (size_t sites : {1u, 3u}) {
    SCOPED_TRACE("sites " + std::to_string(sites));
    ConstraintManager mgr({"l"}, CostModel{}, ArmedConfig(sites));
    for (auto [name, text] :
         {std::pair{"ord", "panic :- l(X,Y) & X > Y"},
          std::pair{"join", "panic :- l(X,Y) & r(Y,A,B)"},
          std::pair{"fi", "panic :- l(X,Y) & s(Z) & X <= Z & Z <= Y"}}) {
      auto program = ParseProgram(text);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      ASSERT_TRUE(mgr.AddConstraint(name, *program).ok());
    }
    ASSERT_TRUE(mgr.site().db().Insert("r", {V(2), V(3), V(4)}).ok());
    ASSERT_TRUE(mgr.site().db().Insert("s", {V(50)}).ok());
    for (int i = 0; i < 6; ++i) {
      mgr.ApplyUpdateAsync(Update::Insert("l", {V(i), V(i + 40)}));
    }
    for (const auto& result : mgr.Drain()) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    EXPECT_GT(mgr.metrics().GetCounter("eval.evaluations")->value(), 0u);
    EXPECT_GT(mgr.metrics().GetCounter("ra.evaluations")->value(), 0u);
    EXPECT_EQ(RegisteredCatalog(mgr.metrics()), DocumentedCatalog(sites));
  }
}

}  // namespace
}  // namespace ccpi
