// Tests for the N-site topology layer: predicate->site placement, the
// per-site resources of SiteDatabase (injectors, caches, budgets, stats),
// batched concurrent prefetch, and poisoned-entry recovery.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>

#include "distsim/fault_injector.h"
#include "distsim/site_db.h"
#include "distsim/topology.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ccpi {
namespace {

TEST(TopologyTest, SingleSiteMapsEverythingToSiteZero) {
  Topology topology;
  EXPECT_EQ(topology.sites(), 1u);
  EXPECT_EQ(topology.SiteOf("anything"), 0u);
  EXPECT_EQ(topology.SiteOf(""), 0u);
}

TEST(TopologyTest, ExplicitPlacementWinsOverHash) {
  TopologyConfig config;
  config.sites = 3;
  config.placement["orders"] = 2;
  Topology topology(config);
  EXPECT_EQ(topology.SiteOf("orders"), 2u);
  // Unpinned predicates hash into range.
  EXPECT_LT(topology.SiteOf("misc"), 3u);
}

TEST(TopologyTest, HashPlacementIsDeterministicAndStable) {
  TopologyConfig config;
  config.sites = 4;
  Topology a(config);
  Topology b(config);
  for (const char* pred : {"p", "q", "orders", "emp", "assign", "x1"}) {
    EXPECT_EQ(a.SiteOf(pred), b.SiteOf(pred)) << pred;
  }
  // FNV-1a is part of the format: reports and placements must not change
  // across runs or platforms, so pin one known value.
  EXPECT_EQ(Topology::HashPred("orders") % 4, a.SiteOf("orders"));
}

TEST(TopologyTest, HashSpreadsPredicatesAcrossSites) {
  TopologyConfig config;
  config.sites = 4;
  Topology topology(config);
  std::set<size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(topology.SiteOf("pred" + std::to_string(i)));
  }
  EXPECT_EQ(used.size(), 4u);  // 64 draws hit all 4 sites
}

TEST(SiteTopologyTest, PerSiteStatsAttributeTrips) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());
  // Cache off by default (EnableRemoteCache not called): each read is a
  // trip, attributed to its owner site; the aggregate is their sum.
  EXPECT_EQ(site.site_stats(0).remote_trips, 2u);
  EXPECT_EQ(site.site_stats(1).remote_trips, 1u);
  EXPECT_EQ(site.stats().remote_trips, 3u);
}

TEST(SiteTopologyTest, PerSiteInjectorFailsOnlyItsOwnSite) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  FaultInjector dark{FaultConfig{}};
  dark.ForceOutage(true);
  site.set_site_fault_injector(1, &dark);
  EXPECT_TRUE(site.ReadRemote("a", 1).ok());   // site 0 healthy
  EXPECT_FALSE(site.ReadRemote("b", 1).ok());  // site 1 dark
  EXPECT_EQ(site.site_stats(0).remote_failures, 0u);
  EXPECT_EQ(site.site_stats(1).remote_failures, 1u);
}

TEST(SiteTopologyTest, LegacySingleSiteAccessorsAliasSiteZero) {
  SiteDatabase site({"l"});
  FaultInjector injector{FaultConfig{}};
  site.set_fault_injector(&injector);
  EXPECT_EQ(site.fault_injector(), &injector);
  EXPECT_EQ(site.site_fault_injector(0), &injector);
  EXPECT_TRUE(site.any_fault_injector());
  site.set_fault_injector(nullptr);
  EXPECT_FALSE(site.any_fault_injector());
}

TEST(SiteTopologyTest, BatchedPrefetchPaysOneTripPerSite) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 0;
  config.placement["c"] = 1;
  SiteDatabase site({"l"}, config);
  site.EnableRemoteCache(true);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.db().Insert("c", {V(3)}).ok());
  ThreadPool pool(4);
  site.PrefetchRemote({"a", "b", "c"}, &pool);
  // Three relations, two sites: site 0's two relations coalesce into one
  // round trip; site 1 pays one.
  EXPECT_EQ(site.site_stats(0).remote_trips, 1u);
  EXPECT_EQ(site.site_stats(1).remote_trips, 1u);
  EXPECT_EQ(site.stats().remote_trips, 2u);
  // Everything is now cached: reads are hits, no further trips.
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());
  ASSERT_TRUE(site.ReadRemote("c", 1).ok());
  EXPECT_EQ(site.stats().remote_trips, 2u);
  EXPECT_EQ(site.stats().cache_hits, 3u);
  // A warm batch refetches nothing.
  site.PrefetchRemote({"a", "b", "c"}, &pool);
  EXPECT_EQ(site.stats().remote_trips, 2u);
}

TEST(SiteTopologyTest, BatchedPrefetchSequentialAndParallelAgree) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    TopologyConfig config;
    config.sites = 3;
    SiteDatabase site({"l"}, config);
    site.EnableRemoteCache(true);
    std::set<std::string> preds;
    for (int i = 0; i < 9; ++i) {
      std::string pred = "r" + std::to_string(i);
      ASSERT_TRUE(site.db().Insert(pred, {V(i)}).ok());
      preds.insert(pred);
    }
    ThreadPool pool(threads);
    site.PrefetchRemote(preds, &pool);
    size_t populated_sites = 0;
    for (size_t s = 0; s < site.sites(); ++s) {
      populated_sites += site.site_stats(s).remote_trips > 0 ? 1 : 0;
    }
    // One trip per site that owns at least one predicate, at any width.
    EXPECT_EQ(site.stats().remote_trips, populated_sites);
    EXPECT_EQ(site.stats().remote_tuples, 9u);
  }
}

// A stale entry is a lookup like any other: the prefetch counts its
// invalidation (and miss) and times each physical fill, as docs/
// remote_cache.md defines both for every read path.
TEST(SiteTopologyTest, PrefetchCountsInvalidationsAndTimesFills) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 1;
  SiteDatabase site({"l"}, config);
  obs::MetricsRegistry metrics;
  site.set_metrics(&metrics);
  site.EnableRemoteCache(true);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  obs::Counter* invalidations =
      metrics.GetCounter("distsim.cache_invalidations");
  obs::Counter* misses = metrics.GetCounter("distsim.cache_misses");
  obs::Histogram* fills = metrics.GetHistogram("distsim.cache_fill_latency_ns");
  obs::SetTimingEnabled(true);
  ThreadPool pool(2);
  site.PrefetchRemote({"a", "b"}, &pool);  // both cold: no invalidation
  EXPECT_EQ(invalidations->value(), 0u);
  EXPECT_EQ(misses->value(), 2u);
  EXPECT_EQ(fills->count(), 2u);  // one physical trip per site

  // Bump a's version: its entry is stale now, b's is still current.
  ASSERT_TRUE(site.db().Insert("a", {V(3)}).ok());
  site.PrefetchRemote({"a", "b"}, &pool);
  obs::SetTimingEnabled(false);
  EXPECT_EQ(invalidations->value(), 1u);
  EXPECT_EQ(misses->value(), 3u);
  EXPECT_EQ(fills->count(), 3u);
  EXPECT_EQ(site.stats().remote_trips, 3u);
}

// Staged trips change only the wall clock: the commit-time prefetch bills
// exactly what an unstaged one bills, skips the sleep of every site whose
// whole batch was staged at its live version, and sleeps in full for a
// site whose relation moved after staging.
TEST(SiteTopologyTest, StagedTripsSkipOnlyTheCoveredSleep) {
  constexpr uint64_t kTripUs = 50000;
  auto make_site = [](SiteDatabase* site) {
    CostModel slow;
    slow.trip_latency_us = kTripUs;
    for (size_t s = 0; s < site->sites(); ++s) {
      site->set_site_cost_model(s, slow);
    }
    site->EnableRemoteCache(true);
    ASSERT_TRUE(site->db().Insert("a", {V(1)}).ok());
    ASSERT_TRUE(site->db().Insert("b", {V(2)}).ok());
    ASSERT_TRUE(site->db().Insert("c", {V(3)}).ok());
  };
  auto elapsed_us = [](auto&& fn) {
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 0;
  config.placement["c"] = 1;
  const std::set<std::string> preds = {"a", "b", "c", "l"};

  SiteDatabase plain({"l"}, config);
  make_site(&plain);
  plain.PrefetchRemote(preds, nullptr);

  SiteDatabase staged({"l"}, config);
  make_site(&staged);
  SiteDatabase::StagedTrips slept;
  // Both sites' trips overlap: staging waits for one trip, not two.
  EXPECT_GE(elapsed_us([&] { slept = staged.StageRemoteTrips(preds,
                                                            staged.db()); }),
            static_cast<int64_t>(kTripUs));
  EXPECT_EQ(slept.versions.size(), 3u);  // local l is never staged
  EXPECT_LT(elapsed_us([&] { staged.PrefetchRemote(preds, nullptr, &slept); }),
            static_cast<int64_t>(kTripUs));
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(staged.site_stats(s).remote_trips,
              plain.site_stats(s).remote_trips);
    EXPECT_EQ(staged.site_stats(s).remote_tuples,
              plain.site_stats(s).remote_tuples);
  }
  // Warm entries are not staged at all.
  EXPECT_TRUE(staged.StageRemoteTrips(preds, staged.db()).versions.empty());

  // b and c are staged stale, then c moves again: site 0's batch is still
  // covered, site 1's is not and pays its sleep in full.
  ASSERT_TRUE(staged.db().Insert("b", {V(4)}).ok());
  ASSERT_TRUE(staged.db().Insert("c", {V(5)}).ok());
  slept = staged.StageRemoteTrips(preds, staged.db());
  ASSERT_TRUE(staged.db().Insert("c", {V(6)}).ok());
  EXPECT_GE(elapsed_us([&] { staged.PrefetchRemote(preds, nullptr, &slept); }),
            static_cast<int64_t>(kTripUs));
  EXPECT_EQ(staged.stats().remote_trips, 4u);
}

TEST(SiteTopologyTest, RecoverSiteCacheRevalidatesOnlyPoisonedEntries) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 0;
  config.placement["cold"] = 0;
  SiteDatabase site({"l"}, config);
  site.EnableRemoteCache(true);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.db().Insert("cold", {V(3)}).ok());
  // Fill a and b, then poison a via a faulted read during an outage.
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());
  FaultInjector dark{FaultConfig{}};
  dark.ForceOutage(true);
  site.set_site_fault_injector(0, &dark);
  EXPECT_FALSE(site.ReadRemote("a", 1).ok());
  dark.ForceOutage(false);
  size_t trips_before = site.stats().remote_trips;
  size_t revalidated = site.RecoverSiteCache(0, {"a", "b", "cold"});
  // Only the poisoned entry is refetched: b is still a valid snapshot and
  // `cold` was never read (recovery must not grow the cached footprint).
  EXPECT_EQ(revalidated, 1u);
  EXPECT_EQ(site.stats().remote_trips, trips_before + 1);
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());  // served by the cache again
  EXPECT_EQ(site.stats().remote_trips, trips_before + 1);
}

TEST(SiteTopologyTest, ResetStatsClearsPerSiteCounters) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  EXPECT_EQ(site.site_stats(1).remote_trips, 1u);
  site.ResetStats();
  EXPECT_EQ(site.site_stats(1).remote_trips, 0u);
  EXPECT_EQ(site.stats().remote_trips, 0u);
}

}  // namespace
}  // namespace ccpi
