// Experiment PLAN-1: episode cost of the compiled local-test plan cache
// under repeated update patterns. The workload has K join constraints
// `panic :- l(X,Y,Z) & r<k>(Y,A,B)` — two remote-only variables defeat the
// ICQ interval analysis, so every episode runs the tier-1 independence
// analysis (K checks, each copying the K-1 other programs into the assumed
// set) and, for inserts, the tier-2 RA local test. With the cache on, the
// first episode of a tuple shape compiles those decisions once; every
// later episode with the same shape replays them from the pattern memo.
//
// Two sweeps:
//   recheck/K<k>   a uniform delete stream (one shape); reports the cold
//                  compile episode vs. the mean cached re-check episode
//                  inside the same run — the ratio is the headline
//                  speedup — plus whole-run ns/update for cache off vs on.
//   locality/f<f>/K<k>
//                  an insert stream where a fraction f of updates carry
//                  the dominant tuple shape and the rest are spread over
//                  three minority shapes; shows hit rate and per-update
//                  cost tracking pattern locality.
//
// Both sweeps re-run every stream with the cache off and assert the tier
// resolution counts, violations, and applied-update counts are identical —
// the cache is semantically invisible, only the time changes.

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A manager with K ICQ-defeating join constraints over K remote tables.
/// The seeded r<k> rows never match a generated l tuple's join column, so
/// every streamed update is applied and the run stays in the steady-state
/// re-check regime the cache targets.
std::unique_ptr<ConstraintManager> MakeManager(size_t constraints,
                                               bool plan) {
  auto mgr = std::make_unique<ConstraintManager>(
      std::set<std::string>{"l"}, CostModel{},
      ManagerConfig{.plan_cache = plan});
  for (size_t k = 0; k < constraints; ++k) {
    std::string rel = "r" + std::to_string(k);
    auto p = ParseProgram("panic :- l(X,Y,Z) & " + rel + "(Y,A,B)");
    CCPI_CHECK(p.ok());
    CCPI_CHECK(mgr->AddConstraint("join" + std::to_string(k), *p).ok());
    for (int d = 0; d < 10; ++d) {
      CCPI_CHECK(mgr->site()
                     .db()
                     .Insert(rel, {V("m" + std::to_string(d)), V(d), V(d)})
                     .ok());
    }
  }
  return mgr;
}

/// Distinct-constant rows, all sharing the shape class N0.N1.N2.
std::vector<Update> DominantShapeRows(size_t n, const char* tag) {
  std::vector<Update> out;
  for (size_t i = 0; i < n; ++i) {
    std::string s = tag + std::to_string(i);
    out.push_back(
        Update::Insert("l", {V("a" + s), V("b" + s), V("c" + s)}));
  }
  return out;
}

void CheckSameResolution(const ManagerStats& off, const ManagerStats& on) {
  CCPI_CHECK(off.resolved_by == on.resolved_by);
  CCPI_CHECK(off.violations == on.violations);
  CCPI_CHECK(off.t3_admitted == on.t3_admitted);
}

struct RecheckPoint {
  double ns_total = 0;         // whole stream
  double ns_first = 0;         // episode 0 (the compile episode when on)
  double ns_rest = 0;          // mean of episodes 1..n-1
  double plan_hits = 0;
  double plan_compiles = 0;
  ManagerStats stats;
};

/// Seeds `episodes` same-shape rows and times the episode that deletes
/// each one. Tier 1 proves every delete safe; with the cache on, that
/// proof is compiled once and replayed from the pattern memo after.
RecheckPoint RunRecheck(size_t constraints, size_t episodes, bool plan) {
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, plan);
  std::vector<Update> rows = DominantShapeRows(episodes, "x");
  for (const Update& u : rows) {
    CCPI_CHECK(mgr->site().db().Insert(u.pred, u.tuple).ok());
  }
  RecheckPoint point;
  double rest_total = 0;
  for (size_t i = 0; i < episodes; ++i) {
    double t0 = NowNs();
    auto reports =
        mgr->ApplyUpdate(Update::Delete("l", rows[i].tuple));
    double dt = NowNs() - t0;
    CCPI_CHECK(reports.ok());
    point.ns_total += dt;
    if (i == 0) {
      point.ns_first = dt;
    } else {
      rest_total += dt;
    }
  }
  if (episodes > 1) {
    point.ns_rest = rest_total / static_cast<double>(episodes - 1);
  }
  point.plan_hits =
      static_cast<double>(mgr->metrics().GetCounter("plan.hits")->value());
  point.plan_compiles = static_cast<double>(
      mgr->metrics().GetCounter("plan.compiles")->value());
  point.stats = mgr->stats();
  return point;
}

struct LocalityPoint {
  double ns_per_update = 0;
  double plan_hits = 0;
  double plan_compiles = 0;
  ManagerStats stats;
};

/// An insert stream with the dominant N0.N1.N2 shape at fraction f and
/// the remainder spread across three minority shapes (repeated columns).
/// Every row is fresh, so no update is a no-op and none violates.
std::vector<Update> LocalityStream(size_t n, double f, uint64_t seed) {
  Rng rng(seed);
  std::vector<Update> out;
  for (size_t i = 0; i < n; ++i) {
    std::string s = std::to_string(i);
    bool dominant = rng.Below(1000) < static_cast<uint64_t>(f * 1000);
    if (dominant) {
      out.push_back(
          Update::Insert("l", {V("a" + s), V("b" + s), V("c" + s)}));
    } else {
      switch (rng.Below(3)) {
        case 0:
          out.push_back(
              Update::Insert("l", {V("p" + s), V("p" + s), V("q" + s)}));
          break;
        case 1:
          out.push_back(
              Update::Insert("l", {V("p" + s), V("q" + s), V("p" + s)}));
          break;
        default:
          out.push_back(
              Update::Insert("l", {V("p" + s), V("p" + s), V("p" + s)}));
          break;
      }
    }
  }
  return out;
}

LocalityPoint RunLocality(size_t constraints, double f, size_t updates,
                          bool plan) {
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, plan);
  std::vector<Update> stream = LocalityStream(updates, f, 97);
  double t0 = NowNs();
  for (const Update& u : stream) {
    auto reports = mgr->ApplyUpdate(u);
    CCPI_CHECK(reports.ok());
  }
  LocalityPoint point;
  point.ns_per_update = (NowNs() - t0) / static_cast<double>(updates);
  point.plan_hits =
      static_cast<double>(mgr->metrics().GetCounter("plan.hits")->value());
  point.plan_compiles = static_cast<double>(
      mgr->metrics().GetCounter("plan.compiles")->value());
  point.stats = mgr->stats();
  return point;
}

void RunSweep(ccpi::bench::Harness* harness, bool quick) {
  std::vector<size_t> constraint_counts =
      quick ? std::vector<size_t>{4} : std::vector<size_t>{4, 16};
  size_t episodes = quick ? 40 : 120;

  std::printf("=== PLAN-1: compiled-plan cache vs. repeated patterns ===\n");
  std::printf("%-14s %12s %12s %10s %12s %10s\n", "recheck", "ns_off",
              "ns_on", "speedup", "first_ns", "episode_x");
  for (size_t k : constraint_counts) {
    RecheckPoint off = RunRecheck(k, episodes, false);
    RecheckPoint on = RunRecheck(k, episodes, true);
    CheckSameResolution(off.stats, on.stats);
    double ns_off = off.ns_total / static_cast<double>(episodes);
    double ns_on = on.ns_total / static_cast<double>(episodes);
    double speedup = ns_on > 0 ? ns_off / ns_on : 0;
    // The headline number: the compile episode vs. the mean cached
    // re-check episode of the same warm run (noise-tolerant — one
    // process, one manager, adjacent measurements).
    double episode_speedup =
        on.ns_rest > 0 ? on.ns_first / on.ns_rest : 0;
    std::printf("K=%-12zu %12.0f %12.0f %9.1fx %12.0f %9.1fx\n", k, ns_off,
                ns_on, speedup, on.ns_first, episode_speedup);

    char point_name[64];
    std::snprintf(point_name, sizeof(point_name), "recheck/K%zu", k);
    harness->Sweep(
        point_name,
        {{"constraints", static_cast<double>(k)},
         {"episodes", static_cast<double>(episodes)},
         {"ns_per_update_off", ns_off},
         {"ns_per_update_on", ns_on},
         {"run_speedup", speedup},
         {"ns_first_episode_on", on.ns_first},
         {"ns_recheck_episode_on", on.ns_rest},
         {"episode_speedup", episode_speedup},
         {"plan_hits", on.plan_hits},
         {"plan_compiles", on.plan_compiles}});
  }

  std::vector<double> fractions = {0.0, 0.5, 0.9, 1.0};
  size_t updates = quick ? 40 : 120;
  std::printf("\n%-16s %-6s %14s %14s %10s %10s\n", "locality", "K",
              "ns_off", "ns_on", "hits", "compiles");
  for (size_t k : constraint_counts) {
    for (double f : fractions) {
      LocalityPoint off = RunLocality(k, f, updates, false);
      LocalityPoint on = RunLocality(k, f, updates, true);
      CheckSameResolution(off.stats, on.stats);
      double denom = on.plan_hits + on.plan_compiles;
      double hit_rate = denom > 0 ? on.plan_hits / denom : 0;
      std::printf("f=%-14.2f %-6zu %14.0f %14.0f %10.0f %10.0f\n", f, k,
                  off.ns_per_update, on.ns_per_update, on.plan_hits,
                  on.plan_compiles);

      char point_name[64];
      std::snprintf(point_name, sizeof(point_name), "locality/f%.2f/K%zu",
                    f, k);
      harness->Sweep(
          point_name,
          {{"locality", f},
           {"constraints", static_cast<double>(k)},
           {"updates", static_cast<double>(updates)},
           {"ns_per_update_off", off.ns_per_update},
           {"ns_per_update_on", on.ns_per_update},
           {"plan_hits", on.plan_hits},
           {"plan_compiles", on.plan_compiles},
           {"hit_rate", hit_rate}});
    }
  }
  std::printf("\n");
}

void BM_ApplyUpdatePlanCache(benchmark::State& state) {
  size_t constraints = 8;
  bool plan = state.range(0) != 0;
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, plan);
  // Insert/delete the same fresh row in alternation: both directions are
  // real episodes (never no-ops) and the database stays bounded.
  size_t i = 0;
  for (auto _ : state) {
    std::string s = std::to_string(i / 2 % 64);
    std::vector<Value> row = {V("a" + s), V("b" + s), V("c" + s)};
    auto reports = mgr->ApplyUpdate(i % 2 == 0
                                        ? Update::Insert("l", row)
                                        : Update::Delete("l", row));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
    ++i;
  }
  state.counters["plan"] = plan ? 1 : 0;
  state.counters["plan_hits"] = static_cast<double>(
      mgr->metrics().GetCounter("plan.hits")->value());
  state.counters["plan_compiles"] = static_cast<double>(
      mgr->metrics().GetCounter("plan.compiles")->value());
}
BENCHMARK(BM_ApplyUpdatePlanCache)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("plan_cache");
  const char* quick_env = std::getenv("CCPI_BENCH_QUICK");
  bool quick = quick_env != nullptr && *quick_env != '\0' && *quick_env != '0';
  ccpi::RunSweep(&harness, quick);
  return harness.RunAndWrite(argc, argv);
}
